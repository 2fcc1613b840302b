// Command floodsim runs a single spreading simulation — a chosen protocol
// over a chosen dynamic graph model — and prints the timeline, phase
// split, and completion time.
//
// Models and protocols are both selected by spec — "name:key=value,..." —
// against their registries; run with -models or -protocols for the full
// lists. Examples:
//
//	floodsim -model edgemeg:n=512,p=0.004,q=0.096
//	floodsim -model waypoint:n=200,L=25,r=1.5,vmin=1 -protocol push:k=2
//	floodsim -model walk:n=100,m=16,r=1,stay=0.2 -protocol pull
//	floodsim -model edgemeg:n=128,p=0.02,q=0.2 -protocol pushpull:k=1
//	floodsim -model paths:n=50,m=10,family=l,hop=1 -protocol parsimonious:active=16
//
// (The v2-era -push k flag, deprecated in v3 as an alias for
// -protocol push:k=K, has been removed.)
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/flood"
	"repro/internal/model"
	_ "repro/internal/model/all"
	"repro/internal/protocol"
	"repro/internal/rng"
)

func main() {
	modelSpec := flag.String("model", "edgemeg", "model spec: name[:key=value,...] (see -models)")
	protoSpec := flag.String("protocol", "flood", "protocol spec: name[:key=value,...] (see -protocols)")
	listModels := flag.Bool("models", false, "list registered models and parameters, then exit")
	listProtocols := flag.Bool("protocols", false, "list registered protocols and parameters, then exit")
	seed := flag.Uint64("seed", 1, "random seed")
	source := flag.Int("source", 0, "initially informed source node")
	maxSteps := flag.Int("max-steps", 1<<20, "step cap")
	timeline := flag.Bool("timeline", false, "print the full |I_t| series")
	flag.Parse()

	if *listModels {
		fmt.Print(model.Usage())
		return
	}
	if *listProtocols {
		fmt.Print(protocol.Usage())
		return
	}

	mspec, err := model.Parse(*modelSpec)
	if err != nil {
		fatal(err)
	}
	d, err := model.Build(mspec, *seed)
	if err != nil {
		fatal(err)
	}
	pspec, err := protocol.Parse(*protoSpec)
	if err != nil {
		fatal(err)
	}
	p, err := protocol.Build(pspec, rng.Seed(*seed, 0xF00D))
	if err != nil {
		fatal(err)
	}
	n := d.N()
	if *source < 0 || *source >= n {
		fatal(fmt.Errorf("source %d out of range for n = %d", *source, n))
	}

	res := p.Run(d, *source, flood.Opts{MaxSteps: *maxSteps, KeepTimeline: true})

	if !res.Completed {
		fmt.Printf("%s did NOT complete within %d steps (informed %d/%d)\n",
			pspec.Name, *maxSteps, res.Informed, n)
		os.Exit(2)
	}
	fmt.Printf("%s completion time: %d steps\n", pspec.Name, res.Time)
	if ps, ok := flood.Phases(res); ok {
		fmt.Printf("spreading phase (to n/2): %d steps\n", ps.Spreading)
		fmt.Printf("saturation phase (to n):  %d steps\n", ps.Saturation)
	}
	fmt.Printf("doubling times: %v\n", flood.Doublings(res.Timeline))
	if *timeline {
		for t, size := range res.Timeline {
			fmt.Printf("t=%d |I|=%d\n", t, size)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "floodsim:", err)
	os.Exit(1)
}
