// Command tracecap records a dynamic-graph model into a binary trace file,
// and analyzes or replays recorded traces. Traces decouple expensive model
// simulation from repeated analysis and make runs shareable.
//
// Usage:
//
//	tracecap -record trace.bin -model edgemeg:n=200,p=0.01,q=0.09 -steps 500
//	tracecap -record trace.bin -model waypoint:n=200,L=25,r=1.5
//	tracecap -analyze trace.bin          # density, interval connectivity
//	tracecap -flood trace.bin -source 0  # replay flooding over the trace
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/dyngraph"
	"repro/internal/flood"
	"repro/internal/model"
	_ "repro/internal/model/all"
	"repro/internal/stats"
)

func main() {
	record := flag.String("record", "", "record a trace to this file")
	analyze := flag.String("analyze", "", "analyze a recorded trace file")
	floodFile := flag.String("flood", "", "replay flooding over a recorded trace file")
	listModels := flag.Bool("models", false, "list registered models and parameters, then exit")

	modelSpec := flag.String("model", "edgemeg:n=200,p=0.01,q=0.09", "model spec to record: name[:key=value,...] (see -models)")
	steps := flag.Int("steps", 500, "snapshots to record")
	seed := flag.Uint64("seed", 1, "seed")
	source := flag.Int("source", 0, "flooding source")
	flag.Parse()

	switch {
	case *listModels:
		fmt.Print(model.Usage())
	case *record != "":
		if err := doRecord(*record, *modelSpec, *steps, *seed); err != nil {
			fatal(err)
		}
	case *analyze != "":
		if err := doAnalyze(*analyze); err != nil {
			fatal(err)
		}
	case *floodFile != "":
		if err := doFlood(*floodFile, *source); err != nil {
			fatal(err)
		}
	default:
		flag.Usage()
		os.Exit(2)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "tracecap:", err)
	os.Exit(1)
}

func doRecord(path, modelSpec string, steps int, seed uint64) error {
	spec, err := model.Parse(modelSpec)
	if err != nil {
		return err
	}
	d, err := model.Build(spec, seed)
	if err != nil {
		return err
	}
	tr := dyngraph.Capture(d, steps-1)
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if _, err := tr.WriteTo(f); err != nil {
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("recorded %d snapshots of %d nodes to %s\n", tr.Len(), tr.N(), path)
	return nil
}

func load(path string) (*dyngraph.Trace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return dyngraph.ReadTrace(f)
}

func doAnalyze(path string) error {
	tr, err := load(path)
	if err != nil {
		return err
	}
	fmt.Printf("trace: %d nodes, %d snapshots\n", tr.N(), tr.Len())
	var degrees []float64
	for s := 0; s < tr.Len(); s++ {
		degrees = append(degrees, 2*float64(len(tr.EdgesAt(s)))/float64(tr.N()))
	}
	sum := stats.Summarize(degrees)
	fmt.Printf("average degree per snapshot: mean=%.2f min=%.2f max=%.2f\n",
		sum.Mean, sum.Min, sum.Max)
	fmt.Printf("T-interval connectivity (Kuhn–Lynch–Oshman): max T = %d\n",
		dyngraph.IntervalConnectivity(tr))
	return nil
}

func doFlood(path string, source int) error {
	tr, err := load(path)
	if err != nil {
		return err
	}
	if source < 0 || source >= tr.N() {
		return fmt.Errorf("source %d out of range for n = %d", source, tr.N())
	}
	res := flood.Run(tr.Replay(), source, flood.Opts{MaxSteps: tr.Len() + 1, KeepTimeline: true})
	if !res.Completed {
		fmt.Printf("flooding did not complete within the trace (%d snapshots); informed %d/%d\n",
			tr.Len(), res.Informed, tr.N())
		return nil
	}
	fmt.Printf("flooding time over the trace: %d steps (half at %d)\n", res.Time, res.HalfTime)
	return nil
}
