// Command benchtab regenerates the experiment tables: one table per
// quantitative claim of "Information Spreading in Dynamic Graphs"
// (Clementi–Silvestri–Trevisan, PODC 2012). `benchtab -list` names each
// experiment and the claim it checks; docs/PAPER_MAP.md maps them to the
// paper's sections.
//
// Usage:
//
//	benchtab            # run every experiment at full scale
//	benchtab -quick     # reduced sizes (CI smoke)
//	benchtab -exp E4    # a single experiment
//	benchtab -list      # list experiment IDs and claims
//	benchtab -seed 7    # change the master seed
//	benchtab -quick -cpuprofile cpu.prof -memprofile mem.prof  # profile a run
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/bench"
	"repro/internal/profile"
)

func main() {
	quick := flag.Bool("quick", false, "run reduced-size configurations")
	exp := flag.String("exp", "", "run a single experiment by ID (e.g. E4)")
	list := flag.Bool("list", false, "list experiments and exit")
	seed := flag.Uint64("seed", 1, "master seed (tables are deterministic per seed)")
	workers := flag.Int("workers", 0, "trial parallelism (0 = GOMAXPROCS)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile to this file after the run")
	flag.Parse()

	if *list {
		for _, e := range bench.All() {
			fmt.Printf("%-4s %s\n     %s\n", e.ID, e.Title, e.Claim)
		}
		return
	}

	stopProfiles, err := profile.Start(*cpuProfile, *memProfile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchtab:", err)
		os.Exit(1)
	}
	cfg := bench.Config{Quick: *quick, Seed: *seed, Workers: *workers}
	if *exp != "" {
		err = bench.RunOne(*exp, cfg, os.Stdout)
	} else {
		err = bench.RunAll(cfg, os.Stdout)
	}
	if perr := stopProfiles(); err == nil {
		err = perr
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchtab:", err)
		os.Exit(1)
	}
}
