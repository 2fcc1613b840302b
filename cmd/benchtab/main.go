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
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/bench"
)

func main() {
	quick := flag.Bool("quick", false, "run reduced-size configurations")
	exp := flag.String("exp", "", "run a single experiment by ID (e.g. E4)")
	list := flag.Bool("list", false, "list experiments and exit")
	seed := flag.Uint64("seed", 1, "master seed (tables are deterministic per seed)")
	workers := flag.Int("workers", 0, "trial parallelism (0 = GOMAXPROCS)")
	flag.Parse()

	if *list {
		for _, e := range bench.All() {
			fmt.Printf("%-4s %s\n     %s\n", e.ID, e.Title, e.Claim)
		}
		return
	}

	cfg := bench.Config{Quick: *quick, Seed: *seed, Workers: *workers}
	var err error
	if *exp != "" {
		err = bench.RunOne(*exp, cfg, os.Stdout)
	} else {
		err = bench.RunAll(cfg, os.Stdout)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchtab:", err)
		os.Exit(1)
	}
}
