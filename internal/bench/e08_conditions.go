package bench

import (
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/dyngraph"
	"repro/internal/edgemeg"
	"repro/internal/graph"
	"repro/internal/markov"
	"repro/internal/nodemeg"
	"repro/internal/randompath"
	"repro/internal/stats"
)

func init() {
	register(Experiment{
		ID:    "E8",
		Title: "Density and β-independence conditions across model families",
		Claim: "edge-MEGs satisfy β ≈ 1 exactly (independence); node-MEGs satisfy η = P_NM2/P_NM² = O(1) when the positional law is near-uniform, and η grows with positional skew (Fact 2, Lemma 15)",
		Run:   runE8,
	})
}

func runE8(cfg Config, w io.Writer) error {
	epochs, trialsN := 60, 5
	if cfg.Quick {
		epochs, trialsN = 25, 3
	}

	// (a) Empirical (α, β) of a stationary sparse edge-MEG.
	params := edgemeg.Params{N: 80, P: 0.01, Q: 0.09} // alpha = 0.1
	spec := edgemegSpec(params.N, params.P, params.Q).WithBool("dense", true)
	rep, err := core.EstimateConditions(func(trial int) dyngraph.Dynamic {
		return buildModel(spec, cfg.Seed, 10, uint64(trial))
	}, core.EstimateOpts{
		M: params.MixingTime(markov.DefaultMixingEps), Epochs: epochs, Trials: trialsN,
		Pairs: 40, Triples: 25, SetSize: 20, Seed: cfg.Seed,
	})
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "   (a) empirical stationarity conditions, two-state edge-MEG (α-target 0.1, independent edges):")
	tab := NewTable(w, "alpha-target", "alpha-min", "alpha-mean", "beta-mean", "beta-max", "samples")
	tab.Row(f3(params.Alpha()), f3(rep.AlphaMin), f3(rep.AlphaMean), f2(rep.BetaMean), f2(rep.BetaMax), rep.Samples)
	if err := tab.Flush(); err != nil {
		return err
	}

	// (b) Exact η for node-MEG connection structures (Fact 2).
	fmt.Fprintln(w, "   (b) exact P_NM, P_NM2, η for node-MEG families:")
	tab = NewTable(w, "model", "states", "P_NM", "P_NM2", "eta")
	// Uniform same-point occupancy: η = 1 exactly.
	uni := stats.Uniform(64)
	conn := nodemeg.SameState{S: 64}
	tab.Row("same-point, uniform π", 64, g3(nodemeg.PNM(uni, conn)), g3(nodemeg.PNM2(uni, conn)), f2(nodemeg.Eta(uni, conn)))
	// Skewed occupancy: η grows.
	for _, hot := range []float64{4, 16, 64} {
		skew := make([]float64, 64)
		for i := range skew {
			skew[i] = 1
		}
		skew[0] = hot
		pi := stats.Normalize(skew)
		tab.Row(fmt.Sprintf("same-point, %gx hotspot", hot), 64,
			g3(nodemeg.PNM(pi, conn)), g3(nodemeg.PNM2(pi, conn)), f2(nodemeg.Eta(pi, conn)))
	}
	// Grid walk with radius connection (stationary = degree-biased).
	m := 8
	g := graph.Grid(m, m)
	walkPi := markov.WalkStationary(g)
	gr := nodemeg.NewGridRadius(m, 1.5)
	tab.Row("grid walk, radius 1.5", m*m, g3(nodemeg.PNM(walkPi, gr)), g3(nodemeg.PNM2(walkPi, gr)), f2(nodemeg.Eta(walkPi, gr)))
	// Random-path families: L-paths (balanced) vs star (congested), with
	// the paper's same-point connection (hop radius 0).
	for _, fam := range []struct {
		name  string
		paths []randompath.Path
	}{
		{"L-paths on grid", randompath.GridLPaths(m)},
		{"star paths on grid", randompath.StarPaths(m)},
	} {
		rp, err := randompath.New(g, fam.paths)
		if err != nil {
			return err
		}
		conn, err := rp.HopConnection(0)
		if err != nil {
			return err
		}
		pi := stats.Uniform(rp.NumStates())
		tab.Row(fam.name, rp.NumStates(), g3(nodemeg.PNM(pi, conn)), g3(nodemeg.PNM2(pi, conn)), f2(nodemeg.Eta(pi, conn)))
	}
	if err := tab.Flush(); err != nil {
		return err
	}
	fmt.Fprintln(w, "   check: β ≈ 1 for edge-MEGs; η = 1 exactly for uniform occupancy and rises with moderate hotspots and path congestion — exactly the quantities Theorem 3 and Corollary 5 charge for. (η is non-monotone at extreme skew: a full point mass has η = 1 again, since all meetings then happen at one state.)")
	return nil
}
