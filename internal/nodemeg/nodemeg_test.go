package nodemeg

import (
	"math"
	"slices"
	"testing"

	"repro/internal/dyngraph"
	"repro/internal/flood"
	"repro/internal/graph"
	"repro/internal/markov"
	"repro/internal/rng"
	"repro/internal/stats"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

// iidChain returns the chain whose every row equals pi (mixing time 1).
func iidChain(pi []float64) *markov.Chain {
	rows := make([][]float64, len(pi))
	for i := range rows {
		rows[i] = append([]float64(nil), pi...)
	}
	return markov.MustChain(rows)
}

func TestSimValidation(t *testing.T) {
	pi := []float64{0.5, 0.5}
	sampler := markov.NewSampler(iidChain(pi))
	if _, err := NewSim(0, sampler, SameState{S: 2}, pi, rng.New(1)); err == nil {
		t.Fatal("n=0 accepted")
	}
	if _, err := NewSim(5, sampler, SameState{S: 3}, pi, rng.New(1)); err == nil {
		t.Fatal("state-count mismatch accepted")
	}
	if _, err := NewSim(5, sampler, SameState{S: 2}, []float64{1}, rng.New(1)); err == nil {
		t.Fatal("short init accepted")
	}
}

func TestSameStateConnection(t *testing.T) {
	c := SameState{S: 4}
	if !c.Connected(2, 2) || c.Connected(1, 2) {
		t.Fatal("SameState semantics wrong")
	}
	if len(c.NeighborStates(3)) != 1 || c.NeighborStates(3)[0] != 3 {
		t.Fatal("SameState gamma wrong")
	}
}

func TestGridRadiusConnection(t *testing.T) {
	g := NewGridRadius(5, 1.5)
	// State (2,2) = 12; (2,3) = 13 at distance 1; (3,3) = 18 at sqrt(2).
	if !g.Connected(12, 13) || !g.Connected(12, 18) {
		t.Fatal("close points not connected")
	}
	// (2,2) and (2,4) at distance 2 > 1.5.
	if g.Connected(12, 14) {
		t.Fatal("far points connected")
	}
	// Symmetry.
	if g.Connected(13, 12) != g.Connected(12, 13) {
		t.Fatal("asymmetric")
	}
}

func TestGridRadiusGammaMatchesConnected(t *testing.T) {
	g := NewGridRadius(6, 2)
	for u := 0; u < g.NumStates(); u++ {
		inGamma := map[int]bool{}
		for _, v := range g.NeighborStates(u) {
			inGamma[int(v)] = true
		}
		for v := 0; v < g.NumStates(); v++ {
			if g.Connected(u, v) != inGamma[v] {
				t.Fatalf("gamma/connected mismatch at (%d,%d)", u, v)
			}
		}
	}
}

func TestGridRadiusZero(t *testing.T) {
	g := NewGridRadius(3, 0)
	if !g.Connected(4, 4) || g.Connected(4, 5) {
		t.Fatal("r=0 should connect same point only")
	}
}

func TestBucketsTrackStates(t *testing.T) {
	pi := []float64{0.3, 0.7}
	sim, err := NewSim(100, markov.NewSampler(iidChain(pi)), SameState{S: 2}, pi, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	for step := 0; step < 10; step++ {
		counts := sim.StateCounts()
		total := 0
		for st, c := range counts {
			total += c
			// Verify bucket contents match the state array.
			for _, i := range sim.buckets[st] {
				if sim.State(int(i)) != st {
					t.Fatalf("bucket %d contains node %d in state %d", st, i, sim.State(int(i)))
				}
			}
		}
		if total != 100 {
			t.Fatalf("buckets cover %d nodes", total)
		}
		sim.Step()
	}
}

func TestEnumAndScanAgree(t *testing.T) {
	// Same model once with the enumerating map, once with a FuncMap
	// falling back to O(n) scans: neighbor sets must coincide.
	pi := stats.Normalize([]float64{1, 2, 3, 4})
	mk := func(conn ConnectionMap, seed uint64) *Sim {
		sim, err := NewSim(40, markov.NewSampler(iidChain(pi)), conn, pi, rng.New(seed))
		if err != nil {
			t.Fatal(err)
		}
		return sim
	}
	a := mk(SameState{S: 4}, 7)
	b := mk(FuncMap{S: 4, Fn: func(u, v int) bool { return u == v }}, 7)
	for step := 0; step < 5; step++ {
		for i := 0; i < 40; i++ {
			if a.State(i) != b.State(i) {
				t.Fatal("same-seed sims diverged")
			}
		}
		ga, gb := dyngraph.Snapshot(a), dyngraph.Snapshot(b)
		for i := 0; i < 40; i++ {
			if na, nb := ga.Neighbors(i), gb.Neighbors(i); !slices.Equal(na, nb) {
				t.Fatalf("neighbor sets differ at node %d: %v vs %v", i, na, nb)
			}
		}
		a.Step()
		b.Step()
	}
}

func TestPNMFormulaSameState(t *testing.T) {
	// With C = same-state and iid chain: P_NM = Σ π², P_NM2 = Σ π³.
	pi := stats.Normalize([]float64{1, 1, 2})
	conn := SameState{S: 3}
	wantPNM := 0.0
	wantPNM2 := 0.0
	for _, p := range pi {
		wantPNM += p * p
		wantPNM2 += p * p * p
	}
	if !almostEq(PNM(pi, conn), wantPNM, 1e-12) {
		t.Fatalf("PNM = %v, want %v", PNM(pi, conn), wantPNM)
	}
	if !almostEq(PNM2(pi, conn), wantPNM2, 1e-12) {
		t.Fatalf("PNM2 = %v, want %v", PNM2(pi, conn), wantPNM2)
	}
	if !almostEq(Eta(pi, conn), wantPNM2/(wantPNM*wantPNM), 1e-12) {
		t.Fatal("Eta inconsistent")
	}
}

func TestPNMUniformSameState(t *testing.T) {
	// Uniform π over S states, same-state connection: P_NM = 1/S, η = 1 —
	// incident edges exactly pairwise independent.
	pi := stats.Uniform(16)
	conn := SameState{S: 16}
	if !almostEq(PNM(pi, conn), 1.0/16, 1e-12) {
		t.Fatal("uniform PNM wrong")
	}
	if !almostEq(Eta(pi, conn), 1, 1e-12) {
		t.Fatalf("uniform eta = %v, want 1", Eta(pi, conn))
	}
}

func TestEtaGrowsWithSkew(t *testing.T) {
	// Skewing the stationary distribution concentrates nodes and breaks
	// pairwise independence: η must grow.
	uniform := stats.Uniform(8)
	skewed := stats.Normalize([]float64{100, 1, 1, 1, 1, 1, 1, 1})
	conn := SameState{S: 8}
	if Eta(skewed, conn) <= Eta(uniform, conn) {
		t.Fatalf("eta(skewed)=%v should exceed eta(uniform)=%v",
			Eta(skewed, conn), Eta(uniform, conn))
	}
}

func TestQAgainstEnumerationFallback(t *testing.T) {
	pi := stats.Normalize([]float64{3, 1, 2, 2})
	withEnum := Q(pi, SameState{S: 4})
	without := Q(pi, FuncMap{S: 4, Fn: func(u, v int) bool { return u == v }})
	for i := range withEnum {
		if !almostEq(withEnum[i], without[i], 1e-12) {
			t.Fatal("Q differs between enum and scan paths")
		}
	}
}

func TestEmpiricalMatchesExact(t *testing.T) {
	pi := stats.Normalize([]float64{2, 1, 1, 1})
	conn := SameState{S: 4}
	sim, err := NewSim(10, markov.NewSampler(iidChain(pi)), conn, pi, rng.New(11))
	if err != nil {
		t.Fatal(err)
	}
	pnm, pnm2 := Empirical(sim, 30000, 1)
	if math.Abs(pnm-PNM(pi, conn)) > 0.01 {
		t.Fatalf("empirical PNM %v, exact %v", pnm, PNM(pi, conn))
	}
	if math.Abs(pnm2-PNM2(pi, conn)) > 0.01 {
		t.Fatalf("empirical PNM2 %v, exact %v", pnm2, PNM2(pi, conn))
	}
}

func TestFloodingOnWalkNodeMEG(t *testing.T) {
	// Integration: random-walk node-MEG on a grid with radius connection.
	// n walkers on an 8x8 grid, connect within sqrt(2): flooding completes.
	m := 8
	g := graph.Grid(m, m)
	chain := markov.LazyRandomWalkChain(g, 0.2)
	pi := markov.WalkStationary(g)
	conn := NewGridRadius(m, 1.5)
	sim, err := NewSim(50, markov.NewSparseSampler(chain), conn, pi, rng.New(13))
	if err != nil {
		t.Fatal(err)
	}
	res := flood.Run(sim, 0, flood.Opts{MaxSteps: 20000, KeepTimeline: true})
	if !res.Completed {
		t.Fatal("flooding did not complete on walk node-MEG")
	}
	if !flood.GrowthIsMonotone(res.Timeline) {
		t.Fatal("timeline not monotone")
	}
}

func TestWarmUpAdvances(t *testing.T) {
	pi := []float64{0.5, 0.5}
	// Deterministic 2-cycle chain: states alternate every step.
	cyc := markov.MustChain([][]float64{{0, 1}, {1, 0}})
	sim, err := NewSim(4, markov.NewSampler(cyc), SameState{S: 2}, []float64{1, 0}, rng.New(17))
	if err != nil {
		t.Fatal(err)
	}
	_ = pi
	if sim.State(0) != 0 {
		t.Fatal("init should put all nodes in state 0")
	}
	sim.WarmUp(3)
	if sim.State(0) != 1 {
		t.Fatal("warmup should advance the chain 3 steps")
	}
}

func BenchmarkSimStep(b *testing.B) {
	m := 32
	g := graph.Grid(m, m)
	chain := markov.LazyRandomWalkChain(g, 0.2)
	pi := markov.WalkStationary(g)
	sim, err := NewSim(1000, markov.NewSparseSampler(chain), NewGridRadius(m, 1.5), pi, rng.New(1))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim.Step()
	}
}
