package edgemeg

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/dyngraph"
	"repro/internal/flood"
	"repro/internal/markov"
	"repro/internal/rng"
	"repro/internal/stats"
)

func TestParamsValidate(t *testing.T) {
	if err := (Params{N: 1, P: 0.1, Q: 0.1}).Validate(); err == nil {
		t.Fatal("n=1 accepted")
	}
	if err := (Params{N: 5, P: -1, Q: 0.1}).Validate(); err == nil {
		t.Fatal("negative p accepted")
	}
	if err := (Params{N: 5, P: 0.1, Q: 0.2}).Validate(); err != nil {
		t.Fatal(err)
	}
	// 2⁻⁵³ is the smallest rate whose complement stays below 1; at 2⁻⁵⁴,
	// 1-p rounds to 1 and the rate is rejected.
	if err := (Params{N: 5, P: 0x1p-53, Q: 0x1p-53}).Validate(); err != nil {
		t.Fatal(err)
	}
	if err := (Params{N: 5, P: 0x1p-54, Q: 0.5}).Validate(); err == nil {
		t.Fatal("p = 2⁻⁵⁴ accepted")
	}
	if err := (Params{N: 5, P: 0.5, Q: 0x1p-54}).Validate(); err == nil {
		t.Fatal("q = 2⁻⁵⁴ accepted")
	}
}

func TestParamsDerived(t *testing.T) {
	p := Params{N: 11, P: 0.1, Q: 0.3}
	if !almostEq(p.Alpha(), 0.25, 1e-12) {
		t.Fatalf("Alpha = %v", p.Alpha())
	}
	if !almostEq(p.ExpectedDegree(), 2.5, 1e-12) {
		t.Fatalf("ExpectedDegree = %v", p.ExpectedDegree())
	}
	if p.MixingTime(0.25) < 1 {
		t.Fatal("mixing time must be >= 1")
	}
}

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestPairRankBijectionProperty(t *testing.T) {
	f := func(nRaw uint8) bool {
		n := int(nRaw%30) + 2
		seen := make(map[int64]bool)
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				rank := pairRank(u, v, n)
				if rank < 0 || rank >= pairCount(n) || seen[rank] {
					return false
				}
				seen[rank] = true
				gu, gv := pairFromRank(rank, n)
				if gu != u || gv != v {
					return false
				}
			}
		}
		return int64(len(seen)) == pairCount(n)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestPairRankSymmetric(t *testing.T) {
	if pairRank(3, 7, 10) != pairRank(7, 3, 10) {
		t.Fatal("pairRank not symmetric")
	}
}

// TestHasEdgeOutOfRange pins HasEdge on endpoints outside [0, n): with
// every pair alive, such a pair must still read as absent — not as the
// pair its unchecked rank lands on (pairRank(0, 5, 5) is the rank of
// (1, 2)), and not as a panic on a negative rank.
func TestHasEdgeOutOfRange(t *testing.T) {
	const n = 5
	general, err := NewGeneral(n, Params{N: n, P: 0.5, Q: 0.5}.Chain().Chain(),
		[]bool{false, true}, []float64{0, 1}, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	full := Params{N: n, P: 0.5, Q: 0}
	models := []struct {
		name string
		has  func(i, j int) bool
	}{
		{"sparse/bits", newSparse(full, InitFull, rng.New(1), true).HasEdge},
		{"sparse/table", newSparse(full, InitFull, rng.New(1), false).HasEdge},
		{"dense", NewDense(full, InitFull, rng.New(1)).HasEdge},
		{"general", general.HasEdge},
	}
	for _, m := range models {
		if !m.has(1, 2) || !m.has(4, 3) {
			t.Fatalf("%s: in-range pairs of a full graph read absent", m.name)
		}
		for _, pair := range [][2]int{{0, 5}, {5, 0}, {4, 5}, {-1, 0}, {0, -1}, {2, 7}, {-3, 9}, {5, 5}, {2, 2}} {
			if m.has(pair[0], pair[1]) {
				t.Errorf("%s: HasEdge(%d, %d) = true on a %d-node graph", m.name, pair[0], pair[1], n)
			}
		}
	}
}

func TestDenseInitModes(t *testing.T) {
	params := Params{N: 20, P: 0.3, Q: 0.3}
	empty := NewDense(params, InitEmpty, rng.New(1))
	if empty.EdgeCount() != 0 {
		t.Fatal("InitEmpty has edges")
	}
	full := NewDense(params, InitFull, rng.New(1))
	if int64(full.EdgeCount()) != pairCount(20) {
		t.Fatal("InitFull incomplete")
	}
	stat := NewDense(params, InitStationary, rng.New(1))
	frac := float64(stat.EdgeCount()) / float64(pairCount(20))
	if frac < 0.3 || frac > 0.7 {
		t.Fatalf("stationary init density %v, want ~0.5", frac)
	}
}

func TestDenseStationaryDensityHolds(t *testing.T) {
	// Run the chain; time-averaged density should match alpha.
	params := Params{N: 30, P: 0.05, Q: 0.15} // alpha = 0.25
	d := NewDense(params, InitStationary, rng.New(5))
	var o stats.Online
	for step := 0; step < 400; step++ {
		o.Add(float64(d.EdgeCount()) / float64(pairCount(30)))
		d.Step()
	}
	if math.Abs(o.Mean()-0.25) > 0.02 {
		t.Fatalf("time-averaged density %v, want 0.25", o.Mean())
	}
}

func TestDenseConvergesFromEmpty(t *testing.T) {
	params := Params{N: 25, P: 0.1, Q: 0.1}
	d := NewDense(params, InitEmpty, rng.New(7))
	// After many mixing times the density reaches alpha = 0.5.
	for step := 0; step < 200; step++ {
		d.Step()
	}
	frac := float64(d.EdgeCount()) / float64(pairCount(25))
	if math.Abs(frac-0.5) > 0.1 {
		t.Fatalf("density after mixing %v, want ~0.5", frac)
	}
}

func TestDenseNeighborsConsistent(t *testing.T) {
	params := Params{N: 15, P: 0.2, Q: 0.2}
	d := NewDense(params, InitStationary, rng.New(9))
	for step := 0; step < 5; step++ {
		edges := d.AppendEdges(nil)
		for _, e := range edges {
			i, j := int(e.U), int(e.V)
			if !d.HasEdge(i, j) || !d.HasEdge(j, i) {
				t.Fatalf("edge inconsistency %d-%d", i, j)
			}
			if i >= j {
				t.Fatalf("edge %v not normalized to U < V", e)
			}
		}
		if len(edges) != d.EdgeCount() {
			t.Fatalf("batch has %d edges, EdgeCount %d", len(edges), d.EdgeCount())
		}
		d.Step()
	}
}

func TestSparseMatchesDenseMoments(t *testing.T) {
	// Same distribution: compare time-averaged edge counts across many
	// steps between the two simulators.
	params := Params{N: 40, P: 0.02, Q: 0.08} // alpha = 0.2
	dense := NewDense(params, InitStationary, rng.New(11))
	sparse := NewSparse(params, InitStationary, rng.New(13))
	var od, os stats.Online
	for step := 0; step < 600; step++ {
		od.Add(float64(dense.EdgeCount()))
		os.Add(float64(sparse.EdgeCount()))
		dense.Step()
		sparse.Step()
	}
	want := params.Alpha() * float64(pairCount(40))
	if math.Abs(od.Mean()-want) > 0.08*want {
		t.Fatalf("dense mean edges %v, want ~%v", od.Mean(), want)
	}
	if math.Abs(os.Mean()-want) > 0.08*want {
		t.Fatalf("sparse mean edges %v, want ~%v", os.Mean(), want)
	}
	// Standard deviations should match too (Binomial variance).
	wantSD := math.Sqrt(float64(pairCount(40)) * params.Alpha() * (1 - params.Alpha()))
	if math.Abs(od.Std()-wantSD) > 0.5*wantSD || math.Abs(os.Std()-wantSD) > 0.5*wantSD {
		t.Fatalf("edge-count SDs: dense %v sparse %v want ~%v", od.Std(), os.Std(), wantSD)
	}
}

func TestSparseNeighborsConsistent(t *testing.T) {
	params := Params{N: 30, P: 0.05, Q: 0.2}
	s := NewSparse(params, InitStationary, rng.New(15))
	for step := 0; step < 10; step++ {
		edges := s.AppendEdges(nil)
		for _, e := range edges {
			if !s.HasEdge(int(e.U), int(e.V)) || e.U >= e.V {
				t.Fatalf("phantom or unnormalized edge %v", e)
			}
		}
		if len(edges) != s.EdgeCount() {
			t.Fatalf("batch has %d edges, EdgeCount %d", len(edges), s.EdgeCount())
		}
		s.Step()
	}
}

func TestSparseBirthDeathExtremes(t *testing.T) {
	// q=1: all edges die each step; p=1: all pairs born each step.
	params := Params{N: 10, P: 1, Q: 1}
	s := NewSparse(params, InitEmpty, rng.New(17))
	s.Step()
	if int64(s.EdgeCount()) != pairCount(10) {
		t.Fatalf("p=1 should fill graph, have %d", s.EdgeCount())
	}
	// Next step: all alive die, all dead (none) born... with p=1 the dead
	// set before the step is empty, so the graph empties.
	s.Step()
	if s.EdgeCount() != 0 {
		t.Fatalf("q=1 should empty graph, have %d", s.EdgeCount())
	}
}

func TestSparseVsDenseFloodingDistribution(t *testing.T) {
	// The flooding-time distributions of the two exact simulators must
	// agree. Compare medians over repeated trials.
	params := Params{N: 48, P: 0.01, Q: 0.19} // alpha=0.05, E[deg]≈2.35
	const trials = 60
	run := func(mk func(seed uint64) dyngraph.Dynamic) []float64 {
		times := make([]float64, 0, trials)
		for trial := 0; trial < trials; trial++ {
			d := mk(rng.Seed(23, uint64(trial)))
			r := flood.Run(d, 0, flood.Opts{MaxSteps: 2000})
			if r.Completed {
				times = append(times, float64(r.Time))
			}
		}
		return times
	}
	denseTimes := run(func(seed uint64) dyngraph.Dynamic {
		return NewDense(params, InitStationary, rng.New(seed))
	})
	sparseTimes := run(func(seed uint64) dyngraph.Dynamic {
		return NewSparse(params, InitStationary, rng.New(seed+1))
	})
	if len(denseTimes) < trials*9/10 || len(sparseTimes) < trials*9/10 {
		t.Fatalf("too many incomplete runs: %d, %d", len(denseTimes), len(sparseTimes))
	}
	md := stats.Median(denseTimes)
	ms := stats.Median(sparseTimes)
	if math.Abs(md-ms) > 0.35*math.Max(md, ms) {
		t.Fatalf("flooding medians diverge: dense %v sparse %v", md, ms)
	}
}

func TestSparseDeterministicPerSeed(t *testing.T) {
	// Two same-seed simulators must produce identical trajectories — this
	// is a regression test for map-iteration-order nondeterminism in the
	// death sweep.
	params := Params{N: 50, P: 0.01, Q: 0.09}
	a := NewSparse(params, InitStationary, rng.New(99))
	b := NewSparse(params, InitStationary, rng.New(99))
	for step := 0; step < 50; step++ {
		if a.EdgeCount() != b.EdgeCount() {
			t.Fatalf("edge counts diverged at step %d", step)
		}
		for i := 0; i < 50; i++ {
			for j := i + 1; j < 50; j++ {
				if a.HasEdge(i, j) != b.HasEdge(i, j) {
					t.Fatalf("edge sets diverged at step %d (%d,%d)", step, i, j)
				}
			}
		}
		a.Step()
		b.Step()
	}
}

func TestGeneralTwoStateReducesToBasic(t *testing.T) {
	// A general edge-MEG with the 2-state chain and chi = [off, on] is the
	// basic model; check the stationary alpha and density.
	ts := markov.TwoState{P: 0.1, Q: 0.3}
	chi := []bool{false, true}
	alpha, err := StationaryAlpha(ts.Chain(), chi)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(alpha, 0.25, 1e-9) {
		t.Fatalf("alpha = %v, want 0.25", alpha)
	}
	pi, _ := ts.Chain().StationaryExact()
	g, err := NewGeneral(25, ts.Chain(), chi, pi, rng.New(19))
	if err != nil {
		t.Fatal(err)
	}
	var o stats.Online
	for step := 0; step < 300; step++ {
		o.Add(float64(g.EdgeCount()) / float64(pairCount(25)))
		g.Step()
	}
	if math.Abs(o.Mean()-0.25) > 0.03 {
		t.Fatalf("general MEG density %v, want 0.25", o.Mean())
	}
}

func TestGeneralHiddenStates(t *testing.T) {
	// A 3-state chain where only state 2 means "edge on": a hidden model
	// the basic 2-state MEG cannot express (two distinct off states).
	chain := markov.MustChain([][]float64{
		{0.8, 0.2, 0.0},
		{0.1, 0.7, 0.2},
		{0.0, 0.5, 0.5},
	})
	chi := []bool{false, false, true}
	pi, err := chain.StationaryExact()
	if err != nil {
		t.Fatal(err)
	}
	wantAlpha, _ := StationaryAlpha(chain, chi)
	g, err := NewGeneral(20, chain, chi, pi, rng.New(21))
	if err != nil {
		t.Fatal(err)
	}
	var o stats.Online
	for step := 0; step < 500; step++ {
		o.Add(float64(g.EdgeCount()) / float64(pairCount(20)))
		g.Step()
	}
	if math.Abs(o.Mean()-wantAlpha) > 0.05 {
		t.Fatalf("hidden MEG density %v, want %v", o.Mean(), wantAlpha)
	}
}

func TestGeneralValidation(t *testing.T) {
	ts := markov.TwoState{P: 0.1, Q: 0.1}
	pi, _ := ts.Chain().StationaryExact()
	if _, err := NewGeneral(1, ts.Chain(), []bool{false, true}, pi, rng.New(1)); err == nil {
		t.Fatal("n=1 accepted")
	}
	if _, err := NewGeneral(5, ts.Chain(), []bool{true}, pi, rng.New(1)); err == nil {
		t.Fatal("short chi accepted")
	}
	if _, err := NewGeneral(5, ts.Chain(), []bool{false, true}, []float64{1}, rng.New(1)); err == nil {
		t.Fatal("short init accepted")
	}
}

func TestGeneralNeighborsSymmetric(t *testing.T) {
	ts := markov.TwoState{P: 0.3, Q: 0.3}
	pi, _ := ts.Chain().StationaryExact()
	g, err := NewGeneral(12, ts.Chain(), []bool{false, true}, pi, rng.New(23))
	if err != nil {
		t.Fatal(err)
	}
	for step := 0; step < 5; step++ {
		for _, e := range g.AppendEdges(nil) {
			if !g.HasEdge(int(e.U), int(e.V)) || !g.HasEdge(int(e.V), int(e.U)) {
				t.Fatalf("asymmetric edge %v", e)
			}
		}
		g.Step()
	}
}

func TestFloodingOnEdgeMEGCompletes(t *testing.T) {
	// Integration: flooding over a sparse stationary edge-MEG completes
	// even though every snapshot is sparse and disconnected — the central
	// point of the paper's analysis.
	params := Params{N: 200, P: 0.002, Q: 0.198} // alpha=0.01, E[deg]≈2
	d := NewSparse(params, InitStationary, rng.New(27))
	snapshotDegree := float64(2*d.EdgeCount()) / 200
	if snapshotDegree > 4 {
		t.Fatalf("setup not sparse: avg degree %v", snapshotDegree)
	}
	r := flood.Run(d, 0, flood.Opts{MaxSteps: 5000, KeepTimeline: true})
	if !r.Completed {
		t.Fatal("flooding did not complete on sparse edge-MEG")
	}
	if !flood.GrowthIsMonotone(r.Timeline) {
		t.Fatal("timeline not monotone")
	}
}

func BenchmarkDenseStep(b *testing.B) {
	d := NewDense(Params{N: 500, P: 0.001, Q: 0.099}, InitStationary, rng.New(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Step()
	}
}

func BenchmarkSparseStep(b *testing.B) {
	d := NewSparse(Params{N: 5000, P: 2e-5, Q: 0.0498}, InitStationary, rng.New(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Step()
	}
}
