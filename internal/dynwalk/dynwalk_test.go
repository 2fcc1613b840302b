package dynwalk

import (
	"testing"

	"repro/internal/dyngraph"
	"repro/internal/edgemeg"
	"repro/internal/graph"
	"repro/internal/markov"
	"repro/internal/rng"
	"repro/internal/stats"
)

func TestWalkerStaysOnIsolatedNode(t *testing.T) {
	b := graph.NewBuilder(3)
	b.AddEdge(1, 2)
	w := NewWalker(dyngraph.NewStatic(b.Build()), 0, rng.New(1))
	for i := 0; i < 10; i++ {
		w.Step()
		if w.Pos() != 0 {
			t.Fatal("walker left an isolated node")
		}
	}
}

func TestWalkerMovesOnEdges(t *testing.T) {
	g := graph.Cycle(5)
	w := NewWalker(dyngraph.NewStatic(g), 0, rng.New(3))
	prev := 0
	for i := 0; i < 50; i++ {
		w.Step()
		if !g.HasEdge(prev, w.Pos()) {
			t.Fatalf("walker jumped %d -> %d (not an edge)", prev, w.Pos())
		}
		prev = w.Pos()
	}
}

func TestWalkerPanicsOnBadStart(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("bad start did not panic")
		}
	}()
	NewWalker(dyngraph.NewStatic(graph.Cycle(3)), 7, rng.New(1))
}

func TestHittingTimeTrivialAndCapped(t *testing.T) {
	d := dyngraph.NewStatic(graph.Cycle(6))
	if HittingTime(d, 2, 2, 10, rng.New(5)) != 0 {
		t.Fatal("hitting self should be 0")
	}
	// Disconnected target: never hit.
	b := graph.NewBuilder(3)
	b.AddEdge(0, 1)
	if HittingTime(dyngraph.NewStatic(b.Build()), 0, 2, 100, rng.New(7)) != -1 {
		t.Fatal("unreachable target should report -1")
	}
}

func TestHittingTimeScalesOnPath(t *testing.T) {
	// Expected hitting time from end to end of a path is Θ(n²).
	r := rng.New(9)
	mean := func(n int) float64 {
		total := 0.0
		const trials = 60
		for i := 0; i < trials; i++ {
			h := HittingTime(dyngraph.NewStatic(graph.Path(n)), 0, n-1, 1<<20, r)
			total += float64(h)
		}
		return total / trials
	}
	m8, m16 := mean(8), mean(16)
	ratio := m16 / m8
	if ratio < 2.5 || ratio > 6.5 {
		t.Fatalf("path hitting scaling = %v, want ~4 (n²)", ratio)
	}
}

func TestCoverTimeCompleteGraph(t *testing.T) {
	// Coupon collector: cover time of K_n is ~ n ln n.
	r := rng.New(11)
	var times []float64
	for i := 0; i < 40; i++ {
		res := CoverTime(dyngraph.NewStatic(graph.Complete(16)), 0, 1<<20, r)
		if res.Steps < 0 || res.Visited != 16 {
			t.Fatalf("cover failed: %+v", res)
		}
		times = append(times, float64(res.Steps))
	}
	med := stats.Median(times)
	// n ln n ≈ 44 for n=16; accept a generous band.
	if med < 15 || med > 120 {
		t.Fatalf("K16 cover median = %v, want ≈ 44", med)
	}
}

func TestCoverTimePartialOnCap(t *testing.T) {
	res := CoverTime(dyngraph.NewStatic(graph.Path(50)), 0, 5, rng.New(13))
	if res.Steps != -1 {
		t.Fatal("tiny cap should not cover")
	}
	if res.Visited < 1 || res.Visited > 6 {
		t.Fatalf("visited = %d after 5 steps", res.Visited)
	}
}

func TestCoverCostConservation(t *testing.T) {
	// The walk's message accounting mirrors the spreading engines': one
	// message per actual move, and every visited node beyond the start was
	// first reached by exactly one move, so
	// Messages == Useless + (Visited - 1) — covered or capped alike.
	for _, cap := range []int{5, 1 << 20} {
		for seed := uint64(1); seed <= 5; seed++ {
			res := CoverTime(dyngraph.NewStatic(graph.Complete(16)), 0, cap, rng.New(seed))
			if res.Useless < 0 || res.Messages < 0 {
				t.Fatalf("negative cost: %+v", res)
			}
			if res.Messages != res.Useless+int64(res.Visited-1) {
				t.Fatalf("conservation violated: %+v", res)
			}
		}
	}
	// An isolated walker never moves: zero cost even though steps elapse.
	b := graph.NewBuilder(2)
	res := CoverTime(dyngraph.NewStatic(b.Build()), 0, 50, rng.New(3))
	if res.Messages != 0 || res.Useless != 0 {
		t.Fatalf("isolated walker reported cost: %+v", res)
	}
}

func TestCoverTimeSingleNode(t *testing.T) {
	b := graph.NewBuilder(1)
	res := CoverTime(dyngraph.NewStatic(b.Build()), 0, 10, rng.New(15))
	if res.Steps != 0 || res.Visited != 1 {
		t.Fatalf("single node cover: %+v", res)
	}
}

func TestHittingTimeMatchesExactOnStaticCycle(t *testing.T) {
	// Cross-validation: the dynamic-walk estimator on a static graph must
	// agree with the exact first-step linear system from markov.
	n := 8
	g := graph.Cycle(n)
	exact, err := markov.RandomWalkChain(g).Dense().ExpectedHittingTimes(0)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(21)
	const trials = 4000
	start := 3
	total := 0.0
	for i := 0; i < trials; i++ {
		h := HittingTime(dyngraph.NewStatic(g), start, 0, 1<<20, r)
		total += float64(h)
	}
	mean := total / trials
	want := exact[start] // d(n-d) = 3*5 = 15
	if mean < 0.9*want || mean > 1.1*want {
		t.Fatalf("empirical hitting %v vs exact %v", mean, want)
	}
}

func TestCoverOnDynamicGraphBeatsStuckComponents(t *testing.T) {
	// On a static sparse disconnected graph the walk can never cover; on
	// an edge-MEG with the same stationary density, edge churn carries the
	// walker across components — the [2] phenomenon that motivates walks
	// on MEGs.
	params := edgemeg.Params{N: 40, P: 0.005, Q: 0.095} // alpha = 0.05
	staticSnap := dyngraph.Snapshot(edgemeg.NewSparse(params, edgemeg.InitStationary, rng.New(17)))
	if staticSnap.IsConnected() {
		t.Skip("unlucky seed: snapshot connected, pick another seed")
	}
	res := CoverTime(dyngraph.NewStatic(staticSnap), 0, 50000, rng.New(19))
	if res.Steps != -1 {
		t.Fatal("static disconnected snapshot should not be coverable")
	}
	dyn := edgemeg.NewSparse(params, edgemeg.InitStationary, rng.New(17))
	dynRes := CoverTime(dyn, 0, 200000, rng.New(19))
	if dynRes.Steps == -1 {
		t.Fatalf("dynamic graph should be coverable: %+v", dynRes)
	}
}

// TestWalkerStepDeterministicAndZeroAlloc pins the walker's contract on a
// churning edge-MEG: equal (model seed, walk seed) pairs replay the same
// trajectory, and a warm Step — move draw, model step, delta drain and
// adjacency apply — allocates nothing.
func TestWalkerStepDeterministicAndZeroAlloc(t *testing.T) {
	params := edgemeg.Params{N: 96, P: 0.004, Q: 0.1}
	walker := func() *Walker {
		return NewWalker(edgemeg.NewSparse(params, edgemeg.InitStationary, rng.New(23)), 0, rng.New(29))
	}
	a, b := walker(), walker()
	for i := 0; i < 2000; i++ {
		if a.Step() != b.Step() || a.Pos() != b.Pos() {
			t.Fatalf("step %d: same-seed walkers diverged at %d vs %d", i, a.Pos(), b.Pos())
		}
	}
	if allocs := testing.AllocsPerRun(200, func() { a.Step() }); allocs != 0 {
		t.Errorf("warm Walker.Step: %.2f allocs, want 0", allocs)
	}
}
