package flood

// Allocation-regression pins of the scratch refactor: once a run has
// warmed its Scratch, the engine hot loops must not touch the heap at all.
// Every engine is pinned twice: on a static torus (Step is a no-op and the
// snapshot is seeded into caller buffers, so any allocation belongs to the
// engine itself) and on a churning edge-MEG that keeps stepping across
// runs, so the tracked adjacency absorbs real deltas on the measured path.

import (
	"testing"

	"repro/internal/dyngraph"
	"repro/internal/edgemeg"
	"repro/internal/graph"
	"repro/internal/rng"
)

// assertZeroAlloc warms the scratch, then measures warm runs on both
// graphs. The static torus is warmed by one run; the edge-MEG evolves
// between runs, so it is warmed by many, driving the adjacency and the
// model's churn buffers to their high-water sizes.
func assertZeroAlloc(t *testing.T, name string, run func(d dyngraph.Dynamic)) {
	t.Helper()
	torus := dyngraph.NewStatic(graph.Torus(12, 12))
	meg := edgemeg.NewSparse(edgemeg.Params{N: 96, P: 0.004, Q: 0.1}, edgemeg.InitStationary, rng.New(17))
	for _, c := range []struct {
		graph string
		d     dyngraph.Dynamic
		warm  int
	}{{"static torus", torus, 1}, {"edge-MEG", meg, 60}} {
		for i := 0; i < c.warm; i++ {
			run(c.d)
		}
		if allocs := testing.AllocsPerRun(20, func() { run(c.d) }); allocs != 0 {
			t.Errorf("%s on %s: %.1f allocs per warm run, want 0", name, c.graph, allocs)
		}
	}
}

func TestFloodDeltaScanZeroAlloc(t *testing.T) {
	d := dyngraph.NewStatic(graph.Torus(16, 16))
	opts := Opts{MaxSteps: 1 << 10, Scratch: NewScratch()}
	if res := Run(d, 0, opts); !res.Completed {
		t.Fatal("flood on the torus did not complete")
	}
	assertZeroAlloc(t, "flood", func(d dyngraph.Dynamic) { Run(d, 0, opts) })
}

func TestPullZeroAlloc(t *testing.T) {
	r := rng.New(5)
	opts := Opts{MaxSteps: 1 << 12, Scratch: NewScratch()}
	if res := Pull(dyngraph.NewStatic(graph.Torus(12, 12)), 0, r, opts); !res.Completed {
		t.Fatal("pull on the torus did not complete")
	}
	assertZeroAlloc(t, "pull", func(d dyngraph.Dynamic) { Pull(d, 0, r, opts) })
}

func TestPushPullZeroAlloc(t *testing.T) {
	r := rng.New(5)
	opts := Opts{MaxSteps: 1 << 12, Scratch: NewScratch()}
	assertZeroAlloc(t, "pushpull", func(d dyngraph.Dynamic) { PushPull(d, 0, 2, r, opts) })
}

func TestParsimoniousZeroAlloc(t *testing.T) {
	opts := Opts{MaxSteps: 1 << 12, Scratch: NewScratch()}
	assertZeroAlloc(t, "parsimonious", func(d dyngraph.Dynamic) { Parsimonious(d, 0, 64, opts) })
}

func TestRandomizedPushZeroAlloc(t *testing.T) {
	r := rng.New(5)
	opts := Opts{MaxSteps: 1 << 12, Scratch: NewScratch()}
	assertZeroAlloc(t, "randomized push", func(d dyngraph.Dynamic) { RandomizedPush(d, 0, 2, r, opts) })
}

// The async engine owes the same contract: a warm scratch (event wheel
// ring/heaps, per-node clocks, adjacency) serves every run without heap
// traffic.
func TestAsyncDeltaZeroAlloc(t *testing.T) {
	opts := Opts{MaxSteps: 1 << 12, Scratch: NewScratch()}
	if res := Async(dyngraph.NewStatic(graph.Torus(12, 12)), 0, 1, 7, opts); !res.Completed {
		t.Fatal("async on the torus did not complete")
	}
	assertZeroAlloc(t, "async", func(d dyngraph.Dynamic) { Async(d, 0, 1, 7, opts) })
}
