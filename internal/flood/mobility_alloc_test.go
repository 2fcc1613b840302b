package flood_test

import (
	"testing"

	"repro/internal/flood"
	"repro/internal/model"
	_ "repro/internal/model/all"
)

// TestChurnTotalsCountMovedNodes is the deterministic pin of the
// moved-node accounting behind the moved_per_step telemetry gauge
// (TestRunSweepMovedGauge at the study layer can only check registration —
// its gauges divide by a process-wide step count). A pause-free waypoint
// moves every node every step, so the scratch-local totals must satisfy
// moved == n × steps exactly.
func TestChurnTotalsCountMovedNodes(t *testing.T) {
	const n = 64
	ms := model.New("waypoint").WithInt("n", n).WithFloat("L", 12).WithFloat("r", 1.5).
		WithFloat("vmin", 0.5)
	sc := flood.NewScratch()
	opts := flood.Opts{MaxSteps: 1 << 12, Scratch: sc}
	for _, seed := range []uint64{3, 19} {
		res := flood.Run(model.MustBuild(ms, seed), 0, opts)
		if !res.Completed {
			t.Fatalf("seed %d: flood did not complete in %d steps", seed, opts.MaxSteps)
		}
	}
	born, died, moved, steps := sc.ChurnTotals()
	if steps <= 0 {
		t.Fatalf("no delta steps recorded — waypoint not dispatched to the delta engine?")
	}
	if moved != int64(n)*steps {
		t.Errorf("moved = %d over %d steps, want exactly n×steps = %d (pause-free waypoint moves every node)",
			moved, steps, int64(n)*steps)
	}
	if born <= 0 || died <= 0 {
		t.Errorf("churn totals born=%d died=%d, want both positive", born, died)
	}

	// A pause-heavy waypoint must report strictly fewer moved nodes than
	// steps×n — resting nodes are not movers.
	paused := model.New("waypoint").WithInt("n", n).WithFloat("L", 12).WithFloat("r", 1.5).
		WithFloat("vmin", 0.5).WithInt("pause", 8).With("init", "uniform").WithInt("warmup", 5)
	sc2 := flood.NewScratch()
	flood.Run(model.MustBuild(paused, 7), 0, flood.Opts{MaxSteps: 1 << 12, Scratch: sc2})
	_, _, pMoved, pSteps := sc2.ChurnTotals()
	if pSteps <= 0 {
		t.Fatalf("paused waypoint recorded no delta steps")
	}
	if pMoved >= int64(n)*pSteps {
		t.Errorf("paused waypoint moved %d over %d steps — expected < n×steps = %d", pMoved, pSteps, int64(n)*pSteps)
	}
	if pMoved <= 0 {
		t.Errorf("paused waypoint reported no movers at all")
	}
}

// TestMobilityDeltaFloodZeroAlloc pins the full mobility delta pipeline —
// cell-list Update, native AppendDeltas, adjacency apply,
// active-set scan — at 0 allocs per warm run.
func TestMobilityDeltaFloodZeroAlloc(t *testing.T) {
	ms := model.New("waypoint").WithInt("n", 64).WithFloat("L", 12).WithFloat("r", 1.5).
		WithFloat("vmin", 0.5)
	d := model.MustBuild(ms, 17)
	sc := flood.NewScratch()
	opts := flood.Opts{MaxSteps: 1 << 12, Scratch: sc}
	run := func() { flood.Run(d, 0, opts) }
	// Warm: the model keeps stepping across runs, so this drives the cell
	// lists, churn batches, and scratch adjacency to their high-water sizes.
	for i := 0; i < 60; i++ {
		run()
	}
	if allocs := testing.AllocsPerRun(20, run); allocs != 0 {
		t.Errorf("warm mobility delta flood run: %.1f allocs, want 0", allocs)
	}
}

// TestWaypoint64kStepZeroAlloc pins the warm waypoint step at n = 65536,
// where the buffer high-water marks (moved nodes, churn batches, the cell
// list's op buckets) differ from the 64-node pins: a pause-heavy model
// (fast trips, long rests, about a quarter of the nodes moving per step)
// must step without allocating once 256 steps have reached its steady
// mover mix.
func TestWaypoint64kStepZeroAlloc(t *testing.T) {
	if testing.Short() {
		t.Skip("64k-node waypoint pin skipped under -short")
	}
	spec, err := model.Parse("waypoint:n=65536,L=256,r=1,vmin=8,vmax=8,pause=32")
	if err != nil {
		t.Fatal(err)
	}
	d := model.MustBuild(spec, 1)
	for i := 0; i < 256; i++ {
		d.Step()
	}
	if allocs := testing.AllocsPerRun(20, d.Step); allocs != 0 {
		t.Errorf("warm 64k waypoint step: %.1f allocs, want 0", allocs)
	}
}
