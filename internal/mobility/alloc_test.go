package mobility

// Allocation-regression pins of the incremental mobility work: once a
// model's persistent buffers (cell-list op buckets, churn batches,
// query scratch, pair scratch) have reached their high-water sizes, warm
// steps — including the native delta stream and the batch snapshot view —
// must not touch the heap. Mirrors the engine-side discipline of
// internal/flood/alloc_test.go.

import (
	"testing"

	"repro/internal/dyngraph"
	"repro/internal/rng"
)

// warmModels builds every mobility model at a small size, as a
// delta-capable Dynamic.
func warmModels(t *testing.T) map[string]dyngraph.Dynamic {
	t.Helper()
	walk, err := NewWalk(WalkParams{N: 64, M: 8, R: 1, Stay: 0.2}, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	dwp, err := NewDiscreteWaypointSim(48, 5, rng.New(4))
	if err != nil {
		t.Fatal(err)
	}
	return map[string]dyngraph.Dynamic{
		"waypoint": NewWaypoint(WaypointParams{N: 64, L: 12, R: 1.5, VMin: 0.5, VMax: 1}, InitSteadyState, rng.New(1)),
		"waypoint/pause": NewWaypoint(WaypointParams{N: 64, L: 12, R: 1.5, VMin: 0.5, VMax: 1, Pause: 6},
			InitUniform, rng.New(5)),
		"direction": NewDirection(DirectionParams{N: 64, L: 12, R: 1.5, Speed: 1, Turn: 0.1}, rng.New(2)),
		"walk":      walk,
		"dwaypoint": dwp,
		"region":    NewRegionWaypoint(48, DiskRegion{Radius: 8}, 1.5, 0.5, 1, rng.New(6)),
	}
}

// TestMobilityWarmStepZeroAlloc pins the models' warm step at 0 allocs/op,
// with the native delta stream drained every step the way the flood delta
// engine consumes it.
func TestMobilityWarmStepZeroAlloc(t *testing.T) {
	for name, d := range warmModels(t) {
		t.Run(name, func(t *testing.T) {
			db, ok := d.(dyngraph.DeltaBatcher)
			if !ok {
				t.Fatalf("%s: expected a native DeltaBatcher", name)
			}
			var born, died []dyngraph.Edge
			step := func() {
				d.Step()
				born, died = db.AppendDeltas(born[:0], died[:0])
			}
			// Warm: drive the buffers to their high-water sizes.
			for i := 0; i < 600; i++ {
				step()
			}
			if allocs := testing.AllocsPerRun(100, step); allocs != 0 {
				t.Errorf("%s: %.1f allocs per warm step, want 0", name, allocs)
			}
		})
	}
}

// TestMobilityBatchViewZeroAlloc pins the warm snapshot batch view — the
// cell list owns the pair scratch, so AppendEdges into a caller buffer at
// its high-water capacity must not allocate.
func TestMobilityBatchViewZeroAlloc(t *testing.T) {
	for name, d := range warmModels(t) {
		t.Run(name, func(t *testing.T) {
			var edges []dyngraph.Edge
			round := func() {
				d.Step()
				edges = dyngraph.AppendEdges(d, edges[:0])
			}
			for i := 0; i < 600; i++ {
				round()
			}
			if allocs := testing.AllocsPerRun(100, round); allocs != 0 {
				t.Errorf("%s: %.1f allocs per warm step+batch, want 0", name, allocs)
			}
		})
	}
}
