package edgemeg

// Allocation pins on the MODEL step itself, extending the engine-side
// zero-alloc contract (flood's alloc_test) to the simulator: once the
// alive set and the churn buffers have reached their high-water
// capacities, a sparse edge-MEG step touches the heap only when a buffer
// genuinely grows — which a warmed stationary run never does. The
// 4096-node pins run the alive set's hash-table form, the 512-node pin its
// one-bit-per-pair form.

import (
	"testing"

	"repro/internal/dyngraph"
	"repro/internal/rng"
)

// assertStepsZeroAlloc warms the simulator, then measures Step. Runs are
// deterministic per seed, so the pin cannot flake: either the warm-up
// reaches every buffer's high water for this stream or it does not.
func assertStepsZeroAlloc(t *testing.T, name string, s *Sparse) {
	t.Helper()
	for i := 0; i < 500; i++ {
		s.Step()
	}
	if allocs := testing.AllocsPerRun(100, s.Step); allocs != 0 {
		t.Errorf("%s: %.2f allocs per warm step, want 0", name, allocs)
	}
}

func TestSparseStepZeroAlloc(t *testing.T) {
	p := Params{N: 4096, P: 0.0000049, Q: 0.01}
	assertStepsZeroAlloc(t, "sparse v1 step",
		NewSparse(p, InitStationary, rng.New(11)))
}

func TestSparseBitSetStepZeroAlloc(t *testing.T) {
	p := Params{N: 512, P: 0.04, Q: 0.96}
	s := NewSparse(p, InitStationary, rng.New(11))
	if s.alive.bits == nil {
		t.Fatalf("%+v built the hash-table form; this pin is for the bit form", p)
	}
	assertStepsZeroAlloc(t, "sparse v1 step, one bit per pair", s)
}

func TestSparseChurnStepZeroAlloc(t *testing.T) {
	p := Params{N: 4096, P: 0.0000049, Q: 0.01}
	assertStepsZeroAlloc(t, "sparse stream=v2 step",
		newSparseChurn(p, InitStationary, rng.New(11)))
}

// The delta view rides on the same buffers: model step + AppendDeltas is
// the per-step work a delta consumer (the incremental flood engine) pays.
func TestSparseStepAndDeltasZeroAlloc(t *testing.T) {
	p := Params{N: 4096, P: 0.0000049, Q: 0.01}
	s := newSparseChurn(p, InitStationary, rng.New(11))
	for i := 0; i < 500; i++ {
		s.Step()
	}
	var bb, db []dyngraph.Edge
	run := func() {
		s.Step()
		bb, db = s.AppendDeltas(bb[:0], db[:0])
	}
	run()
	if allocs := testing.AllocsPerRun(100, run); allocs != 0 {
		t.Errorf("step+deltas: %.2f allocs per warm step, want 0", allocs)
	}
}
