package edgemeg

import (
	"math"
	"reflect"
	"slices"
	"testing"

	"repro/internal/dyngraph"
	"repro/internal/rng"
)

// The incremental adjacency maintenance must be invisible: an engine-side
// adjacency that follows a model's delta stream across hundreds of steps
// of churn must hold exactly the neighbor sets of a same-seed model whose
// snapshot is rebuilt from scratch at the checkpoint.

// neighborSets returns every node's sorted neighbor list.
func neighborSets(adj *dyngraph.Adjacency) [][]int32 {
	out := make([][]int32, adj.N())
	for i := range out {
		out[i] = slices.Sorted(slices.Values(adj.Neighbors(i)))
	}
	return out
}

func testIncrementalMatchesRebuild(t *testing.T, build func(seed uint64) dyngraph.Dynamic, n int) {
	t.Helper()
	const steps = 220
	for _, seed := range []uint64{1, 7, 1234} {
		var live dyngraph.Tracker
		live.Follow(build(seed))
		fresh := func(upto int) [][]int32 {
			d := build(seed)
			for s := 0; s < upto; s++ {
				d.Step()
			}
			var rebuilt dyngraph.Adjacency
			rebuilt.Reset(n)
			rebuilt.AddEdges(d.AppendEdges(nil))
			return neighborSets(&rebuilt)
		}
		checkpoints := map[int]bool{1: true, 2: true, 13: true, 100: true, steps: true}
		for s := 1; s <= steps; s++ {
			live.Step()
			if !checkpoints[s] {
				continue
			}
			got, want := neighborSets(&live.Adj), fresh(s)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d step %d: incremental %v != rebuilt %v", seed, s, got, want)
			}
		}
	}
}

func TestSparseIncrementalAdjacencyMatchesRebuild(t *testing.T) {
	const n = 48
	testIncrementalMatchesRebuild(t, func(seed uint64) dyngraph.Dynamic {
		return NewSparse(Params{N: n, P: 0.02, Q: 0.2}, InitStationary, rng.New(seed))
	}, n)
}

func TestSparseChurnIncrementalAdjacencyMatchesRebuild(t *testing.T) {
	const n = 48
	testIncrementalMatchesRebuild(t, func(seed uint64) dyngraph.Dynamic {
		s := NewSparse(Params{N: n, P: 0.02, Q: 0.2}, InitStationary, rng.New(seed))
		s.UseChurnSampler()
		return s
	}, n)
}

// newSparseChurn builds a sparse simulator on the stream=v2 death sampler.
func newSparseChurn(params Params, init Init, r *rng.RNG) *Sparse {
	s := NewSparse(params, init, r)
	s.UseChurnSampler()
	return s
}

// TestSparseChurnMatchesSweepMoments pins the stream=v2 death sampler to
// the sweep sampler's law: time-averaged edge counts and their Binomial
// fluctuations agree (the geometric-skipping deaths are the same
// product-Bernoulli(q) law consumed through fewer draws), and the extreme
// rates behave exactly.
func TestSparseChurnMatchesSweepMoments(t *testing.T) {
	params := Params{N: 40, P: 0.02, Q: 0.08} // alpha = 0.2
	sweep := NewSparse(params, InitStationary, rng.New(11))
	churn := newSparseChurn(params, InitStationary, rng.New(13))
	var mSweep, mChurn, deaths, alive float64
	const steps = 600
	for step := 0; step < steps; step++ {
		mSweep += float64(sweep.EdgeCount())
		before := churn.EdgeCount()
		mChurn += float64(before)
		churn.Step()
		sweep.Step()
		_, died := churn.AppendDeltas(nil, nil)
		deaths += float64(len(died))
		alive += float64(before)
	}
	want := params.Alpha() * float64(pairCount(40))
	for name, mean := range map[string]float64{"sweep": mSweep / steps, "churn": mChurn / steps} {
		if math.Abs(mean-want) > 0.08*want {
			t.Fatalf("%s mean edges %v, want ~%v", name, mean, want)
		}
	}
	// Per-step deaths average q per alive edge.
	if got, want := deaths/alive, params.Q; math.Abs(got-want) > 0.15*want {
		t.Fatalf("churn-sampler death rate %v, want ~%v", got, want)
	}

	// Extremes: q = 1 kills every edge in one step; q = 0 kills none
	// (starting full, no pair is dead before the step, so no births
	// interfere in either case).
	all := newSparseChurn(Params{N: 20, P: 0.01, Q: 1}, InitFull, rng.New(3))
	all.Step()
	if all.EdgeCount() != 0 {
		t.Fatalf("q=1 churn sampler left %d edges alive", all.EdgeCount())
	}
	none := newSparseChurn(Params{N: 20, P: 0.01, Q: 0}, InitFull, rng.New(3))
	none.Step()
	if got, want := none.EdgeCount(), int(pairCount(20)); got != want {
		t.Fatalf("q=0 churn sampler killed edges: %d alive, want %d", got, want)
	}
}

func TestGeneralIncrementalAdjacencyMatchesRebuild(t *testing.T) {
	const n = 32
	testIncrementalMatchesRebuild(t, func(seed uint64) dyngraph.Dynamic {
		g, err := NewFourState(FourStateParams{
			N: n, WakeUp: 0.05, Rebound: 0.3, Calm: 0.3,
			Drop: 0.4, Settle: 0.05, Detach: 0.2,
		}, rng.New(seed))
		if err != nil {
			t.Fatal(err)
		}
		return g
	}, n)
}

// TestSparseDeltasMatchSnapshots pins AppendDeltas against brute-force
// snapshot diffs: born = cur \ prev, died = prev \ cur, disjoint, and
// empty before the first Step.
func TestSparseDeltasMatchSnapshots(t *testing.T) {
	for _, dense := range []bool{false, true} {
		params := Params{N: 40, P: 0.03, Q: 0.25}
		var d dyngraph.Dynamic
		if dense {
			d = NewDense(params, InitStationary, rng.New(9))
		} else {
			d = NewSparse(params, InitStationary, rng.New(9))
		}
		db := d.(dyngraph.DeltaBatcher)
		if born, died := db.AppendDeltas(nil, nil); len(born)+len(died) != 0 {
			t.Fatalf("dense=%v: nonzero deltas before the first Step: +%v -%v", dense, born, died)
		}
		prev := edgeSet(dyngraph.AppendEdges(d, nil))
		for s := 0; s < 150; s++ {
			d.Step()
			cur := edgeSet(dyngraph.AppendEdges(d, nil))
			born, died := db.AppendDeltas(nil, nil)
			// Idempotent between steps.
			born2, died2 := db.AppendDeltas(nil, nil)
			if len(born2) != len(born) || len(died2) != len(died) {
				t.Fatalf("dense=%v step %d: AppendDeltas not idempotent", dense, s)
			}
			seen := map[dyngraph.Edge]bool{}
			for _, e := range born {
				if seen[e] || prev[e] || !cur[e] {
					t.Fatalf("dense=%v step %d: bad born edge %v", dense, s, e)
				}
				seen[e] = true
			}
			for _, e := range died {
				if seen[e] || !prev[e] || cur[e] {
					t.Fatalf("dense=%v step %d: bad died edge %v", dense, s, e)
				}
				seen[e] = true
			}
			// Completeness: |prev Δ cur| == |born| + |died|.
			diff := 0
			for e := range prev {
				if !cur[e] {
					diff++
				}
			}
			for e := range cur {
				if !prev[e] {
					diff++
				}
			}
			if diff != len(born)+len(died) {
				t.Fatalf("dense=%v step %d: %d churned edges, deltas report %d",
					dense, s, diff, len(born)+len(died))
			}
			prev = cur
		}
	}
}

func edgeSet(edges []dyngraph.Edge) map[dyngraph.Edge]bool {
	m := make(map[dyngraph.Edge]bool, len(edges))
	for _, e := range edges {
		m[e] = true
	}
	return m
}
