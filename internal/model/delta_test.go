package model_test

import (
	"reflect"
	"sort"
	"testing"

	"repro/internal/dyngraph"
	"repro/internal/model"
	_ "repro/internal/model/all"
)

// deltifier is the test-side oracle for native delta streams: it wraps a
// model and recomputes each step's churn by diffing consecutive sorted
// snapshot batches, ignoring the model's own AppendDeltas. The wrapper
// owns the clock.
type deltifier struct {
	d         dyngraph.Dynamic
	prev, cur []dyngraph.Edge
}

func newDeltifier(d dyngraph.Dynamic) *deltifier {
	return &deltifier{d: d, cur: sortedEdges(d.AppendEdges(nil))}
}

func (df *deltifier) Step() {
	df.d.Step()
	df.prev, df.cur = df.cur, sortedEdges(df.d.AppendEdges(nil))
}

// AppendDeltas merges the two sorted snapshots.
func (df *deltifier) AppendDeltas(born, died []dyngraph.Edge) (b, d []dyngraph.Edge) {
	less := func(x, y dyngraph.Edge) bool { return x.U < y.U || x.U == y.U && x.V < y.V }
	i, j := 0, 0
	for i < len(df.prev) || j < len(df.cur) {
		switch {
		case j == len(df.cur) || i < len(df.prev) && less(df.prev[i], df.cur[j]):
			died = append(died, df.prev[i])
			i++
		case i == len(df.prev) || less(df.cur[j], df.prev[i]):
			born = append(born, df.cur[j])
			j++
		default:
			i++
			j++
		}
	}
	return born, died
}

// TestAdjacencyAppliedDeltasMatchSnapshots is the randomized cross-model
// pin of the incremental dynamics API: for every registered model, a
// dyngraph.Adjacency seeded from the initial snapshot batch and then
// maintained purely by AppendDeltas application must describe, after
// every step, exactly the edge set a fresh snapshot batch reports.
func TestAdjacencyAppliedDeltasMatchSnapshots(t *testing.T) {
	for _, name := range model.Names() {
		t.Run(name, func(t *testing.T) {
			for _, seed := range []uint64{2, 31} {
				d := model.MustBuild(specFor(name), seed)
				var adj dyngraph.Adjacency
				adj.Reset(d.N())
				adj.AddEdges(dyngraph.AppendEdges(d, nil))
				var born, died []dyngraph.Edge
				for step := 1; step <= 60; step++ {
					d.Step()
					born, died = d.AppendDeltas(born[:0], died[:0])
					adj.Apply(born, died)
					got := sortedEdges(adj.AppendEdges(nil))
					want := sortedEdges(dyngraph.AppendEdges(d, nil))
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("seed %d step %d: delta-maintained adjacency has %d edges, snapshot %d (churn +%d/-%d)",
							seed, step, len(got), len(want), len(born), len(died))
					}
					for _, e := range born {
						if e.U >= e.V {
							t.Fatalf("seed %d step %d: born edge (%d,%d) not normalized", seed, step, e.U, e.V)
						}
					}
					for _, e := range died {
						if e.U >= e.V {
							t.Fatalf("seed %d step %d: died edge (%d,%d) not normalized", seed, step, e.U, e.V)
						}
					}
				}
			}
		})
	}
}

// TestDeltifierMatchesNativeDeltas cross-checks every model's native
// delta stream against the test-side oracle: wrapping a same-seed copy in
// the sorted-diff deltifier must yield step-by-step churn identical (as sets) to
// the simulator's native AppendDeltas. For the geometric mobility and
// node-MEG models this pins the incremental two-pass churn computation
// (died against the pre-move index, born against the post-move one,
// both-moved pairs deduped) against the brute-force snapshot diff.
func TestDeltifierMatchesNativeDeltas(t *testing.T) {
	for _, name := range model.Names() {
		spec := specFor(name)
		t.Run(name, func(t *testing.T) {
			for _, seed := range []uint64{5, 77} {
				native := model.MustBuild(spec, seed)
				wrapped := newDeltifier(model.MustBuild(spec, seed))
				for step := 1; step <= 40; step++ {
					native.Step()
					wrapped.Step()
					nb, nd := native.AppendDeltas(nil, nil)
					wb, wd := wrapped.AppendDeltas(nil, nil)
					if !reflect.DeepEqual(sortedEdges(nb), sortedEdges(wb)) {
						t.Fatalf("seed %d step %d: native born %v != diffed born %v", seed, step, nb, wb)
					}
					if !reflect.DeepEqual(sortedEdges(nd), sortedEdges(wd)) {
						t.Fatalf("seed %d step %d: native died %v != diffed died %v", seed, step, nd, wd)
					}
				}
			}
		})
	}
}

func sortedEdges(edges []dyngraph.Edge) []dyngraph.Edge {
	out := append([]dyngraph.Edge(nil), edges...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].U != out[j].U {
			return out[i].U < out[j].U
		}
		return out[i].V < out[j].V
	})
	return out
}
