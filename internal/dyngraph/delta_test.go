package dyngraph

import (
	"reflect"
	"sort"
	"testing"

	"repro/internal/graph"
)

func sortedEdgeSet(edges []Edge) []Edge {
	out := append([]Edge(nil), edges...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].U != out[j].U {
			return out[i].U < out[j].U
		}
		return out[i].V < out[j].V
	})
	return out
}

// snapshotter is a toy graph that can report only its current snapshot.
type snapshotter interface {
	N() int
	Step()
	AppendEdges(dst []Edge) []Edge
}

// Deltifier adapts a snapshotter into a Dynamic by diffing consecutive
// sorted snapshots — O(m log m) per step. Tests use it as the oracle for
// native delta streams and to run toy graphs; the wrapper owns the clock.
type Deltifier struct {
	s         snapshotter
	prev, cur []Edge
	stepped   bool
}

func NewDeltifier(s snapshotter) *Deltifier {
	return &Deltifier{s: s, cur: sortEdges(s.AppendEdges(nil))}
}

func (df *Deltifier) N() int { return df.s.N() }

func (df *Deltifier) Step() {
	df.s.Step()
	df.prev, df.cur = df.cur, sortEdges(df.s.AppendEdges(df.prev[:0]))
	df.stepped = true
}

func (df *Deltifier) AppendEdges(dst []Edge) []Edge { return append(dst, df.cur...) }

func (df *Deltifier) AppendDeltas(born, died []Edge) (b, d []Edge) {
	if !df.stepped {
		return born, died
	}
	return diffSortedEdges(df.prev, df.cur, born, died)
}

// checkDeltasTrackSnapshots steps d, applying its deltas to an Adjacency
// seeded from the initial snapshot, and fails if the maintained store
// ever diverges from a fresh snapshot batch.
func checkDeltasTrackSnapshots(t *testing.T, d Dynamic, steps int) {
	t.Helper()
	var adj Adjacency
	adj.Reset(d.N())
	adj.AddEdges(d.AppendEdges(nil))
	prev := sortedEdgeSet(d.AppendEdges(nil))
	for s := 1; s <= steps; s++ {
		d.Step()
		born, died := d.AppendDeltas(nil, nil)
		adj.Apply(born, died)
		cur := sortedEdgeSet(d.AppendEdges(nil))
		if got := sortedEdgeSet(adj.AppendEdges(nil)); !reflect.DeepEqual(got, cur) {
			t.Fatalf("step %d: delta-maintained store %v != snapshot %v (deltas +%v -%v)",
				s, got, cur, born, died)
		}
		if len(born)+len(died) != len(symmetricDiff(prev, cur)) {
			t.Fatalf("step %d: deltas +%d/-%d but snapshots differ in %d edges",
				s, len(born), len(died), len(symmetricDiff(prev, cur)))
		}
		prev = cur
	}
}

func symmetricDiff(a, b []Edge) []Edge {
	in := map[Edge]int{}
	for _, e := range a {
		in[e]++
	}
	for _, e := range b {
		in[e]--
	}
	var out []Edge
	for e, c := range in {
		if c != 0 {
			out = append(out, e)
		}
	}
	return out
}

// TestReplayAppendDeltas pins the trace replay's native delta view: churn
// between recorded snapshots, empty before the first Step and after the
// trace freezes at its end.
func TestReplayAppendDeltas(t *testing.T) {
	src := &flicker{g: graph.Cycle(6), on: true}
	tr := Capture(NewDeltifier(src), 3) // snapshots: on, off, on, off
	r := tr.Replay()
	if born, died := r.AppendDeltas(nil, nil); len(born)+len(died) != 0 {
		t.Fatalf("deltas before the first Step: +%v -%v", born, died)
	}
	checkDeltasTrackSnapshots(t, tr.Replay(), 6) // 3 recorded steps + 3 frozen

	// Past the end the snapshot is frozen: deltas must stay empty even
	// though the last recorded transition was a full flip.
	r2 := tr.Replay()
	for i := 0; i < 4; i++ {
		r2.Step()
	}
	if born, died := r2.AppendDeltas(nil, nil); len(born)+len(died) != 0 {
		t.Fatalf("deltas past the trace end: +%v -%v", born, died)
	}
}

// TestStaticAppendDeltas: a static graph never churns.
func TestStaticAppendDeltas(t *testing.T) {
	s := NewStatic(graph.Torus(4, 4))
	checkDeltasTrackSnapshots(t, s, 3)
}

// TestDeltifierOnFlicker drives the test-side diff adapter over the
// worst-case dynamic — every edge flips every step — and over a no-op.
func TestDeltifierOnFlicker(t *testing.T) {
	checkDeltasTrackSnapshots(t, NewDeltifier(&flicker{g: graph.Cycle(6), on: true}), 7)
	checkDeltasTrackSnapshots(t, NewDeltifier(NewStatic(graph.Grid(3, 3))), 3)
}

// TestAdjacencyBasics covers the store operations the engines compose.
func TestAdjacencyBasics(t *testing.T) {
	var a Adjacency
	a.Reset(4)
	a.AddEdge(0, 1)
	a.AddEdge(1, 2)
	a.AddEdge(0, 3)
	if got := a.Degree(0); got != 2 {
		t.Fatalf("Degree(0) = %d, want 2", got)
	}
	a.RemoveEdge(0, 1)
	if got := sortedEdgeSet(a.AppendEdges(nil)); !reflect.DeepEqual(got, []Edge{{0, 3}, {1, 2}}) {
		t.Fatalf("after removal: %v", got)
	}
	a.Apply([]Edge{{0, 1}, {2, 3}}, []Edge{{1, 2}})
	if got := sortedEdgeSet(a.AppendEdges(nil)); !reflect.DeepEqual(got, []Edge{{0, 1}, {0, 3}, {2, 3}}) {
		t.Fatalf("after Apply: %v", got)
	}
	// Reset reuses storage and empties the universe.
	a.Reset(2)
	if got := a.AppendEdges(nil); len(got) != 0 {
		t.Fatalf("after Reset: %v", got)
	}

	defer func() {
		if recover() == nil {
			t.Fatal("RemoveEdge of an absent edge did not panic")
		}
	}()
	a.RemoveEdge(0, 1)
}
