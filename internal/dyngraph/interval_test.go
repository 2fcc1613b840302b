package dyngraph

import (
	"testing"

	"repro/internal/graph"
)

func TestIntervalConnectivityStatic(t *testing.T) {
	// A static connected graph is T-interval connected for every T up to
	// the trace length.
	tr := Capture(NewStatic(graph.Cycle(6)), 4) // 5 snapshots
	if got := IntervalConnectivity(tr); got != 5 {
		t.Fatalf("static cycle maxT = %d, want 5", got)
	}
	if !IsTIntervalConnected(tr, 3) {
		t.Fatal("static cycle should be 3-interval connected")
	}
}

func TestIntervalConnectivityDisconnectedSnapshot(t *testing.T) {
	// A trace containing a disconnected snapshot is not even 1-interval
	// connected.
	b := graph.NewBuilder(4)
	b.AddEdge(0, 1)
	tr := Capture(NewStatic(b.Build()), 2)
	if got := IntervalConnectivity(tr); got != 0 {
		t.Fatalf("disconnected maxT = %d, want 0", got)
	}
}

// alternator switches between two spanning trees of K4 that share no edge:
// star at 0 and the path 1-2, 2-3, 3-1... must share nothing with star
// {01,02,03}: use triangle {12,23,31}? Triangle misses node 0 — not
// spanning. Use path {12,23,30}: contains 30 which the star also... star
// edges are 01,02,03; path edges 12,23,30 — 30 == 03 shared. Choose star
// at 0 vs star at 1: {01,02,03} vs {10,12,13} share 01.
// Any two spanning subgraphs of a 4-clique share an edge? No: {01,23,02}
// (tree) vs {13,12,03}: shared? 01/02/23 vs 13/12/03 — disjoint, both
// spanning trees. Use those.
type alternator struct {
	t     int
	trees [2][][2]int
}

func newAlternator() *alternator {
	return &alternator{trees: [2][][2]int{
		{{0, 1}, {2, 3}, {0, 2}},
		{{1, 3}, {1, 2}, {0, 3}},
	}}
}

func (a *alternator) N() int { return 4 }
func (a *alternator) Step()  { a.t++ }
func (a *alternator) AppendEdges(dst []Edge) []Edge {
	for _, e := range a.trees[a.t%2] {
		u, v := int32(e[0]), int32(e[1])
		if u > v {
			u, v = v, u
		}
		dst = append(dst, Edge{u, v})
	}
	return dst
}

func TestIntervalConnectivityAlternatingTrees(t *testing.T) {
	// Each snapshot is a spanning tree (1-interval connected), but
	// consecutive snapshots share no edge, so T = 2 fails.
	tr := Capture(NewDeltifier(newAlternator()), 5)
	if !IsTIntervalConnected(tr, 1) {
		t.Fatal("each snapshot should be connected")
	}
	if IsTIntervalConnected(tr, 2) {
		t.Fatal("edge-disjoint alternation cannot be 2-interval connected")
	}
	if got := IntervalConnectivity(tr); got != 1 {
		t.Fatalf("maxT = %d, want 1", got)
	}
}

func TestIntervalConnectivityEdgeCases(t *testing.T) {
	tr := NewTrace(3)
	if IntervalConnectivity(tr) != 0 {
		t.Fatal("empty trace should give 0")
	}
	if IsTIntervalConnected(tr, 1) {
		t.Fatal("empty trace is not 1-interval connected")
	}
	full := Capture(NewStatic(graph.Complete(3)), 1)
	if IsTIntervalConnected(full, 0) {
		t.Fatal("T=0 should be rejected")
	}
	if IsTIntervalConnected(full, 99) {
		t.Fatal("T beyond trace length should be rejected")
	}
}
