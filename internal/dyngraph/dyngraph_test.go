package dyngraph

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"testing"

	"repro/internal/graph"
	"repro/internal/rng"
)

func TestStaticAdapter(t *testing.T) {
	g := graph.Cycle(5)
	d := NewStatic(g)
	if d.N() != 5 {
		t.Fatal("N wrong")
	}
	d.Step() // no-op
	want := []Edge{{0, 1}, {0, 4}, {1, 2}, {2, 3}, {3, 4}}
	if got := sortedEdgeSet(d.AppendEdges(nil)); !reflect.DeepEqual(got, want) {
		t.Fatalf("edges = %v, want %v", got, want)
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	g := graph.Grid(4, 4)
	snap := Snapshot(NewStatic(g))
	if snap.N() != g.N() || snap.M() != g.M() {
		t.Fatalf("snapshot differs: %v vs %v", snap, g)
	}
	for _, e := range g.Edges() {
		if !snap.HasEdge(e[0], e[1]) {
			t.Fatalf("snapshot missing edge %v", e)
		}
	}
}

func TestEdgeCount(t *testing.T) {
	g := graph.Complete(6)
	if EdgeCount(NewStatic(g)) != 15 {
		t.Fatal("EdgeCount wrong")
	}
}

func TestAverageDegreeOver(t *testing.T) {
	g := graph.Cycle(10)
	avg := AverageDegreeOver(NewStatic(g), 5)
	if avg != 2 {
		t.Fatalf("average degree = %v, want 2", avg)
	}
}

// flicker is a toy graph that alternates between a cycle and the empty
// graph each step; NewDeltifier makes it a Dynamic.
type flicker struct {
	g  *graph.Graph
	on bool
}

func (f *flicker) N() int { return f.g.N() }
func (f *flicker) Step()  { f.on = !f.on }
func (f *flicker) AppendEdges(dst []Edge) []Edge {
	if f.on {
		return NewStatic(f.g).AppendEdges(dst)
	}
	return dst
}

func TestTraceCaptureAndReplay(t *testing.T) {
	src := &flicker{g: graph.Cycle(6), on: true}
	tr := Capture(NewDeltifier(src), 3) // snapshots: on, off, on, off
	if tr.Len() != 4 || tr.N() != 6 {
		t.Fatalf("trace shape: len=%d n=%d", tr.Len(), tr.N())
	}
	if len(tr.EdgesAt(0)) != 6 || len(tr.EdgesAt(1)) != 0 {
		t.Fatalf("captured edges wrong: %d, %d", len(tr.EdgesAt(0)), len(tr.EdgesAt(1)))
	}
	rep := tr.Replay()
	if EdgeCount(rep) != 6 {
		t.Fatal("replay snapshot 0 wrong")
	}
	rep.Step()
	if EdgeCount(rep) != 0 {
		t.Fatal("replay snapshot 1 wrong")
	}
	rep.Step()
	if EdgeCount(rep) != 6 {
		t.Fatal("replay snapshot 2 wrong")
	}
	// Stepping past the end freezes the final snapshot.
	rep.Step()
	rep.Step()
	rep.Step()
	if EdgeCount(rep) != 0 {
		t.Fatal("replay should freeze at last snapshot")
	}
}

func TestTraceSerializationRoundTrip(t *testing.T) {
	src := &flicker{g: graph.Grid(3, 3), on: true}
	tr := Capture(NewDeltifier(src), 5)
	var buf bytes.Buffer
	if _, err := tr.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.N() != tr.N() || got.Len() != tr.Len() {
		t.Fatalf("round trip shape mismatch: %d/%d vs %d/%d", got.N(), got.Len(), tr.N(), tr.Len())
	}
	for s := 0; s < tr.Len(); s++ {
		a, b := tr.EdgesAt(s), got.EdgesAt(s)
		if len(a) != len(b) {
			t.Fatalf("step %d edge count mismatch", s)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("step %d edge %d mismatch: %v vs %v", s, i, a[i], b[i])
			}
		}
	}
}

// traceWords encodes a raw trace stream word by word, little-endian.
func traceWords(words ...uint32) []byte {
	var out []byte
	for _, w := range words {
		out = binary.LittleEndian.AppendUint32(out, w)
	}
	return out
}

func TestReadTraceRejectsGarbage(t *testing.T) {
	if _, err := ReadTrace(bytes.NewReader([]byte{1, 2, 3, 4, 5, 6, 7, 8})); err == nil {
		t.Fatal("garbage accepted")
	}
	if _, err := ReadTrace(bytes.NewReader(nil)); err == nil {
		t.Fatal("empty stream accepted")
	}
	// Three nodes have three pairs, so a step cannot list four edges.
	if _, err := ReadTrace(bytes.NewReader(traceWords(traceMagic, 3, 1, 4, 0, 1, 0, 2, 1, 2, 0, 1))); err == nil {
		t.Fatal("step with more edges than pairs accepted")
	}
}

func TestReadTraceTruncatedStreams(t *testing.T) {
	// Failure injection: truncate a valid stream at every prefix length;
	// the reader must error, never panic or return a corrupt trace.
	src := &flicker{g: graph.Grid(3, 3), on: true}
	tr := Capture(NewDeltifier(src), 4)
	var buf bytes.Buffer
	if _, err := tr.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for cut := 0; cut < len(full); cut += 3 {
		if _, err := ReadTrace(bytes.NewReader(full[:cut])); err == nil {
			t.Fatalf("truncated stream of %d/%d bytes accepted", cut, len(full))
		}
	}
}

func TestReadTraceRejectsCorruptEdges(t *testing.T) {
	// Flip the node count down so recorded edges fall out of range.
	src := &flicker{g: graph.Cycle(8), on: true}
	tr := Capture(NewDeltifier(src), 1)
	var buf bytes.Buffer
	if _, err := tr.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	raw[4] = 2 // node count little-endian: 8 -> 2
	if _, err := ReadTrace(bytes.NewReader(raw)); err == nil {
		t.Fatal("out-of-range edges accepted")
	}
}

// completeAdjacency returns the adjacency of the complete graph K_n.
func completeAdjacency(n int) *Adjacency {
	var a Adjacency
	a.Reset(n)
	a.AddEdges(NewStatic(graph.Complete(n)).AppendEdges(nil))
	return &a
}

func TestSubsampleLimitsDegree(t *testing.T) {
	a := completeAdjacency(20)
	r := rng.New(7)
	for i := 0; i < 20; i++ {
		got := a.Sample(i, 3, r, nil)
		if len(got) != 3 {
			t.Fatalf("node %d keeps %d neighbors, want 3", i, len(got))
		}
		seen := map[int32]bool{}
		for _, j := range got {
			if int(j) == i || seen[j] {
				t.Fatalf("node %d: sample %v has a self or repeated neighbor", i, got)
			}
			seen[j] = true
		}
	}
	// Fresh draws on every call: node 0 samples many different subsets.
	subsets := map[[3]int32]bool{}
	for trial := 0; trial < 50; trial++ {
		got := a.Sample(0, 3, r, nil)
		subsets[[3]int32(got)] = true
	}
	if len(subsets) < 10 {
		t.Fatalf("50 draws produced only %d distinct subsets", len(subsets))
	}
}

func TestSubsampleKeepsAllWhenFewNeighbors(t *testing.T) {
	var a Adjacency
	a.Reset(3)
	a.AddEdges(NewStatic(graph.Path(3)).AppendEdges(nil)) // middle node has 2 neighbors
	r := rng.New(13)
	before := *r
	if got := a.Sample(1, 5, r, nil); len(got) != 2 {
		t.Fatalf("should keep all 2 neighbors, kept %v", got)
	}
	if *r != before {
		t.Fatal("keeping every neighbor consumed random draws")
	}
}

func TestSubsamplePanicsOnBadK(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("k=0 did not panic")
		}
	}()
	completeAdjacency(3).Sample(0, 0, rng.New(1), nil)
}

func TestTracePanics(t *testing.T) {
	func() {
		defer func() {
			if recover() == nil {
				t.Error("NewTrace(0) did not panic")
			}
		}()
		NewTrace(0)
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("mismatched Record did not panic")
			}
		}()
		tr := NewTrace(3)
		tr.Record(NewStatic(graph.Cycle(5)))
	}()
}
