package dyngraph

import (
	"bytes"
	"slices"
	"testing"

	"repro/internal/graph"
	"repro/internal/rng"
)

// FuzzReadTrace feeds ReadTrace arbitrary streams. Every input must give
// an error or a trace that WriteTo encodes back to the bytes it was read
// from and that reads back equal; none may panic, and no header may make
// the reader allocate more than the stream carries.
func FuzzReadTrace(f *testing.F) {
	var buf bytes.Buffer
	if _, err := Capture(NewDeltifier(&flicker{g: graph.Grid(3, 3), on: true}), 3).WriteTo(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add(traceWords(traceMagic, 10, 1, 0xFFFFFFF0))
	f.Add(traceWords(traceMagic, 3, 1, 4, 0, 1, 0, 2, 1, 2, 0, 1))
	f.Add(traceWords(traceMagic, 2, 3, 0, 1, 0, 1, 0))
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := ReadTrace(bytes.NewReader(data))
		if err != nil {
			return
		}
		var out bytes.Buffer
		if _, err := tr.WriteTo(&out); err != nil {
			t.Fatal(err)
		}
		if !bytes.HasPrefix(data, out.Bytes()) {
			t.Fatalf("WriteTo gave %x, not a prefix of the input %x", out.Bytes(), data)
		}
		back, err := ReadTrace(&out)
		if err != nil {
			t.Fatalf("re-reading the written trace: %v", err)
		}
		if back.N() != tr.N() || back.Len() != tr.Len() {
			t.Fatalf("round trip shape %d/%d, want %d/%d", back.N(), back.Len(), tr.N(), tr.Len())
		}
		for s := 0; s < tr.Len(); s++ {
			if !slices.Equal(back.EdgesAt(s), tr.EdgesAt(s)) {
				t.Fatalf("step %d: round trip %v, want %v", s, back.EdgesAt(s), tr.EdgesAt(s))
			}
		}
	})
}

// FuzzAdjacencyApply checks Apply against the per-edge reference on
// byte-chosen graphs and churn: one store takes each step through Apply,
// the other takes RemoveEdge per died edge, then AddEdge per born edge, in
// batch order. After every step both must hold the same lists, element by
// element, on both sides of Apply's switch between per-edge and
// node-by-node removal.
//
// The first byte picks n in [2, 64], the next two a shuffle seed and an
// edge density for the seed graph. Every further three bytes are one
// step: how many present edges die, how many absent edges are born, and
// the seed of the shuffle that picks them and orders each batch.
func FuzzAdjacencyApply(f *testing.F) {
	f.Add([]byte{62, 1, 128, 200, 10, 3, 5, 5, 4, 255, 255, 5})
	f.Add([]byte{2, 7, 255, 2, 0, 1, 3, 2, 2, 1, 0, 3})
	f.Add([]byte{0, 1, 255, 1, 0, 0, 0, 1, 0, 1, 0, 0})
	f.Add([]byte{14, 3, 40, 6, 6, 1, 30, 2, 2, 0, 0, 0, 90, 90, 4})
	f.Add([]byte{62, 9, 20, 3, 3, 1, 4, 4, 2, 40, 1, 3, 2, 60, 4})
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return int(b)
		}
		n := 2 + next()%63
		r := rng.New(uint64(next()))
		density := next()
		var present, absent []Edge
		for u := int32(0); u < int32(n); u++ {
			for v := u + 1; v < int32(n); v++ {
				if r.Intn(256) < density {
					present = append(present, Edge{u, v})
				} else {
					absent = append(absent, Edge{u, v})
				}
			}
		}
		var got, want Adjacency
		got.Reset(n)
		want.Reset(n)
		got.AddEdges(present)
		want.AddEdges(present)
		for step := 0; len(data) > 0; step++ {
			died := next() % (len(present) + 1)
			born := next() % (len(absent) + 1)
			r.Reseed(uint64(next()))
			r.Shuffle(len(present), func(i, j int) { present[i], present[j] = present[j], present[i] })
			r.Shuffle(len(absent), func(i, j int) { absent[i], absent[j] = absent[j], absent[i] })
			d := slices.Clone(present[:died])
			b := slices.Clone(absent[:born])
			got.Apply(b, d)
			for _, e := range d {
				want.RemoveEdge(e.U, e.V)
			}
			for _, e := range b {
				want.AddEdge(e.U, e.V)
			}
			for i := 0; i < n; i++ {
				if !slices.Equal(got.Neighbors(i), want.Neighbors(i)) {
					t.Fatalf("n=%d step %d (%d died, %d born): Neighbors(%d) = %v, per-edge reference %v",
						n, step, died, born, i, got.Neighbors(i), want.Neighbors(i))
				}
			}
			present = append(present[died:], b...)
			absent = append(absent[born:], d...)
		}
	})
}
