package dyngraph

import (
	"bytes"
	"slices"
	"testing"

	"repro/internal/graph"
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
