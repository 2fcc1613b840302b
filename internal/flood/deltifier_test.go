package flood

import (
	"slices"

	"repro/internal/dyngraph"
)

// Snapshotter is a toy graph that can report only its current snapshot.
type Snapshotter interface {
	N() int
	Step()
	AppendEdges(dst []dyngraph.Edge) []dyngraph.Edge
}

// Deltifier is the test-side snapshot adapter: it turns a Snapshotter into
// a dyngraph.Dynamic by diffing consecutive sorted snapshot batches, at
// O(m log m) per step. Tests run toy graphs through it and use it as the
// oracle for models' native delta streams. The wrapper owns the clock.
type Deltifier struct {
	s         Snapshotter
	prev, cur []dyngraph.Edge
	stepped   bool
}

// NewDeltifier wraps s, capturing its current snapshot.
func NewDeltifier(s Snapshotter) *Deltifier {
	return &Deltifier{s: s, cur: sortEdges(s.AppendEdges(nil))}
}

func sortEdges(edges []dyngraph.Edge) []dyngraph.Edge {
	slices.SortFunc(edges, compareEdges)
	return edges
}

func compareEdges(a, b dyngraph.Edge) int {
	if a.U != b.U {
		return int(a.U) - int(b.U)
	}
	return int(a.V) - int(b.V)
}

func (df *Deltifier) N() int { return df.s.N() }

func (df *Deltifier) Step() {
	df.s.Step()
	df.prev, df.cur = df.cur, sortEdges(df.s.AppendEdges(df.prev[:0]))
	df.stepped = true
}

func (df *Deltifier) AppendEdges(dst []dyngraph.Edge) []dyngraph.Edge {
	return append(dst, df.cur...)
}

// AppendDeltas merges the sorted snapshots before and after the last Step.
func (df *Deltifier) AppendDeltas(born, died []dyngraph.Edge) (b, d []dyngraph.Edge) {
	if !df.stepped {
		return born, died
	}
	i, j := 0, 0
	for i < len(df.prev) && j < len(df.cur) {
		switch c := compareEdges(df.prev[i], df.cur[j]); {
		case c == 0:
			i++
			j++
		case c < 0:
			died = append(died, df.prev[i])
			i++
		default:
			born = append(born, df.cur[j])
			j++
		}
	}
	return append(born, df.cur[j:]...), append(died, df.prev[i:]...)
}
