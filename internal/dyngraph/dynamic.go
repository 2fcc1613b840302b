// Package dyngraph defines the discrete-time dynamic graph contract that
// every model in this repository implements (edge-MEGs, node-MEGs, mobility
// models, random-path models) and that every spreading engine consumes,
// plus the engine-owned neighbor store (Adjacency, kept current by a
// Tracker), trace recording and replay.
package dyngraph

import "repro/internal/graph"

// Dynamic is a discrete-time dynamic graph G([n], {E_t}) on the vertex set
// {0, ..., n-1}: the one contract between models and engines. A model
// exposes its current snapshot E_t once, as a flat edge batch, and from
// then on only the churn of each Step; consumers never query a model's
// neighbors. They keep their own Adjacency current through a Tracker.
//
// Implementations are deterministic given their seed, and are not safe for
// concurrent use: parallel experiments construct one instance per worker.
type Dynamic interface {
	// N returns the number of nodes.
	N() int
	// Step advances the process one time unit.
	Step()
	// AppendEdges appends every edge of the current snapshot to dst exactly
	// once, normalized to U < V, in an unspecified but deterministic order,
	// and returns the extended slice. Engines call it only to seed their
	// adjacency; implementations must not retain dst.
	AppendEdges(dst []Edge) []Edge
	DeltaBatcher
}

// AppendEdges appends the current snapshot's edges of d to dst: shorthand
// for d.AppendEdges(dst).
func AppendEdges(d Dynamic, dst []Edge) []Edge { return d.AppendEdges(dst) }

// Static adapts a fixed graph.Graph as a Dynamic whose snapshot never
// changes. It is the degenerate baseline in experiments (a dynamic graph
// with mixing time 0) and a convenience in tests.
type Static struct {
	g *graph.Graph
}

// NewStatic wraps g.
func NewStatic(g *graph.Graph) *Static { return &Static{g: g} }

// N implements Dynamic.
func (s *Static) N() int { return s.g.N() }

// Step implements Dynamic; the snapshot is constant.
func (s *Static) Step() {}

// AppendEdges implements Dynamic.
func (s *Static) AppendEdges(dst []Edge) []Edge {
	n := s.g.N()
	for i := 0; i < n; i++ {
		for _, j := range s.g.Neighbors(i) {
			if int32(i) < j {
				dst = append(dst, Edge{int32(i), j})
			}
		}
	}
	return dst
}

// AppendDeltas implements DeltaBatcher: a static snapshot never churns, so
// delta consumers pay exactly nothing per step.
func (s *Static) AppendDeltas(born, died []Edge) (b, d []Edge) {
	return born, died
}

// Graph returns the wrapped static graph.
func (s *Static) Graph() *graph.Graph { return s.g }

// Snapshot materializes the current snapshot of d as a static graph. It
// costs O(n + m) and is used by observers and stationarity estimators.
func Snapshot(d Dynamic) *graph.Graph {
	b := graph.NewBuilder(d.N())
	for _, e := range d.AppendEdges(nil) {
		b.AddEdge(int(e.U), int(e.V))
	}
	return b.Build()
}

// EdgeCount returns the number of edges in the current snapshot.
func EdgeCount(d Dynamic) int { return len(d.AppendEdges(nil)) }

// AverageDegreeOver advances d by steps and returns the average per-node
// degree across all visited snapshots (including the initial one).
func AverageDegreeOver(d Dynamic, steps int) float64 {
	total := 0
	for t := 0; t <= steps; t++ {
		total += 2 * EdgeCount(d)
		if t < steps {
			d.Step()
		}
	}
	return float64(total) / float64(d.N()*(steps+1))
}
