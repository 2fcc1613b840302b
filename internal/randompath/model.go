// Package randompath implements the random paths mobility model
// RP = (H, P) of Section 4.1: nodes travel along paths drawn from a fixed
// feasible family P of simple paths of a mobility graph H, choosing
// uniformly among the paths leaving their current endpoint; two nodes are
// connected when their points are within hop distance r in H
// (HopConnection; r = 0 means the same point). The random walk over H is
// the special case where P is the edge set.
//
// The package provides the path-family builders used in the experiments
// (edge families, L-shaped shortest paths on grids, congested star
// families), the per-node Markov chain of the node-MEG realization, the
// point-congestion statistics #P(u) and δ-regularity of Corollary 5, and
// the simplicity/reversibility checks under which the chain's stationary
// distribution is uniform (Markov trace models, Theorem 11 of [14]).
package randompath

import (
	"errors"
	"fmt"

	"repro/internal/graph"
	"repro/internal/markov"
)

// Path is a sequence of at least two points, consecutive ones adjacent
// in the mobility graph.
type Path []int32

// Model is a validated random-path model RP = (H, P).
type Model struct {
	h       *graph.Graph
	paths   []Path
	startAt [][]int32 // path indices starting at each point
	// State space: states are (path, position) pairs with position in
	// [1, len(path)) (the paper indexes 2..ℓ(h); we use 0-based slices).
	// stateOf[p] is the id of path p's first state (position 1).
	stateOf []int32
	nstates int
	pointOf []int32   // state -> point
	byPoint [][]int32 // point -> states at that point
}

// New validates and indexes a random-path model. Requirements:
//   - every path has length >= 2 and consecutive points adjacent in h;
//   - every path's endpoint has at least one outgoing path (the closure
//     property "there is a path h' ∈ P such that h' starts where h ends").
func New(h *graph.Graph, paths []Path) (*Model, error) {
	if len(paths) == 0 {
		return nil, errors.New("randompath: empty path family")
	}
	m := &Model{
		h:       h,
		paths:   paths,
		startAt: make([][]int32, h.N()),
		stateOf: make([]int32, len(paths)),
	}
	for pi, p := range paths {
		if len(p) < 2 {
			return nil, fmt.Errorf("randompath: path %d has %d points, need >= 2", pi, len(p))
		}
		for k := 0; k < len(p); k++ {
			if p[k] < 0 || int(p[k]) >= h.N() {
				return nil, fmt.Errorf("randompath: path %d visits invalid point %d", pi, p[k])
			}
			if k > 0 && !h.HasEdge(int(p[k-1]), int(p[k])) {
				return nil, fmt.Errorf("randompath: path %d step %d-%d is not an edge of H", pi, p[k-1], p[k])
			}
		}
		m.startAt[p[0]] = append(m.startAt[p[0]], int32(pi))
	}
	for pi, p := range paths {
		end := p[len(p)-1]
		if len(m.startAt[end]) == 0 {
			return nil, fmt.Errorf("randompath: no path starts at point %d, the endpoint of path %d", end, pi)
		}
	}
	// Enumerate states.
	for pi, p := range paths {
		m.stateOf[pi] = int32(m.nstates)
		m.nstates += len(p) - 1
	}
	m.pointOf = make([]int32, m.nstates)
	m.byPoint = make([][]int32, h.N())
	for pi, p := range paths {
		base := int(m.stateOf[pi])
		for k := 1; k < len(p); k++ {
			s := base + k - 1
			m.pointOf[s] = p[k]
			m.byPoint[p[k]] = append(m.byPoint[p[k]], int32(s))
		}
	}
	return m, nil
}

// H returns the mobility graph.
func (m *Model) H() *graph.Graph { return m.h }

// Paths returns the path family (shared storage; do not modify).
func (m *Model) Paths() []Path { return m.paths }

// NumStates returns |S| of the node-MEG realization.
func (m *Model) NumStates() int { return m.nstates }

// PointOfState returns the grid point a state occupies.
func (m *Model) PointOfState(s int) int { return int(m.pointOf[s]) }

// IsSimple reports whether every path visits no point twice, except that
// the start and end points may coincide (the paper's definition).
func (m *Model) IsSimple() bool {
	seen := make(map[int32]int)
	for _, p := range m.paths {
		clear(seen)
		for k, pt := range p {
			if prev, dup := seen[pt]; dup {
				// Allowed only for start == end.
				if !(prev == 0 && k == len(p)-1) {
					return false
				}
			}
			seen[pt] = k
		}
	}
	return true
}

// IsReversible reports whether the reverse of every path is in the family.
func (m *Model) IsReversible() bool {
	index := make(map[string]bool, len(m.paths))
	for _, p := range m.paths {
		index[pathKey(p)] = true
	}
	rev := make(Path, 0, 64)
	for _, p := range m.paths {
		rev = rev[:0]
		for k := len(p) - 1; k >= 0; k-- {
			rev = append(rev, p[k])
		}
		if !index[pathKey(rev)] {
			return false
		}
	}
	return true
}

func pathKey(p Path) string {
	// Paths are small; a byte-packed key is fine and avoids a custom
	// comparable wrapper.
	buf := make([]byte, 0, len(p)*4)
	for _, v := range p {
		buf = append(buf, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
	}
	return string(buf)
}

// Congestion returns #P(u) for every point u: the number of paths passing
// through u at some position 2..ℓ(h) (the paper's definition, which counts
// the end point but not the start point).
func (m *Model) Congestion() []int {
	c := make([]int, m.h.N())
	for u := range c {
		c[u] = len(m.byPoint[u])
	}
	// byPoint counts states, which are exactly (path, position>=2) pairs —
	// but a path visiting u twice (start==end case) still contributes one
	// state per visit. The paper counts paths, so deduplicate per path.
	for u := range c {
		c[u] = 0
	}
	counted := make(map[[2]int32]bool)
	for pi, p := range m.paths {
		for k := 1; k < len(p); k++ {
			key := [2]int32{int32(pi), p[k]}
			if !counted[key] {
				counted[key] = true
				c[p[k]]++
			}
		}
	}
	return c
}

// DeltaRegularity returns the smallest δ for which the family is δ-regular:
// max_u #P(u) / (Σ_v #P(v) / |V|).
func (m *Model) DeltaRegularity() float64 {
	c := m.Congestion()
	max, total := 0, 0
	for _, v := range c {
		total += v
		if v > max {
			max = v
		}
	}
	if total == 0 {
		return 0
	}
	avg := float64(total) / float64(len(c))
	return float64(max) / avg
}

// Chain builds the sparse per-node Markov chain M_RP of the node-MEG
// realization: deterministic advancement inside a path, uniform choice
// among P(endpoint) at the end.
func (m *Model) Chain() *markov.Sparse {
	b := markov.NewSparseBuilder(m.nstates)
	for pi, p := range m.paths {
		base := int(m.stateOf[pi])
		last := len(p) - 2 // index of the final state of this path
		for k := 0; k < last; k++ {
			b.Set(base+k, base+k+1, 1)
		}
		// End of path: jump to position 1 of a uniform outgoing path.
		end := p[len(p)-1]
		outgoing := m.startAt[end]
		prob := 1 / float64(len(outgoing))
		for _, qi := range outgoing {
			b.Set(base+last, int(m.stateOf[qi]), prob)
		}
	}
	return b.MustBuild()
}
