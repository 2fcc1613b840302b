package mobility

import (
	"repro/internal/dyngraph"
	"repro/internal/geometry"
)

// plane is the core the continuous mobility models (Waypoint, Direction)
// embed: it owns the node positions, the cell list over them and the
// O(moved × local density) churn engine behind their dyngraph.Dynamic
// implementation, so a model supplies only its kinematics. An edge can
// only flip when an endpoint moved, so each step compares the old and new
// within-radius sets of just the moved nodes against the 3×3 cell
// neighborhood instead of diffing full snapshots (an O(m log m)
// sort-merge):
//
//  1. the model's Step stages every node's new position into next
//     (writing next[i] == pos[i] for nodes that stay put), preserving its
//     exact RNG draw order, and calls commit;
//  2. pass A, against the still-old cell list: for every moved i, each old
//     neighbor j (old distance ≤ R) whose new distance exceeds R is a died
//     edge;
//  3. the moves are applied: pos and prev, then one cell-list Update,
//     which rewrites in-cell moves in place and, once any node crosses a
//     cell border, re-lays the cell-major index in one O(n + cells) pass
//     that keeps the member order a node-by-node move would leave (staging
//     and the moved scan already visit all n nodes, so the pass adds no
//     order to the step);
//  4. pass B, against the updated cell list: for every moved i, each new
//     neighbor j (new distance ≤ R) whose old distance exceeded R is a
//     born edge.
//
// Pairs where both endpoints moved are seen from both sides; the ascending
// scan dedupes them by skipping the candidate j when movedF[j] && j < i
// (the pair was classified at the smaller index). Born requires an old
// distance > R and died an old distance ≤ R, so the batches are disjoint,
// and both passes run entirely before/after the apply step, so each pass
// sees one consistent configuration. All buffers persist across steps:
// warm steps allocate nothing.
type plane struct {
	pos    []geometry.Point
	cells  *geometry.CellList
	r2     float64          // squared connection radius (the cell list's query radius)
	next   []geometry.Point // staged post-step positions, all nodes
	prev   []geometry.Point // pre-step positions, valid where movedF
	moved  []int32          // nodes whose position changed this step, ascending
	movedF []bool           // membership flags for moved
	nbrs   []int32          // cell-query scratch
	born   []dyngraph.Edge
	died   []dyngraph.Edge
	// stepped gates AppendDeltas: before the first Step the batches are
	// empty by the DeltaBatcher contract.
	stepped bool
}

// index builds the cell list over the initial positions in pos, for
// radius-r connections within bounds.
func (p *plane) index(bounds geometry.Rect, r float64) {
	p.cells = geometry.NewCellList(bounds, r, p.pos)
	p.r2 = r * r
	n := len(p.pos)
	p.next = make([]geometry.Point, n)
	p.prev = make([]geometry.Point, n)
	p.movedF = make([]bool, n)
}

// commit classifies the staged step's churn into born/died and applies the
// moves to pos and the cell list.
func (p *plane) commit() {
	pos, next, prev, movedF, cells, r2 := p.pos, p.next, p.prev, p.movedF, p.cells, p.r2
	p.moved = p.moved[:0]
	p.born, p.died = p.born[:0], p.died[:0]
	for i, q := range pos {
		if next[i] != q {
			movedF[i] = true
			p.moved = append(p.moved, int32(i))
		}
	}
	// Pass A (died): old neighbors of each moved node, old configuration.
	for _, i := range p.moved {
		p.nbrs = cells.AppendWithin(int(i), p.nbrs[:0])
		for _, j := range p.nbrs {
			if movedF[j] && j < i {
				continue
			}
			if geometry.Dist2(next[i], next[j]) > r2 {
				p.died = append(p.died, orderEdge(i, j))
			}
		}
	}
	// Apply: positions, then the cell list in one order-preserving pass.
	for _, i := range p.moved {
		prev[i] = pos[i]
		pos[i] = next[i]
	}
	cells.Update(p.moved, next)
	// Pass B (born): new neighbors of each moved node, new configuration.
	// For an unmoved candidate j the old position is pos[j] (unchanged);
	// for a moved one it is prev[j].
	for _, i := range p.moved {
		p.nbrs = cells.AppendWithin(int(i), p.nbrs[:0])
		for _, j := range p.nbrs {
			if movedF[j] && j < i {
				continue
			}
			oldJ := pos[j]
			if movedF[j] {
				oldJ = prev[j]
			}
			if geometry.Dist2(prev[i], oldJ) > r2 {
				p.born = append(p.born, orderEdge(i, j))
			}
		}
	}
	for _, i := range p.moved {
		movedF[i] = false
	}
	p.stepped = true
}

func orderEdge(i, j int32) dyngraph.Edge {
	if i < j {
		return dyngraph.Edge{U: i, V: j}
	}
	return dyngraph.Edge{U: j, V: i}
}

// N implements dyngraph.Dynamic.
func (p *plane) N() int { return len(p.pos) }

// Positions returns the current node positions; the slice is shared and
// must not be modified.
func (p *plane) Positions() []geometry.Point { return p.pos }

// AppendEdges implements dyngraph.Dynamic from the cell list's pair
// enumeration, which checks each candidate pair once; the pair scratch
// lives in the cell list, so warm calls never reallocate.
func (p *plane) AppendEdges(dst []dyngraph.Edge) []dyngraph.Edge {
	for _, e := range p.cells.Pairs() {
		dst = append(dst, dyngraph.Edge{U: e[0], V: e[1]})
	}
	return dst
}

// AppendDeltas implements dyngraph.DeltaBatcher with the retained batches
// of the last step; idempotent between steps.
func (p *plane) AppendDeltas(born, died []dyngraph.Edge) (b, d []dyngraph.Edge) {
	if !p.stepped {
		return born, died
	}
	return append(born, p.born...), append(died, p.died...)
}

// MovedLastStep implements dyngraph.MoveReporter: the number of nodes that
// changed position in the most recent step (0 before the first step).
func (p *plane) MovedLastStep() int { return len(p.moved) }
