package mobility

import (
	"repro/internal/dyngraph"
	"repro/internal/geometry"
)

// geomDelta is the shared O(moved × local density) churn engine behind the
// native dyngraph.DeltaBatcher implementations of the continuous mobility
// models (Waypoint, Direction, RegionWaypoint). An edge can only flip when
// an endpoint moved, so each step compares the old and new within-radius
// sets of just the moved nodes against the 3×3 cell neighborhood instead of
// diffing full snapshots (an O(m log m) sort-merge):
//
//  1. the model stages every node's new position into next (writing
//     next[i] == pos[i] for nodes that stay put), preserving its exact RNG
//     draw order;
//  2. pass A, against the still-old cell list: for every moved i, each old
//     neighbor j (old distance ≤ R) whose new distance exceeds R is a died
//     edge;
//  3. the moves are applied — pos, prev, and the cell list's incremental
//     Move — touching O(moved) index state;
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
type geomDelta struct {
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

// stage sizes the buffers for n nodes and returns the next-position buffer
// the model's step loop writes into. Nodes that do not move must be staged
// at their current position.
func (g *geomDelta) stage(n int) []geometry.Point {
	if cap(g.next) < n {
		g.next = make([]geometry.Point, n)
		g.prev = make([]geometry.Point, n)
		g.movedF = make([]bool, n)
	}
	return g.next[:n]
}

// commit classifies the staged step's churn into born/died and applies the
// moves to pos and cells. r2 is the squared connection radius (equal to the
// cell list's query radius).
func (g *geomDelta) commit(pos []geometry.Point, cells *geometry.CellList, r2 float64) {
	next := g.next[:len(pos)]
	prev := g.prev[:len(pos)]
	movedF := g.movedF[:len(pos)]
	g.moved = g.moved[:0]
	g.born, g.died = g.born[:0], g.died[:0]
	for i, p := range pos {
		if next[i] != p {
			movedF[i] = true
			g.moved = append(g.moved, int32(i))
		}
	}
	// Pass A (died): old neighbors of each moved node, old configuration.
	for _, i := range g.moved {
		g.nbrs = cells.AppendWithin(int(i), g.nbrs[:0])
		for _, j := range g.nbrs {
			if movedF[j] && j < i {
				continue
			}
			if geometry.Dist2(next[i], next[j]) > r2 {
				g.died = append(g.died, orderEdge(i, j))
			}
		}
	}
	// Apply: positions and incremental cell maintenance, O(moved).
	for _, i := range g.moved {
		prev[i] = pos[i]
		pos[i] = next[i]
		cells.Move(int(i), next[i])
	}
	// Pass B (born): new neighbors of each moved node, new configuration.
	// For an unmoved candidate j the old position is pos[j] (unchanged);
	// for a moved one it is prev[j].
	for _, i := range g.moved {
		g.nbrs = cells.AppendWithin(int(i), g.nbrs[:0])
		for _, j := range g.nbrs {
			if movedF[j] && j < i {
				continue
			}
			oldJ := pos[j]
			if movedF[j] {
				oldJ = prev[j]
			}
			if geometry.Dist2(prev[i], oldJ) > r2 {
				g.born = append(g.born, orderEdge(i, j))
			}
		}
	}
	for _, i := range g.moved {
		movedF[i] = false
	}
	g.stepped = true
}

// appendDeltas serves the retained batches; idempotent between steps.
func (g *geomDelta) appendDeltas(born, died []dyngraph.Edge) (b, d []dyngraph.Edge) {
	if !g.stepped {
		return born, died
	}
	return append(born, g.born...), append(died, g.died...)
}

// movedLastStep reports how many nodes changed position in the most recent
// step (0 before the first step).
func (g *geomDelta) movedLastStep() int { return len(g.moved) }

func orderEdge(i, j int32) dyngraph.Edge {
	if i < j {
		return dyngraph.Edge{U: i, V: j}
	}
	return dyngraph.Edge{U: j, V: i}
}

// AppendDeltas implements dyngraph.DeltaBatcher.
func (w *Waypoint) AppendDeltas(born, died []dyngraph.Edge) (b, d []dyngraph.Edge) {
	return w.delta.appendDeltas(born, died)
}

// MovedLastStep implements dyngraph.MoveReporter.
func (w *Waypoint) MovedLastStep() int { return w.delta.movedLastStep() }

// AppendDeltas implements dyngraph.DeltaBatcher.
func (d *Direction) AppendDeltas(born, died []dyngraph.Edge) (b, dd []dyngraph.Edge) {
	return d.delta.appendDeltas(born, died)
}

// MovedLastStep implements dyngraph.MoveReporter.
func (d *Direction) MovedLastStep() int { return d.delta.movedLastStep() }

// AppendDeltas implements dyngraph.DeltaBatcher.
func (w *RegionWaypoint) AppendDeltas(born, died []dyngraph.Edge) (b, d []dyngraph.Edge) {
	return w.delta.appendDeltas(born, died)
}

// MovedLastStep implements dyngraph.MoveReporter.
func (w *RegionWaypoint) MovedLastStep() int { return w.delta.movedLastStep() }
