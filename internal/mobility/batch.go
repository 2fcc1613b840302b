package mobility

import (
	"repro/internal/dyngraph"
	"repro/internal/geometry"
)

// appendCellEdges converts the cell list's pair enumeration into dyngraph
// edges. The cell list checks each candidate pair once, so producing the
// whole snapshot costs half of what per-node radius queries from every
// node would; the pair scratch lives in the cell list itself, so warm
// batches never reallocate.
func appendCellEdges(cells *geometry.CellList, dst []dyngraph.Edge) []dyngraph.Edge {
	for _, p := range cells.Pairs() {
		dst = append(dst, dyngraph.Edge{U: p[0], V: p[1]})
	}
	return dst
}

// AppendEdges implements dyngraph.Dynamic via the cell list.
func (w *Waypoint) AppendEdges(dst []dyngraph.Edge) []dyngraph.Edge {
	return appendCellEdges(w.cells, dst)
}

// AppendEdges implements dyngraph.Dynamic via the cell list.
func (d *Direction) AppendEdges(dst []dyngraph.Edge) []dyngraph.Edge {
	return appendCellEdges(d.cells, dst)
}

// AppendEdges implements dyngraph.Dynamic via the cell list.
func (w *RegionWaypoint) AppendEdges(dst []dyngraph.Edge) []dyngraph.Edge {
	return appendCellEdges(w.cells, dst)
}
