package geometry

import "math"

// CellList is a uniform-grid spatial index over a fixed set of points in a
// rectangle, supporting neighbor queries within a radius r in O(1) expected
// time per reported neighbor. It maintains a persistent node→cell
// assignment with per-cell member lists, so a step that moves k points
// costs O(k) index maintenance via Move instead of the O(n) Rebuild the
// batch path pays. Construction allocates once; Rebuild and Move reuse all
// storage.
//
// The cell side equals the query radius, so a radius query only inspects the
// 3x3 block of cells around the query point.
type CellList struct {
	rect    Rect
	r       float64
	cols    int
	rows    int
	members [][]int32  // per-cell member lists, order unspecified
	slot    []int32    // position of point i inside members[cell[i]]
	cell    []int32    // cell id per point
	pts     []Point    // the indexed points (caller-owned copy semantics: stored by value)
	pairs   [][2]int32 // scratch for Pairs
}

// NewCellList builds an index over pts within rect for radius-r queries.
// It panics if r <= 0 or the rectangle is degenerate.
func NewCellList(rect Rect, r float64, pts []Point) *CellList {
	if r <= 0 {
		panic("geometry: NewCellList needs r > 0")
	}
	if rect.W() <= 0 || rect.H() <= 0 {
		panic("geometry: NewCellList needs a non-degenerate rect")
	}
	cols := int(math.Ceil(rect.W() / r))
	rows := int(math.Ceil(rect.H() / r))
	if cols < 1 {
		cols = 1
	}
	if rows < 1 {
		rows = 1
	}
	c := &CellList{
		rect:    rect,
		r:       r,
		cols:    cols,
		rows:    rows,
		members: make([][]int32, cols*rows),
		slot:    make([]int32, len(pts)),
		cell:    make([]int32, len(pts)),
		pts:     make([]Point, len(pts)),
	}
	c.Rebuild(pts)
	// Reserve slack: a cell's member list grows in Move whenever the cell
	// exceeds its all-time-high occupancy, and with many cells those maxima
	// keep trickling in for thousands of steps (extreme-value creep), each
	// costing an allocation. Generous capacity over the build-time
	// occupancy makes later crossings rare enough that warm steps are
	// allocation-free in practice, even where the stationary density runs
	// well above the build-time draw (the waypoint center bias).
	for id, m := range c.members {
		if want := 4*len(m) + 16; cap(m) < want {
			grown := make([]int32, len(m), want)
			copy(grown, m)
			c.members[id] = grown
		}
	}
	return c
}

// Rebuild reindexes the (possibly moved) points from scratch. len(pts) must
// equal the original point count. Member-list capacities are retained, so a
// warm Rebuild allocates nothing.
func (c *CellList) Rebuild(pts []Point) {
	if len(pts) != len(c.pts) {
		panic("geometry: Rebuild with different point count")
	}
	copy(c.pts, pts)
	for i := range c.members {
		c.members[i] = c.members[i][:0]
	}
	for i, p := range c.pts {
		id := c.cellOf(p)
		c.cell[i] = id
		c.slot[i] = int32(len(c.members[id]))
		c.members[id] = append(c.members[id], int32(i))
	}
}

// Move updates point i to position p, maintaining the index incrementally:
// a same-cell move only updates the stored position, and a cell transition
// swap-removes i from its old cell's member list and appends it to the new
// one — O(1) either way.
func (c *CellList) Move(i int, p Point) {
	c.pts[i] = p
	old := c.cell[i]
	id := c.cellOf(p)
	if id == old {
		return
	}
	// Swap-remove from the old cell.
	m := c.members[old]
	k := c.slot[i]
	last := int32(len(m) - 1)
	moved := m[last]
	m[k] = moved
	c.slot[moved] = k
	c.members[old] = m[:last]
	// Append to the new cell.
	c.cell[i] = id
	c.slot[i] = int32(len(c.members[id]))
	c.members[id] = append(c.members[id], int32(i))
}

// Position returns the indexed position of point i.
func (c *CellList) Position(i int) Point { return c.pts[i] }

// cellOf maps a point (clamped into the rectangle) to its cell id.
func (c *CellList) cellOf(p Point) int32 {
	p = c.rect.Clamp(p)
	col := int((p.X - c.rect.X0) / c.r)
	row := int((p.Y - c.rect.Y0) / c.r)
	if col >= c.cols {
		col = c.cols - 1
	}
	if row >= c.rows {
		row = c.rows - 1
	}
	return int32(row*c.cols + col)
}

// AppendPairsWithin appends every unordered pair {i, j} of indexed points
// within the query radius to dst, normalized to i < j, each pair exactly
// once. It scans each cell against itself and a half stencil of its
// neighbors, so every candidate pair is distance-checked once — half the
// work of querying AppendWithin from every point.
func (c *CellList) AppendPairsWithin(dst [][2]int32) [][2]int32 {
	r2 := c.r * c.r
	// Half stencil: E, SW, S, SE. Together with the same-cell pass this
	// covers each unordered cell pair once.
	stencil := [4][2]int{{0, 1}, {1, -1}, {1, 0}, {1, 1}}
	for row := 0; row < c.rows; row++ {
		for col := 0; col < c.cols; col++ {
			m := c.members[row*c.cols+col]
			for a, i := range m {
				pi := c.pts[i]
				for _, j := range m[a+1:] {
					if Dist2(pi, c.pts[j]) <= r2 {
						dst = append(dst, orderPair(i, j))
					}
				}
				for _, off := range stencil {
					nr, nc := row+off[0], col+off[1]
					if nr >= c.rows || nc < 0 || nc >= c.cols {
						continue
					}
					for _, j := range c.members[nr*c.cols+nc] {
						if Dist2(pi, c.pts[j]) <= r2 {
							dst = append(dst, orderPair(i, j))
						}
					}
				}
			}
		}
	}
	return dst
}

// Pairs returns the current within-radius pairs via AppendPairsWithin into
// an internal scratch buffer reused across calls, so warm callers (the
// mobility models' AppendEdges) never reallocate. The returned slice is
// invalidated by the next Pairs call and must not be retained or modified.
func (c *CellList) Pairs() [][2]int32 {
	c.pairs = c.AppendPairsWithin(c.pairs[:0])
	return c.pairs
}

func orderPair(i, j int32) [2]int32 {
	if i < j {
		return [2]int32{i, j}
	}
	return [2]int32{j, i}
}

// AppendWithin appends every indexed point j != i within the query radius
// of point i to dst, scanning the 3×3 block of cells around it row by row.
func (c *CellList) AppendWithin(i int, dst []int32) []int32 {
	p := c.pts[i]
	id := int(c.cell[i])
	row := id / c.cols
	col := id % c.cols
	r2 := c.r * c.r
	for dr := -1; dr <= 1; dr++ {
		nr := row + dr
		if nr < 0 || nr >= c.rows {
			continue
		}
		for dc := -1; dc <= 1; dc++ {
			nc := col + dc
			if nc < 0 || nc >= c.cols {
				continue
			}
			for _, j := range c.members[nr*c.cols+nc] {
				if int(j) != i && Dist2(p, c.pts[j]) <= r2 {
					dst = append(dst, j)
				}
			}
		}
	}
	return dst
}

// Len returns the number of indexed points.
func (c *CellList) Len() int { return len(c.pts) }
