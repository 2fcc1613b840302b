package geometry

import "math"

// CellList is a uniform-grid spatial index over a fixed set of points in a
// rectangle, supporting neighbor queries within a radius r in O(1) expected
// time per reported neighbor.
//
// The index is cell-major: start, ids and pts hold every cell's members and
// their positions in one contiguous run per cell, cells in row-major order,
// so the 3×3 block around a query point is three contiguous row runs with
// the positions inline. Each point keeps its cell and its slot, its offset
// in that cell's run.
//
// Member order is part of the contract, because queries report candidates
// in run order and the mobility models' churn batches inherit it. Rebuild
// lays every cell's members in ascending index. Update leaves every cell
// exactly as moving the points one at a time in ascending index would,
// where a move across cells swap-removes the point from its old cell (the
// cell's last member takes its slot) and appends it to the new one.
//
// The cell side equals the query radius, so a radius query only inspects
// the 3×3 block of cells around the query point. Where that grid would
// exceed max(4n, 2¹⁶) cells the side widens until the grid fits; a 3×3
// block of wider cells still covers the radius. All storage is sized at
// construction from n and the cell count, except two scratch buffers that
// grow to their high-water marks, Update's op buckets and the Pairs
// output, so warm calls allocate nothing.
type CellList struct {
	rect  Rect
	r     float64 // query radius
	side  float64 // cell side: r, or wider where the grid budget binds
	cols  int
	rows  int
	start []int32 // cells+1 run offsets: cell c holds ids[start[c]:start[c+1]]
	ids   []int32 // members, cell by cell
	pts   []Point // member positions, parallel to ids
	cell  []int32 // cell id per point
	slot  []int32 // offset of point i in its cell's run

	// Update scratch: the spare arrays the next layout is written into,
	// a step's crossings in ascending point index, the same ops grouped by
	// cell, and per-cell bucket ends (zero between calls; Rebuild borrows
	// them as fill counts).
	spareIDs []int32
	sparePts []Point
	ops      []cellOp
	bucket   []cellOp
	opEnd    []int32

	pairs [][2]int32 // scratch for Pairs
}

// cellOp is one cell's share of a crossing: point i leaves cell, or joins
// it when arrive is set.
type cellOp struct {
	cell, i int32
	arrive  bool
}

// minCellBudget is the grid-size floor: a grid of up to
// max(4n, minCellBudget) cells keeps the query radius as its side.
const minCellBudget = 1 << 16

// NewCellList builds an index over pts within rect for radius-r queries.
// It panics if r <= 0 or the rectangle is degenerate.
func NewCellList(rect Rect, r float64, pts []Point) *CellList {
	if r <= 0 {
		panic("geometry: NewCellList needs r > 0")
	}
	if rect.W() <= 0 || rect.H() <= 0 {
		panic("geometry: NewCellList needs a non-degenerate rect")
	}
	side, cols, rows := gridFor(rect, r, max(4*len(pts), minCellBudget))
	n, cells := len(pts), cols*rows
	c := &CellList{
		rect:     rect,
		r:        r,
		side:     side,
		cols:     cols,
		rows:     rows,
		start:    make([]int32, cells+1),
		ids:      make([]int32, n),
		pts:      make([]Point, n),
		cell:     make([]int32, n),
		slot:     make([]int32, n),
		spareIDs: make([]int32, n),
		sparePts: make([]Point, n),
		opEnd:    make([]int32, cells),
	}
	c.Rebuild(pts)
	return c
}

// gridFor returns the cell side and grid shape for radius-r queries over
// rect: side r unless that grid would exceed budget cells, and otherwise
// the side widened until it fits. The sizes are compared in float64, so a
// radius tiny against the rectangle cannot overflow an int.
func gridFor(rect Rect, r float64, budget int) (side float64, cols, rows int) {
	w, h, b := rect.W(), rect.H(), float64(budget)
	shape := func(side float64) (float64, float64) {
		return max(math.Ceil(w/side), 1), max(math.Ceil(h/side), 1)
	}
	side = r
	if cf, rf := shape(side); cf*rf > b {
		// Start from the side whose grid holds exactly budget cells of area
		// (rounding may still overflow it, and a thin rect needs more).
		side = max(side, math.Sqrt(w)*math.Sqrt(h)/math.Sqrt(b))
		for cf, rf = shape(side); cf*rf > b; cf, rf = shape(side) {
			side *= 1.25
		}
	}
	cf, rf := shape(side)
	return side, int(cf), int(rf)
}

// Rebuild reindexes the (possibly moved) points from scratch with a stable
// counting sort by cell, so every cell's members are in ascending index.
// len(pts) must equal the original point count. A Rebuild allocates
// nothing.
func (c *CellList) Rebuild(pts []Point) {
	if len(pts) != len(c.ids) {
		panic("geometry: Rebuild with different point count")
	}
	clear(c.start)
	for i, p := range pts {
		id := c.cellOf(p)
		c.cell[i] = id
		c.start[id+1]++
	}
	for id := range c.opEnd {
		c.start[id+1] += c.start[id]
	}
	fill := c.opEnd
	for i, p := range pts {
		id := c.cell[i]
		k := fill[id]
		fill[id]++
		c.slot[i] = k
		c.ids[c.start[id]+k] = int32(i)
		c.pts[c.start[id]+k] = p
	}
	clear(fill)
}

// Update moves every point listed in moved to its position in pts. moved
// holds distinct point indices in ascending order; pts is indexed by point,
// and only its moved entries are read.
//
// A move within a cell rewrites the stored position in place; a step with
// no other move ends there, in O(moved). A move across cells becomes a
// departure from the old cell and an arrival in the new one. A stable
// counting sort groups these ops by cell, each cell's ops in ascending
// point index, and one pass over the cells copies the untouched spans into
// the spare arrays and replays each touched cell's ops in order: O(n +
// cells) for the step. The replay leaves each cell's members exactly as
// the one-at-a-time order of the type comment does.
func (c *CellList) Update(moved []int32, pts []Point) {
	c.ops = c.ops[:0]
	for _, i := range moved {
		p := pts[i]
		from, to := c.cell[i], c.cellOf(p)
		if from == to {
			c.pts[c.start[from]+c.slot[i]] = p
			continue
		}
		c.ops = append(c.ops, cellOp{cell: from, i: i}, cellOp{cell: to, i: i, arrive: true})
	}
	if len(c.ops) == 0 {
		return
	}
	// Stable counting sort by cell; afterwards opEnd[id] is the end of
	// cell id's bucket.
	for _, o := range c.ops {
		c.opEnd[o.cell]++
	}
	var sum int32
	for id, k := range c.opEnd {
		c.opEnd[id] = sum
		sum += k
	}
	if cap(c.bucket) < len(c.ops) {
		c.bucket = make([]cellOp, cap(c.ops))
	}
	bucket := c.bucket[:len(c.ops)]
	for _, o := range c.ops {
		bucket[c.opEnd[o.cell]] = o
		c.opEnd[o.cell]++
	}

	// One pass over the cells, writing the new layout into the spare
	// arrays: untouched runs are copied a span at a time, touched ones are
	// replayed. start is rewritten in place, each entry after it is read.
	var (
		w    int32 // new offset of the current cell's run
		done int32 // old offset up to which runs have been written
		b    int32 // first op of the current cell's bucket
	)
	for id, end := range c.opEnd {
		s, e := c.start[id], c.start[id+1]
		c.start[id] = w
		c.opEnd[id] = 0
		if b == end {
			w += e - s
			continue
		}
		kept, pending := c.replay(int32(id), s, e, bucket[b:end], pts)
		// The untouched span before the cell and the cell's kept members
		// are one run of the old arrays.
		from := w - (s - done)
		w += kept
		copy(c.spareIDs[from:w], c.ids[done:s+kept])
		copy(c.sparePts[from:w], c.pts[done:s+kept])
		for _, o := range pending {
			c.spareIDs[w] = o.i
			c.sparePts[w] = pts[o.i]
			w++
		}
		done, b = e, end
	}
	span := int32(len(c.ids)) - done
	copy(c.spareIDs[w-span:w], c.ids[done:])
	copy(c.sparePts[w-span:w], c.pts[done:])
	c.ids, c.spareIDs = c.spareIDs, c.ids
	c.pts, c.sparePts = c.sparePts, c.pts

	// Arrival slots, written only now: a point can arrive in a
	// lower-numbered cell before the pass reaches its departure, which
	// reads its old slot. Rewriting a cell's run stamps every arrival in it
	// with the cell, so each touched cell is rewritten once.
	for _, o := range c.ops {
		if !o.arrive || c.cell[o.i] == o.cell {
			continue
		}
		lo := c.start[o.cell]
		for k, m := range c.ids[lo:c.start[o.cell+1]] {
			c.slot[m] = int32(k)
			c.cell[m] = o.cell
		}
	}
}

// replay applies cell id's ops, in order, to its old run ids[s:e] in
// place, and returns how many leading members of the run survive and the
// arrivals to append after them, in order. It reproduces one-at-a-time
// swap-removes and appends without growing the run: the list is always
// the run's survivors followed by the arrivals still pending, so a
// departure takes the last pending arrival into its slot when there is
// one, and the run's last survivor otherwise. Pending arrivals stack in the
// consumed prefix of ops.
func (c *CellList) replay(id, s, e int32, ops []cellOp, pts []Point) (kept int32, pending []cellOp) {
	kept = e - s
	p := 0
	for _, o := range ops {
		if o.arrive {
			ops[p] = o
			p++
			continue
		}
		k := s + c.slot[o.i]
		if p > 0 {
			p--
			x := ops[p].i
			c.ids[k], c.pts[k] = x, pts[x]
			continue
		}
		kept--
		last := c.ids[s+kept]
		c.ids[k], c.pts[k] = last, c.pts[s+kept]
		// An arrival taken into the run keeps its old cell until the pass
		// ends; only a member that started here may later depart and read
		// its slot.
		if c.cell[last] == id {
			c.slot[last] = k - s
		}
	}
	return kept, ops[:p]
}

// Position returns the indexed position of point i.
func (c *CellList) Position(i int) Point { return c.pts[c.start[c.cell[i]]+c.slot[i]] }

// cellOf maps a point (clamped into the rectangle) to its cell id.
func (c *CellList) cellOf(p Point) int32 {
	p = c.rect.Clamp(p)
	col := int((p.X - c.rect.X0) / c.side)
	row := int((p.Y - c.rect.Y0) / c.side)
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
// once. It scans each cell's members against the later members of the
// cell and a half stencil of its neighbors (E, then SW, S, SE), so every
// candidate pair is distance-checked once — half the work of querying
// AppendWithin from every point.
func (c *CellList) AppendPairsWithin(dst [][2]int32) [][2]int32 {
	r2 := c.r * c.r
	for row := 0; row < c.rows; row++ {
		for col := 0; col < c.cols; col++ {
			id := row*c.cols + col
			// The cell's later members and its E neighbor are one run.
			hi := c.start[id+1]
			if col+1 < c.cols {
				hi = c.start[id+2]
			}
			// SW, S and SE are one run of the next row.
			var blo, bhi int32
			if row+1 < c.rows {
				below := (row+1)*c.cols + col
				blo, bhi = c.start[below-min(col, 1)], c.start[below+min(c.cols-1-col, 1)+1]
			}
			for a := c.start[id]; a < c.start[id+1]; a++ {
				i, pi := c.ids[a], c.pts[a]
				for k := a + 1; k < hi; k++ {
					if Dist2(pi, c.pts[k]) <= r2 {
						dst = append(dst, orderPair(i, c.ids[k]))
					}
				}
				for k := blo; k < bhi; k++ {
					if Dist2(pi, c.pts[k]) <= r2 {
						dst = append(dst, orderPair(i, c.ids[k]))
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
// of point i to dst, scanning the 3×3 block of cells around it as one run
// per row.
func (c *CellList) AppendWithin(i int, dst []int32) []int32 {
	id := int(c.cell[i])
	p := c.pts[c.start[id]+c.slot[i]]
	row, col := id/c.cols, id%c.cols
	c0, c1 := max(col-1, 0), min(col+1, c.cols-1)
	r2 := c.r * c.r
	for nr := max(row-1, 0); nr <= min(row+1, c.rows-1); nr++ {
		lo, hi := c.start[nr*c.cols+c0], c.start[nr*c.cols+c1+1]
		pts := c.pts[lo:hi]
		for k, j := range c.ids[lo:hi] {
			if int(j) != i && Dist2(p, pts[k]) <= r2 {
				dst = append(dst, j)
			}
		}
	}
	return dst
}

// Len returns the number of indexed points.
func (c *CellList) Len() int { return len(c.ids) }
