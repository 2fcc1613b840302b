package geometry

import (
	"math"
	"slices"
	"testing"

	"repro/internal/rng"
)

// memberLists is the reference for CellList's member order: the index as
// it was before the cell-major layout, one heap slice of members per cell,
// maintained by a per-point Move. Moving the points of a batch one at a
// time in ascending index defines the order CellList.Update must leave.
type memberLists struct {
	rect    Rect
	r       float64
	cols    int
	rows    int
	members [][]int32 // per-cell member lists
	slot    []int32   // position of point i inside members[cell[i]]
	cell    []int32   // cell id per point
	pts     []Point   // the indexed points
}

func newMemberLists(rect Rect, r float64, pts []Point) *memberLists {
	cols := max(int(math.Ceil(rect.W()/r)), 1)
	rows := max(int(math.Ceil(rect.H()/r)), 1)
	c := &memberLists{
		rect:    rect,
		r:       r,
		cols:    cols,
		rows:    rows,
		members: make([][]int32, cols*rows),
		slot:    make([]int32, len(pts)),
		cell:    make([]int32, len(pts)),
		pts:     slices.Clone(pts),
	}
	for i, p := range c.pts {
		id := c.cellOf(p)
		c.cell[i] = id
		c.slot[i] = int32(len(c.members[id]))
		c.members[id] = append(c.members[id], int32(i))
	}
	return c
}

// Move updates point i to position p: a same-cell move only updates the
// stored position, and a cell transition swap-removes i from its old
// cell's member list and appends it to the new one.
func (c *memberLists) Move(i int, p Point) {
	c.pts[i] = p
	old := c.cell[i]
	id := c.cellOf(p)
	if id == old {
		return
	}
	m := c.members[old]
	k := c.slot[i]
	last := int32(len(m) - 1)
	moved := m[last]
	m[k] = moved
	c.slot[moved] = k
	c.members[old] = m[:last]
	c.cell[i] = id
	c.slot[i] = int32(len(c.members[id]))
	c.members[id] = append(c.members[id], int32(i))
}

func (c *memberLists) cellOf(p Point) int32 {
	p = c.rect.Clamp(p)
	col := min(int((p.X-c.rect.X0)/c.r), c.cols-1)
	row := min(int((p.Y-c.rect.Y0)/c.r), c.rows-1)
	return int32(row*c.cols + col)
}

func (c *memberLists) AppendPairsWithin(dst [][2]int32) [][2]int32 {
	r2 := c.r * c.r
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

func (c *memberLists) AppendWithin(i int, dst []int32) []int32 {
	p := c.pts[i]
	id := int(c.cell[i])
	row, col := id/c.cols, id%c.cols
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

// sameAsMemberLists asserts that c and the reference agree element by
// element: every cell's members and their positions in order, every
// point's cell, slot and position, every AppendWithin answer and the
// AppendPairsWithin enumeration.
func sameAsMemberLists(t *testing.T, tag string, c *CellList, ref *memberLists) {
	t.Helper()
	if c.cols != ref.cols || c.rows != ref.rows {
		t.Fatalf("%s: grid %d×%d, reference %d×%d", tag, c.cols, c.rows, ref.cols, ref.rows)
	}
	for id, want := range ref.members {
		lo, hi := c.start[id], c.start[id+1]
		if got := c.ids[lo:hi]; !slices.Equal(got, want) {
			t.Fatalf("%s: cell %d members %v, reference %v", tag, id, got, want)
		}
		for k, j := range want {
			if c.pts[lo+int32(k)] != ref.pts[j] {
				t.Fatalf("%s: cell %d member %d at %v, reference %v", tag, id, j, c.pts[lo+int32(k)], ref.pts[j])
			}
		}
	}
	var a, b []int32
	for i := range ref.pts {
		if c.cell[i] != ref.cell[i] || c.slot[i] != ref.slot[i] {
			t.Fatalf("%s: point %d in cell %d slot %d, reference cell %d slot %d",
				tag, i, c.cell[i], c.slot[i], ref.cell[i], ref.slot[i])
		}
		if c.Position(i) != ref.pts[i] {
			t.Fatalf("%s: point %d at %v, reference %v", tag, i, c.Position(i), ref.pts[i])
		}
		a = c.AppendWithin(i, a[:0])
		b = ref.AppendWithin(i, b[:0])
		if !slices.Equal(a, b) {
			t.Fatalf("%s: point %d neighbors %v, reference %v", tag, i, a, b)
		}
	}
	if got, want := c.AppendPairsWithin(nil), ref.AppendPairsWithin(nil); !slices.Equal(got, want) {
		t.Fatalf("%s: %d pairs differ from the reference's %d", tag, len(got), len(want))
	}
}

// applyBatch moves the batch's points in the reference one at a time and
// in c with one Update.
func applyBatch(c *CellList, ref *memberLists, moved []int32, pts []Point) {
	for _, i := range moved {
		ref.Move(int(i), pts[i])
	}
	c.Update(moved, pts)
}

// TestCellListUpdateMatchesMemberLists drives Update and the per-point
// reference through random batches of ascending, distinct indices — moves
// that mostly stay in-cell, long jumps across many cells, moves onto exact
// cell borders, and moves out of the rect that the index clamps — over
// sparse, dense and single-column grids, and checks after every batch
// that both hold every cell's members in the same order.
func TestCellListUpdateMatchesMemberLists(t *testing.T) {
	cases := []struct {
		name      string
		rect      Rect
		radius    float64
		n, rounds int
	}{
		{"sparse", Square(40), 3, 120, 80},
		{"dense", Square(6), 1, 240, 80},
		{"column", Rect{X0: -2, Y0: 1, X1: -1.2, Y1: 9}, 1, 60, 80},
		{"one cell", Square(2), 5, 30, 40},
	}
	for ci, tc := range cases {
		r := rng.New(uint64(41 + ci))
		w, h := tc.rect.W(), tc.rect.H()
		inside := func() Point { return Point{tc.rect.X0 + r.Float64()*w, tc.rect.Y0 + r.Float64()*h} }
		pts := make([]Point, tc.n)
		for i := range pts {
			pts[i] = inside()
		}
		c := NewCellList(tc.rect, tc.radius, pts)
		ref := newMemberLists(tc.rect, tc.radius, pts)
		sameAsMemberLists(t, tc.name+" build", c, ref)
		var moved []int32
		for round := 0; round < tc.rounds; round++ {
			// Each point moves with probability 1/8 to 7/8 this batch.
			frac := float64(1+r.Intn(7)) / 8
			moved = moved[:0]
			for i := range pts {
				if r.Float64() >= frac {
					continue
				}
				p := pts[i]
				switch r.Intn(4) {
				case 0: // jitter, usually within the cell
					p = Point{p.X + r.Range(-0.2, 0.2)*tc.radius, p.Y + r.Range(-0.2, 0.2)*tc.radius}
				case 1: // long jump
					p = inside()
				case 2: // exact cell-border coordinates
					p = Point{
						tc.rect.X0 + float64(r.Intn(int(w/tc.radius)+1))*tc.radius,
						tc.rect.Y0 + float64(r.Intn(int(h/tc.radius)+1))*tc.radius,
					}
				default: // out of the rect: the index clamps, the point keeps its value
					p = Point{p.X + r.Range(-2, 2)*w, p.Y + r.Range(-2, 2)*h}
				}
				pts[i] = p
				moved = append(moved, int32(i))
			}
			applyBatch(c, ref, moved, pts)
			sameAsMemberLists(t, tc.name, c, ref)
		}
	}
}
