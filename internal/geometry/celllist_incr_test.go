package geometry

import (
	"slices"
	"testing"

	"repro/internal/rng"
)

// equalCellViews asserts that two cell lists over the same points answer
// every query identically up to ordering: per-point neighbor sets and the
// full pair enumeration. This is the contract the incremental Update path
// must share with a from-scratch Rebuild.
func equalCellViews(t *testing.T, tag string, incr, fresh *CellList, n int) {
	t.Helper()
	var a, b []int32
	for i := 0; i < n; i++ {
		if incr.Position(i) != fresh.Position(i) {
			t.Fatalf("%s: point %d stored at %v, rebuild has %v", tag, i, incr.Position(i), fresh.Position(i))
		}
		a = incr.AppendWithin(i, a[:0])
		b = fresh.AppendWithin(i, b[:0])
		slices.Sort(a)
		slices.Sort(b)
		if !slices.Equal(a, b) {
			t.Fatalf("%s: point %d neighbors diverge: incremental %v, rebuild %v", tag, i, a, b)
		}
	}
	ap := slices.Clone(incr.AppendPairsWithin(nil))
	bp := slices.Clone(fresh.AppendPairsWithin(nil))
	sortPairs := func(p [][2]int32) {
		slices.SortFunc(p, func(x, y [2]int32) int {
			if x[0] != y[0] {
				return int(x[0]) - int(y[0])
			}
			return int(x[1]) - int(y[1])
		})
	}
	sortPairs(ap)
	sortPairs(bp)
	if !slices.Equal(ap, bp) {
		t.Fatalf("%s: pair enumeration diverges: incremental %d pairs, rebuild %d", tag, len(ap), len(bp))
	}
}

// TestCellListMoveMatchesRebuild drives an incremental cell list through
// random move streams, one point per Update — local jitters that mostly
// stay in-cell, long jumps that cross many cell boundaries, moves onto
// exact cell-border coordinates, and no-op moves to the current position —
// and checks after every batch that it is indistinguishable from an index
// rebuilt from scratch at the current positions.
func TestCellListMoveMatchesRebuild(t *testing.T) {
	r := rng.New(23)
	const (
		n      = 120
		side   = 40.0
		radius = 3.0
		rounds = 60
	)
	rect := Square(side)
	pts := make([]Point, n)
	for i := range pts {
		pts[i] = Point{r.Float64() * side, r.Float64() * side}
	}
	incr := NewCellList(rect, radius, pts)
	for round := 0; round < rounds; round++ {
		moves := 1 + r.Intn(n/2)
		for k := 0; k < moves; k++ {
			i := r.Intn(n)
			var p Point
			switch r.Intn(5) {
			case 0: // small jitter, usually same cell
				p = Point{pts[i].X + r.Range(-0.3, 0.3), pts[i].Y + r.Range(-0.3, 0.3)}
			case 1: // long jump across many cells
				p = Point{r.Float64() * side, r.Float64() * side}
			case 2: // exact cell-border coordinates
				var s, rad float64 = side, radius
				borders := int(s/rad) + 1
				p = Point{float64(r.Intn(borders)) * radius, float64(r.Intn(borders)) * radius}
			case 3: // no-op move to the current position
				p = pts[i]
			default: // out of the rect: cellOf clamps, the point keeps its value
				p = Point{pts[i].X + r.Range(-2*side, 2*side), pts[i].Y + r.Range(-2*side, 2*side)}
			}
			pts[i] = p
			incr.Update([]int32{int32(i)}, pts)
		}
		fresh := NewCellList(rect, radius, pts)
		equalCellViews(t, "move stream", incr, fresh, n)
	}
}

// TestCellListMoveThenRebuild checks that a Rebuild on an index previously
// maintained by one-point Updates resets it correctly (the two modes may
// be freely interleaved).
func TestCellListMoveThenRebuild(t *testing.T) {
	r := rng.New(5)
	const n = 50
	pts := make([]Point, n)
	for i := range pts {
		pts[i] = Point{r.Float64() * 10, r.Float64() * 10}
	}
	cl := NewCellList(Square(10), 1.5, pts)
	for k := 0; k < 200; k++ {
		i := r.Intn(n)
		pts[i] = Point{r.Float64() * 10, r.Float64() * 10}
		cl.Update([]int32{int32(i)}, pts)
	}
	for i := range pts {
		pts[i] = Point{r.Float64() * 10, r.Float64() * 10}
	}
	cl.Rebuild(pts)
	equalCellViews(t, "rebuild after moves", cl, NewCellList(Square(10), 1.5, pts), n)
}

// FuzzCellListUpdate feeds arbitrary byte streams as batches of moves:
// each 3-byte group moves a point to a quantized destination, and a batch
// ends where a group's point index is not above the previous group's, so
// every batch is ascending and distinct. Destinations step by a quarter
// cell, so every fourth lies on a cell border, and overshoot the rect on
// both sides, where the index clamps. After every batch the index must
// hold every cell's members in the order of the per-point reference.
func FuzzCellListUpdate(f *testing.F) {
	f.Add([]byte{0, 0, 0})
	f.Add([]byte{1, 255, 128, 2, 0, 255, 1, 1, 1})
	f.Add([]byte{7, 13, 200, 7, 13, 200, 3, 90, 90})
	// One batch in which point 0 arrives in a cell before point 8 leaves
	// it: replaying departures first puts the cell's members out of order.
	f.Add([]byte("07X800"))
	f.Fuzz(func(t *testing.T, data []byte) {
		const (
			n      = 24
			side   = 4.0
			radius = 1.0
		)
		r := rng.New(99)
		pts := make([]Point, n)
		for i := range pts {
			pts[i] = Point{r.Float64() * side, r.Float64() * side}
		}
		c := NewCellList(Square(side), radius, pts)
		ref := newMemberLists(Square(side), radius, pts)
		var moved []int32
		flush := func() {
			applyBatch(c, ref, moved, pts)
			sameAsMemberLists(t, "fuzz", c, ref)
			moved = moved[:0]
		}
		// Quarter-cell steps from -0.75 to 5.5 on each axis.
		coord := func(b byte) float64 { return float64(int(b)%26-3) / 4 }
		for k := 0; k+2 < len(data); k += 3 {
			i := int32(data[k]) % n
			if len(moved) > 0 && i <= moved[len(moved)-1] {
				flush()
			}
			pts[i] = Point{coord(data[k+1]), coord(data[k+2])}
			moved = append(moved, i)
		}
		flush()
	})
}

// waypoint64k returns n = 65,536 uniform points in the 256-square: the
// shape of the 64k waypoint flood's cell list at radius 1.
func waypoint64k(r *rng.RNG) []Point {
	pts := make([]Point, 1<<16)
	for i := range pts {
		pts[i] = Point{r.Float64() * 256, r.Float64() * 256}
	}
	return pts
}

// BenchmarkCellListUpdate times one Update of the 64k shape in which a
// quarter of the points jump to new uniform positions, nearly all of them
// across cells: the pass a paused waypoint step pays. Each quarter
// alternates between two sets of targets, so no Update finds its points
// already in place.
func BenchmarkCellListUpdate(b *testing.B) {
	r := rng.New(1)
	cl := NewCellList(Square(256), 1, waypoint64k(r))
	var batches [4][]int32
	var targets [8][]Point
	for f := range targets {
		targets[f] = waypoint64k(r)
	}
	for i := range 1 << 16 {
		batches[i%4] = append(batches[i%4], int32(i))
	}
	b.ResetTimer()
	for k := 0; k < b.N; k++ {
		cl.Update(batches[k%4], targets[k%8])
	}
}
