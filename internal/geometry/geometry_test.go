package geometry

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

func TestPointArithmetic(t *testing.T) {
	p := Point{1, 2}
	q := Point{3, 5}
	if p.Add(q) != (Point{4, 7}) {
		t.Fatal("Add wrong")
	}
	if q.Sub(p) != (Point{2, 3}) {
		t.Fatal("Sub wrong")
	}
}

func TestDist(t *testing.T) {
	if Dist(Point{0, 0}, Point{3, 4}) != 5 {
		t.Fatal("Dist wrong")
	}
	if Dist2(Point{0, 0}, Point{3, 4}) != 25 {
		t.Fatal("Dist2 wrong")
	}
}

func TestDistSymmetryProperty(t *testing.T) {
	f := func(a, b, c, d float64) bool {
		if math.IsNaN(a) || math.IsNaN(b) || math.IsNaN(c) || math.IsNaN(d) {
			return true
		}
		p, q := Point{a, b}, Point{c, d}
		return Dist(p, q) == Dist(q, p) && Dist(p, p) == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestLerp(t *testing.T) {
	p, q := Point{0, 0}, Point{10, 20}
	if Lerp(p, q, 0) != p || Lerp(p, q, 1) != q {
		t.Fatal("Lerp endpoints wrong")
	}
	mid := Lerp(p, q, 0.5)
	if mid != (Point{5, 10}) {
		t.Fatal("Lerp midpoint wrong")
	}
}

func TestStepToward(t *testing.T) {
	p, q := Point{0, 0}, Point{10, 0}
	got, reached := StepToward(p, q, 3)
	if reached || got != (Point{3, 0}) {
		t.Fatalf("StepToward partial: %v %v", got, reached)
	}
	got, reached = StepToward(p, q, 15)
	if !reached || got != q {
		t.Fatalf("StepToward overshoot: %v %v", got, reached)
	}
	got, reached = StepToward(q, q, 1)
	if !reached || got != q {
		t.Fatalf("StepToward same point: %v %v", got, reached)
	}
}

func TestStepTowardNeverOvershootsProperty(t *testing.T) {
	r := rng.New(3)
	f := func(uint8) bool {
		p := Point{r.Float64() * 100, r.Float64() * 100}
		q := Point{r.Float64() * 100, r.Float64() * 100}
		step := r.Float64() * 50
		got, reached := StepToward(p, q, step)
		if reached {
			return got == q
		}
		// Must move exactly step and reduce the distance accordingly.
		return math.Abs(Dist(p, got)-step) < 1e-9 &&
			math.Abs(Dist(got, q)-(Dist(p, q)-step)) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestRect(t *testing.T) {
	r := Square(10)
	if r.W() != 10 || r.H() != 10 {
		t.Fatal("Square dims wrong")
	}
	if !r.Contains(Point{5, 5}) || r.Contains(Point{11, 5}) {
		t.Fatal("Contains wrong")
	}
	if r.Clamp(Point{-2, 15}) != (Point{0, 10}) {
		t.Fatal("Clamp wrong")
	}
}

// TestCellListMatchesBruteForce checks every point's neighbor set against
// a brute-force scan, on a grid whose cell side is the query radius and on
// grids where the cell budget binds: a square, and a thin strip whose
// cells widen along its length.
func TestCellListMatchesBruteForce(t *testing.T) {
	r := rng.New(7)
	cases := []struct {
		name   string
		rect   Rect
		radius float64
		spread float64 // points are uniform over the rect's first spread×spread
		widen  bool    // the grid at side radius exceeds the cell budget
	}{
		{"side r", Square(100), 8, 100, false},
		// Clustered points, so that the sparse grids still report
		// neighbors.
		{"budget square", Square(1000), 0.5, 40, true},
		{"budget strip", Rect{X0: 0, Y0: 0, X1: 1e5, Y1: 3}, 0.5, 40, true},
	}
	const n = 300
	for _, tc := range cases {
		pts := make([]Point, n)
		for i := range pts {
			w, h := min(tc.rect.W(), tc.spread), min(tc.rect.H(), tc.spread)
			pts[i] = Point{tc.rect.X0 + r.Float64()*w, tc.rect.Y0 + r.Float64()*h}
		}
		cl := NewCellList(tc.rect, tc.radius, pts)
		budget := max(4*n, minCellBudget)
		if cells := cl.cols * cl.rows; cells > budget {
			t.Fatalf("%s: %d×%d grid exceeds the %d-cell budget", tc.name, cl.cols, cl.rows, budget)
		}
		if widened := cl.side > tc.radius; widened != tc.widen || cl.side < tc.radius {
			t.Fatalf("%s: cell side %g for radius %g, want widened=%v", tc.name, cl.side, tc.radius, tc.widen)
		}
		pairs := 0
		for i := 0; i < n; i++ {
			got := map[int32]bool{}
			for _, j := range cl.AppendWithin(i, nil) {
				if got[j] {
					t.Fatalf("%s: point %d: neighbor %d reported twice", tc.name, i, j)
				}
				got[j] = true
			}
			want := map[int32]bool{}
			for j := 0; j < n; j++ {
				if j != i && Dist(pts[i], pts[j]) <= tc.radius {
					want[int32(j)] = true
				}
			}
			if len(got) != len(want) {
				t.Fatalf("%s: point %d: got %d neighbors, want %d", tc.name, i, len(got), len(want))
			}
			for j := range want {
				if !got[j] {
					t.Fatalf("%s: point %d: missing neighbor %d", tc.name, i, j)
				}
			}
			pairs += len(want)
		}
		if pairs == 0 {
			t.Fatalf("%s: no point has a neighbor; the check is vacuous", tc.name)
		}
		if got := len(cl.AppendPairsWithin(nil)); 2*got != pairs {
			t.Fatalf("%s: %d pairs enumerated, brute force finds %d", tc.name, got, pairs/2)
		}
	}
}

func TestCellListRebuild(t *testing.T) {
	rect := Square(10)
	pts := []Point{{1, 1}, {2, 1}, {9, 9}}
	cl := NewCellList(rect, 2, pts)
	if len(cl.AppendWithin(0, nil)) != 1 {
		t.Fatal("initial neighbors wrong")
	}
	// Move point 2 next to point 0.
	pts[2] = Point{1, 2}
	cl.Rebuild(pts)
	if len(cl.AppendWithin(0, nil)) != 2 {
		t.Fatal("rebuild did not update neighbors")
	}
	if cl.Len() != 3 {
		t.Fatal("Len wrong")
	}
}

func TestCellListRebuildPanicsOnResize(t *testing.T) {
	cl := NewCellList(Square(10), 1, []Point{{1, 1}})
	defer func() {
		if recover() == nil {
			t.Fatal("Rebuild with different count did not panic")
		}
	}()
	cl.Rebuild([]Point{{1, 1}, {2, 2}})
}

func TestCellListSmallRadiusLargeRect(t *testing.T) {
	// Radius much smaller than the rect: many cells, queries stay correct.
	r := rng.New(11)
	rect := Square(1000)
	pts := make([]Point, 100)
	for i := range pts {
		pts[i] = Point{r.Float64() * 1000, r.Float64() * 1000}
	}
	cl := NewCellList(rect, 0.5, pts)
	for i := range pts {
		for _, j := range cl.AppendWithin(i, nil) {
			if Dist(pts[i], pts[j]) > 0.5 {
				t.Fatalf("reported far neighbor %d-%d", i, j)
			}
		}
	}
}

func TestCellListPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"zero radius":     func() { NewCellList(Square(1), 0, nil) },
		"degenerate rect": func() { NewCellList(Rect{0, 0, 0, 1}, 1, nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			fn()
		}()
	}
}

func BenchmarkCellListRebuild(b *testing.B) {
	r := rng.New(1)
	pts := make([]Point, 10000)
	for i := range pts {
		pts[i] = Point{r.Float64() * 100, r.Float64() * 100}
	}
	cl := NewCellList(Square(100), 2, pts)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cl.Rebuild(pts)
	}
}

// BenchmarkCellListQuery times one AppendWithin over the 64k shape, in
// index order, as a waypoint step queries its moved nodes.
func BenchmarkCellListQuery(b *testing.B) {
	pts := waypoint64k(rng.New(1))
	cl := NewCellList(Square(256), 1, pts)
	var nbrs []int32
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nbrs = cl.AppendWithin(i%len(pts), nbrs[:0])
	}
}
