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

func TestCellListMatchesBruteForce(t *testing.T) {
	r := rng.New(7)
	rect := Square(100)
	const n = 300
	const radius = 8.0
	pts := make([]Point, n)
	for i := range pts {
		pts[i] = Point{r.Float64() * 100, r.Float64() * 100}
	}
	cl := NewCellList(rect, radius, pts)
	for i := 0; i < n; i++ {
		got := map[int32]bool{}
		for _, j := range cl.AppendWithin(i, nil) {
			if got[j] {
				t.Fatalf("point %d: neighbor %d reported twice", i, j)
			}
			got[j] = true
		}
		want := map[int32]bool{}
		for j := 0; j < n; j++ {
			if j != i && Dist(pts[i], pts[j]) <= radius {
				want[int32(j)] = true
			}
		}
		if len(got) != len(want) {
			t.Fatalf("point %d: got %d neighbors, want %d", i, len(got), len(want))
		}
		for j := range want {
			if !got[j] {
				t.Fatalf("point %d: missing neighbor %d", i, j)
			}
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

func BenchmarkCellListQuery(b *testing.B) {
	r := rng.New(1)
	pts := make([]Point, 10000)
	for i := range pts {
		pts[i] = Point{r.Float64() * 100, r.Float64() * 100}
	}
	cl := NewCellList(Square(100), 2, pts)
	var nbrs []int32
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nbrs = cl.AppendWithin(i%len(pts), nbrs[:0])
	}
}
