package mobility

import (
	"math"
	"testing"

	"repro/internal/dyngraph"
	"repro/internal/flood"
	"repro/internal/geometry"
	"repro/internal/model"
	"repro/internal/rng"
	"repro/internal/stats"
)

func TestWaypointParamsValidate(t *testing.T) {
	bad := []WaypointParams{
		{N: 0, L: 10, R: 1, VMin: 1, VMax: 1},
		{N: 5, L: 0, R: 1, VMin: 1, VMax: 1},
		{N: 5, L: 10, R: 0, VMin: 1, VMax: 1},
		{N: 5, L: 10, R: 1, VMin: 0, VMax: 1},
		{N: 5, L: 10, R: 1, VMin: 2, VMax: 1},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("case %d accepted: %+v", i, p)
		}
	}
	good := WaypointParams{N: 5, L: 10, R: 1, VMin: 1, VMax: 2}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	if good.MixingTimeEstimate() != 5 {
		t.Fatal("mixing estimate wrong")
	}
}

func TestWaypointStaysInSquare(t *testing.T) {
	p := WaypointParams{N: 50, L: 20, R: 2, VMin: 0.5, VMax: 1.5}
	w := NewWaypoint(p, InitUniform, rng.New(3))
	for step := 0; step < 200; step++ {
		for _, pos := range w.Positions() {
			if pos.X < 0 || pos.X > 20 || pos.Y < 0 || pos.Y > 20 {
				t.Fatalf("node escaped square: %v", pos)
			}
		}
		w.Step()
	}
}

func TestWaypointMovesAtSpeed(t *testing.T) {
	p := WaypointParams{N: 1, L: 100, R: 1, VMin: 2, VMax: 2}
	w := NewWaypoint(p, InitUniform, rng.New(5))
	for step := 0; step < 50; step++ {
		before := w.Positions()[0]
		w.Step()
		after := w.Positions()[0]
		d := geometry.Dist(before, after)
		if d > 2+1e-9 {
			t.Fatalf("moved %v > speed 2", d)
		}
	}
}

func TestWaypointNeighborsWithinRadius(t *testing.T) {
	p := WaypointParams{N: 100, L: 10, R: 1.5, VMin: 0.5, VMax: 1}
	w := NewWaypoint(p, InitSteadyState, rng.New(7))
	for step := 0; step < 10; step++ {
		for _, e := range w.AppendEdges(nil) {
			if d := geometry.Dist(w.Positions()[e.U], w.Positions()[e.V]); d > 1.5 {
				t.Fatalf("neighbor at distance %v > R", d)
			}
		}
		w.Step()
	}
}

func TestWaypointCenterBias(t *testing.T) {
	// The stationary positional density must be center-biased: the central
	// ninth of the square holds clearly more than 1/9 of the mass.
	p := WaypointParams{N: 200, L: 9, R: 1, VMin: 1, VMax: 1}
	w := NewWaypoint(p, InitSteadyState, rng.New(9))
	h := PositionalDensity(w, 9, 3, 3000, 10)
	centerMass := float64(h.At(1, 1)) / float64(h.N())
	if centerMass < 0.13 {
		t.Fatalf("center mass %v, want > 0.13 (uniform would be 0.111)", centerMass)
	}
}

func TestWaypointSteadyStateMatchesLongRun(t *testing.T) {
	// InitSteadyState should produce (approximately) the same positional
	// density as a long warmed-up run from InitUniform.
	p := WaypointParams{N: 300, L: 10, R: 1, VMin: 0.5, VMax: 1}
	steady := NewWaypoint(p, InitSteadyState, rng.New(11))
	hSteady := PositionalDensity(steady, 10, 5, 2000, 5)

	warmed := NewWaypoint(p, InitUniform, rng.New(13))
	warmed.WarmUp(500) // many multiples of L/vmax = 10
	hWarm := PositionalDensity(warmed, 10, 5, 2000, 5)

	tv := stats.TV(stats.CountsToDist(hSteady.Counts), stats.CountsToDist(hWarm.Counts))
	if tv > 0.05 {
		t.Fatalf("steady-state vs warmed density TV = %v", tv)
	}
}

func TestWaypointDensityAnalytic(t *testing.T) {
	// The analytic density integrates to ~1 and peaks at the center.
	L := 7.0
	integral := 0.0
	const cells = 100
	side := L / cells
	for i := 0; i < cells; i++ {
		for j := 0; j < cells; j++ {
			x, y := (float64(i)+0.5)*side, (float64(j)+0.5)*side
			integral += WaypointDensity(x, y, L) * side * side
		}
	}
	if math.Abs(integral-1) > 1e-3 { // midpoint rule on 100² cells
		t.Fatalf("analytic density integral = %v", integral)
	}
	center := WaypointDensity(L/2, L/2, L)
	if math.Abs(center-2.25/(L*L)) > 1e-12 {
		t.Fatalf("center density = %v, want %v", center, 2.25/(L*L))
	}
	if WaypointDensity(-1, 3, L) != 0 || WaypointDensity(3, L+1, L) != 0 {
		t.Fatal("outside density should be 0")
	}
}

func TestEmpiricalWaypointDensityMatchesAnalytic(t *testing.T) {
	p := WaypointParams{N: 400, L: 10, R: 1, VMin: 1, VMax: 1}
	w := NewWaypoint(p, InitSteadyState, rng.New(17))
	h := PositionalDensity(w, 10, 10, 4000, 8)
	tv := DensityTVToAnalytic(h, 10, func(x, y float64) float64 {
		return WaypointDensity(x, y, 10)
	})
	// The Bettstetter polynomial is itself an approximation; accept a
	// modest TV gap but reject uniform-level disagreement (~0.15).
	if tv > 0.08 {
		t.Fatalf("empirical vs analytic waypoint density TV = %v", tv)
	}
}

func TestMeasureUniformityUniformDensity(t *testing.T) {
	r := rng.New(19)
	h := stats.NewHist2D(0, 10, 8)
	for i := 0; i < 400000; i++ {
		h.Add(r.Float64()*10, r.Float64()*10)
	}
	rep := MeasureUniformity(h, 10, 1.0)
	if rep.Delta > 1.15 {
		t.Fatalf("uniform density delta = %v, want ~1", rep.Delta)
	}
	// B is the whole square except sampling noise; B_r loses the border
	// ring of cells (8x8 grid, reach 1 cell): interior 6x6 = 36/64.
	if rep.Lambda < 0.4 {
		t.Fatalf("uniform density lambda = %v, want >= interior fraction", rep.Lambda)
	}
	if rep.TVToUniform > 0.05 {
		t.Fatalf("uniform TV = %v", rep.TVToUniform)
	}
}

func TestMeasureUniformityWaypoint(t *testing.T) {
	p := WaypointParams{N: 300, L: 10, R: 1, VMin: 1, VMax: 1}
	w := NewWaypoint(p, InitSteadyState, rng.New(23))
	h := PositionalDensity(w, 10, 10, 3000, 10)
	rep := MeasureUniformity(h, 10, 1.0)
	// Analytic sup is 2.25/L² so δ ≈ 2.25; allow sampling slack.
	if rep.Delta < 1.8 || rep.Delta > 3.0 {
		t.Fatalf("waypoint delta = %v, want ≈ 2.25", rep.Delta)
	}
	if rep.Lambda <= 0 {
		t.Fatal("waypoint lambda must be positive (central B survives shrinking)")
	}
}

func TestWalkParamsValidate(t *testing.T) {
	if err := (WalkParams{N: 0, M: 5}).Validate(); err == nil {
		t.Fatal("n=0 accepted")
	}
	if err := (WalkParams{N: 5, M: 1}).Validate(); err == nil {
		t.Fatal("m=1 accepted")
	}
	if err := (WalkParams{N: 5, M: 5, R: -1}).Validate(); err == nil {
		t.Fatal("negative r accepted")
	}
	if err := (WalkParams{N: 5, M: 5, Stay: 1}).Validate(); err == nil {
		t.Fatal("stay=1 accepted")
	}
}

func TestWalkMovesOneHop(t *testing.T) {
	w, err := NewWalk(WalkParams{N: 20, M: 6, R: 0}, rng.New(29))
	if err != nil {
		t.Fatal(err)
	}
	for step := 0; step < 50; step++ {
		before := make([][2]int, 20)
		for i := 0; i < 20; i++ {
			r, c := w.PositionOf(i)
			before[i] = [2]int{r, c}
		}
		w.Step()
		for i := 0; i < 20; i++ {
			r, c := w.PositionOf(i)
			dr := abs(r - before[i][0])
			dc := abs(c - before[i][1])
			if dr+dc != 1 {
				t.Fatalf("node %d moved %d hops (non-lazy walk must move exactly 1)", i, dr+dc)
			}
		}
	}
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

func TestWalkLazyCanStay(t *testing.T) {
	w, err := NewWalk(WalkParams{N: 50, M: 6, R: 0, Stay: 0.5}, rng.New(31))
	if err != nil {
		t.Fatal(err)
	}
	stays := 0
	for step := 0; step < 20; step++ {
		r0, c0 := w.PositionOf(0)
		w.Step()
		r1, c1 := w.PositionOf(0)
		if r0 == r1 && c0 == c1 {
			stays++
		}
	}
	if stays == 0 {
		t.Fatal("lazy walk never stayed in 20 steps (p=0.5 each)")
	}
}

func TestWalkSamePointConnection(t *testing.T) {
	w, err := NewWalk(WalkParams{N: 100, M: 3, R: 0}, rng.New(37))
	if err != nil {
		t.Fatal(err)
	}
	// With 100 nodes on 9 points, same-point neighbors must exist and be
	// exactly the co-located nodes.
	found := false
	for _, e := range w.AppendEdges(nil) {
		ri, ci := w.PositionOf(int(e.U))
		rj, cj := w.PositionOf(int(e.V))
		if ri != rj || ci != cj {
			t.Fatalf("connected nodes at different points")
		}
		found = true
	}
	if !found {
		t.Fatal("no co-located nodes among 100 on 9 points")
	}
}

func TestWalkFloodingCompletes(t *testing.T) {
	w, err := NewWalk(WalkParams{N: 60, M: 6, R: 1.0, Stay: 0.2}, rng.New(41))
	if err != nil {
		t.Fatal(err)
	}
	res := flood.Run(w, 0, flood.Opts{MaxSteps: 50000})
	if !res.Completed {
		t.Fatal("walk-model flooding did not complete")
	}
}

func TestDirectionStaysInSquareAndUniform(t *testing.T) {
	p := DirectionParams{N: 200, L: 10, R: 1, Speed: 0.8, Turn: 0.1}
	d := NewDirection(p, rng.New(43))
	h := PositionalDensity(d, 10, 5, 3000, 10)
	for _, pos := range d.Positions() {
		if pos.X < 0 || pos.X > 10 || pos.Y < 0 || pos.Y > 10 {
			t.Fatalf("node escaped: %v", pos)
		}
	}
	rep := MeasureUniformity(h, 10, 1.0)
	// Random direction is the uniform-density contrast: δ near 1.
	if rep.Delta > 1.5 {
		t.Fatalf("direction model delta = %v, want ~1", rep.Delta)
	}
}

func TestDirectionNeighborsWithinRadius(t *testing.T) {
	p := DirectionParams{N: 80, L: 8, R: 1.2, Speed: 0.5, Turn: 0.2}
	d := NewDirection(p, rng.New(47))
	for step := 0; step < 10; step++ {
		for _, e := range d.AppendEdges(nil) {
			if dist := geometry.Dist(d.Positions()[e.U], d.Positions()[e.V]); dist > 1.2 {
				t.Fatalf("neighbor at distance %v", dist)
			}
		}
		d.Step()
	}
}

func TestWalkRhoMovesWithinBall(t *testing.T) {
	w, err := NewWalk(WalkParams{N: 20, M: 8, R: 0, Rho: 3}, rng.New(61))
	if err != nil {
		t.Fatal(err)
	}
	for step := 0; step < 30; step++ {
		before := make([][2]int, 20)
		for i := 0; i < 20; i++ {
			r, c := w.PositionOf(i)
			before[i] = [2]int{r, c}
		}
		w.Step()
		for i := 0; i < 20; i++ {
			r, c := w.PositionOf(i)
			hops := abs(r-before[i][0]) + abs(c-before[i][1])
			if hops > 3 {
				t.Fatalf("node %d moved %d hops with rho=3", i, hops)
			}
		}
	}
}

func TestWalkRhoFloodsFasterThanOneHop(t *testing.T) {
	// ρ-hop movement mixes positions faster, so flooding over the same
	// connection radius accelerates — the "high mobility can make up for
	// low transmission power" phenomenon of [12].
	run := func(rho int, seed uint64) float64 {
		var times []float64
		for trial := 0; trial < 5; trial++ {
			w, err := NewWalk(WalkParams{N: 12, M: 10, R: 1, Rho: rho, Stay: 0.2}, rng.New(seed+uint64(trial)))
			if err != nil {
				t.Fatal(err)
			}
			res := flood.Run(w, 0, flood.Opts{MaxSteps: 100000})
			if res.Completed {
				times = append(times, float64(res.Time))
			}
		}
		return stats.Median(times)
	}
	oneHop := run(0, 70)
	threeHop := run(3, 80)
	if threeHop >= oneHop {
		t.Fatalf("rho=3 (%v) should flood faster than rho=1 (%v)", threeHop, oneHop)
	}
}

func TestWalkRhoIncludesStaying(t *testing.T) {
	// Rho > 1 includes the current point in the choice set, so the walk
	// can stay; verify a stay happens within a reasonable window.
	w, err := NewWalk(WalkParams{N: 40, M: 6, R: 0, Rho: 2}, rng.New(91))
	if err != nil {
		t.Fatal(err)
	}
	stays := 0
	for step := 0; step < 30; step++ {
		r0, c0 := w.PositionOf(0)
		w.Step()
		r1, c1 := w.PositionOf(0)
		if r0 == r1 && c0 == c1 {
			stays++
		}
	}
	if stays == 0 {
		t.Fatal("rho-walk never stayed (ball includes the current point with prob ~1/13)")
	}
}

func TestDiskRegionGeometry(t *testing.T) {
	d := DiskRegion{Radius: 5}
	if !d.Contains(geometry.Point{X: 5, Y: 5}) {
		t.Fatal("center not contained")
	}
	if d.Contains(geometry.Point{X: 0, Y: 0}) {
		t.Fatal("bounding-box corner wrongly contained")
	}
	if math.Abs(d.Area()-math.Pi*25) > 1e-12 {
		t.Fatal("area wrong")
	}
	r := rng.New(101)
	for i := 0; i < 5000; i++ {
		if !d.Contains(d.Sample(r)) {
			t.Fatal("sample left the disk")
		}
	}
}

func TestDiskSampleUniform(t *testing.T) {
	// The polar method must be area-uniform: the inner half-radius disk
	// holds 1/4 of the samples.
	d := DiskRegion{Radius: 4}
	r := rng.New(103)
	inner := 0
	const trials = 100000
	for i := 0; i < trials; i++ {
		p := d.Sample(r)
		if geometry.Dist(p, geometry.Point{X: 4, Y: 4}) <= 2 {
			inner++
		}
	}
	frac := float64(inner) / trials
	if math.Abs(frac-0.25) > 0.01 {
		t.Fatalf("inner-disk fraction = %v, want 0.25", frac)
	}
}

func TestRegionWaypointStaysInDisk(t *testing.T) {
	d := DiskRegion{Radius: 8}
	w := NewRegionWaypoint(60, d, 1.5, 1, 1, rng.New(107))
	for step := 0; step < 300; step++ {
		for _, p := range w.Positions() {
			if !d.Contains(p) {
				t.Fatalf("node left the disk: %v", p)
			}
		}
		w.Step()
	}
}

func TestRegionWaypointFloodingCompletes(t *testing.T) {
	d := DiskRegion{Radius: 8}
	w := NewRegionWaypoint(60, d, 1.5, 1, 1, rng.New(109))
	res := flood.Run(w, 0, flood.Opts{MaxSteps: 100000})
	if !res.Completed {
		t.Fatal("disk waypoint flooding did not complete")
	}
}

func TestRegionWaypointCenterBias(t *testing.T) {
	// The waypoint center bias is region-generic: on a disk, the center
	// annulus is denser than uniform.
	d := DiskRegion{Radius: 6}
	w := NewRegionWaypoint(200, d, 1, 1, 1, rng.New(113))
	h := PositionalDensity(w, 12, 6, 3000, 10)
	den := h.Density()
	center := den[2*6+2] + den[2*6+3] + den[3*6+2] + den[3*6+3]
	// Uniform over the disk would put density 1/(π·36) ≈ 0.0088 per unit²
	// in interior cells; the waypoint center should clearly exceed the
	// disk-uniform level.
	uniform := 1 / (math.Pi * 36)
	if center/4 <= 1.2*uniform {
		t.Fatalf("disk waypoint center density %v not above uniform %v", center/4, uniform)
	}
}

func TestSquareRegionMatchesSquare(t *testing.T) {
	s := SquareRegion{L: 7}
	if s.Area() != 49 || s.Bounds().W() != 7 {
		t.Fatal("square region dims wrong")
	}
	r := rng.New(117)
	for i := 0; i < 1000; i++ {
		if !s.Contains(s.Sample(r)) {
			t.Fatal("square sample out of region")
		}
	}
}

func TestRegionWaypointPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("invalid params did not panic")
		}
	}()
	NewRegionWaypoint(0, DiskRegion{Radius: 1}, 1, 1, 1, rng.New(1))
}

func TestDiscreteWaypointChainValid(t *testing.T) {
	if _, err := DiscreteWaypoint(1); err == nil {
		t.Fatal("m=1 accepted")
	}
	chain, err := DiscreteWaypoint(3)
	if err != nil {
		t.Fatal(err)
	}
	if chain.N() != 81 {
		t.Fatalf("state count = %d, want 81", chain.N())
	}
}

func TestDiscreteWaypointPositionalCenterBias(t *testing.T) {
	pos, tmix, err := DiscreteWaypointMixing(5, 0.25, 100000)
	if err != nil {
		t.Fatal(err)
	}
	if tmix < 1 {
		t.Fatal("mixing time must be positive")
	}
	// Center point (2,2) = index 12 should carry more mass than corner 0.
	if pos[12] <= pos[0] {
		t.Fatalf("no center bias: center %v vs corner %v", pos[12], pos[0])
	}
	// Distribution sums to 1.
	sum := 0.0
	for _, p := range pos {
		sum += p
	}
	if math.Abs(sum-1) > 1e-6 {
		t.Fatalf("positional mass = %v", sum)
	}
}

func TestDiscreteWaypointMixingGrowsLinearly(t *testing.T) {
	// Θ(L/v) with unit speed means mixing time ~ m.
	_, t4, err := DiscreteWaypointMixing(4, 0.25, 100000)
	if err != nil {
		t.Fatal(err)
	}
	_, t8, err := DiscreteWaypointMixing(8, 0.25, 100000)
	if err != nil {
		t.Fatal(err)
	}
	ratio := float64(t8) / float64(t4)
	if ratio < 1.4 || ratio > 3.5 {
		t.Fatalf("mixing ratio m=8/m=4 is %v, want ~2 (linear in m)", ratio)
	}
}

func TestWaypointFloodingCompletes(t *testing.T) {
	p := WaypointParams{N: 80, L: 12, R: 1.5, VMin: 0.8, VMax: 1.2}
	w := NewWaypoint(p, InitSteadyState, rng.New(53))
	res := flood.Run(w, 0, flood.Opts{MaxSteps: 100000, KeepTimeline: true})
	if !res.Completed {
		t.Fatal("waypoint flooding did not complete")
	}
	if !flood.GrowthIsMonotone(res.Timeline) {
		t.Fatal("timeline not monotone")
	}
}

// TestOversizedGridSpecsBuild builds specs whose radius is tiny against
// the square: at cell side r their grids would hold 10¹⁰, 10³⁶ and 10²⁴
// cells, more than memory or a slice length can take, so the cell list
// must widen its cells. Each must build through the registry, step and
// flood.
func TestOversizedGridSpecsBuild(t *testing.T) {
	for _, text := range []string{
		"waypoint:n=10,L=100000,r=1",
		"waypoint:n=10,L=1e12,r=1e-6",
		"direction:n=10,L=1e9,r=0.001",
	} {
		s, err := model.Parse(text)
		if err != nil {
			t.Fatal(err)
		}
		d, err := model.Build(s, 1)
		if err != nil {
			t.Fatalf("%s: %v", text, err)
		}
		for i := 0; i < 16; i++ {
			d.Step()
		}
		if res := flood.Run(d, 0, flood.Opts{MaxSteps: 64}); res.Informed < 1 || res.Informed > d.N() {
			t.Fatalf("%s: flood informed %d of %d", text, res.Informed, d.N())
		}
	}
}

var _ dyngraph.Dynamic = (*Waypoint)(nil)
var _ dyngraph.Dynamic = (*Direction)(nil)
var _ dyngraph.Dynamic = (*Walk)(nil)

func BenchmarkWaypointStep(b *testing.B) {
	p := WaypointParams{N: 10000, L: 100, R: 1, VMin: 1, VMax: 2}
	w := NewWaypoint(p, InitSteadyState, rng.New(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.Step()
	}
}
