package mobility

import (
	"math"

	"repro/internal/geometry"
	"repro/internal/rng"
)

// Region is a bounded connected subset of the plane over which a random
// trip model runs — Corollary 4 covers "any bounded connected region
// R ⊆ R^d"; this interface realizes the d = 2 case. Implementations must
// be convex so that straight waypoint trips stay inside.
type Region interface {
	// Contains reports whether p lies in the region.
	Contains(p geometry.Point) bool
	// Sample returns a uniform point of the region.
	Sample(r *rng.RNG) geometry.Point
	// Bounds returns an axis-aligned bounding rectangle.
	Bounds() geometry.Rect
	// Area returns vol(R).
	Area() float64
}

// SquareRegion is the square [0, L]².
type SquareRegion struct {
	L float64
}

var _ Region = SquareRegion{}

// Contains implements Region.
func (s SquareRegion) Contains(p geometry.Point) bool {
	return geometry.Square(s.L).Contains(p)
}

// Sample implements Region.
func (s SquareRegion) Sample(r *rng.RNG) geometry.Point {
	return geometry.Point{X: r.Float64() * s.L, Y: r.Float64() * s.L}
}

// Bounds implements Region.
func (s SquareRegion) Bounds() geometry.Rect { return geometry.Square(s.L) }

// Area implements Region.
func (s SquareRegion) Area() float64 { return s.L * s.L }

// DiskRegion is the disk of the given radius centered at (Radius, Radius),
// so its bounding box starts at the origin.
type DiskRegion struct {
	Radius float64
}

var _ Region = DiskRegion{}

// center returns the disk center.
func (d DiskRegion) center() geometry.Point {
	return geometry.Point{X: d.Radius, Y: d.Radius}
}

// Contains implements Region.
func (d DiskRegion) Contains(p geometry.Point) bool {
	return geometry.Dist(p, d.center()) <= d.Radius
}

// Sample implements Region using the exact polar method (radius ∝ √U).
func (d DiskRegion) Sample(r *rng.RNG) geometry.Point {
	rad := d.Radius * math.Sqrt(r.Float64())
	theta := r.Float64() * 2 * math.Pi
	c := d.center()
	return geometry.Point{X: c.X + rad*math.Cos(theta), Y: c.Y + rad*math.Sin(theta)}
}

// Bounds implements Region.
func (d DiskRegion) Bounds() geometry.Rect {
	return geometry.Square(2 * d.Radius)
}

// Area implements Region.
func (d DiskRegion) Area() float64 { return math.Pi * d.Radius * d.Radius }

// RegionWaypoint simulates the random waypoint model over an arbitrary
// convex Region; it implements dyngraph.Dynamic. Waypoint over the square
// (the Waypoint type) is the special case Region = SquareRegion, kept
// separate for its closed-form density comparisons.
type RegionWaypoint struct {
	region Region
	radius float64
	vmin   float64
	vmax   float64
	r      *rng.RNG
	pos    []geometry.Point
	dest   []geometry.Point
	speed  []float64
	cells  *geometry.CellList
	delta  geomDelta // incremental churn engine (native DeltaBatcher)
}

// NewRegionWaypoint builds the model with steady-state trip initialization
// (trips weighted by length, position uniform along the trip, speed ∝ 1/v).
func NewRegionWaypoint(n int, region Region, radius, vmin, vmax float64, r *rng.RNG) *RegionWaypoint {
	if n < 1 || radius <= 0 || vmin <= 0 || vmax < vmin {
		panic("mobility: invalid RegionWaypoint parameters")
	}
	w := &RegionWaypoint{
		region: region,
		radius: radius,
		vmin:   vmin,
		vmax:   vmax,
		r:      r,
		pos:    make([]geometry.Point, n),
		dest:   make([]geometry.Point, n),
		speed:  make([]float64, n),
	}
	bounds := region.Bounds()
	maxDist := math.Hypot(bounds.W(), bounds.H())
	for i := range w.pos {
		// Steady-state trip sampling, as in Waypoint.steadyStateTrip.
		var a, b geometry.Point
		for {
			a, b = region.Sample(r), region.Sample(r)
			d := geometry.Dist(a, b)
			if d > 0 && r.Float64() < d/maxDist {
				break
			}
		}
		w.pos[i] = geometry.Lerp(a, b, r.Float64())
		w.dest[i] = b
		u := r.Float64()
		w.speed[i] = vmin * math.Pow(vmax/vmin, u)
	}
	w.cells = geometry.NewCellList(bounds, radius, w.pos)
	return w
}

// N implements dyngraph.Dynamic.
func (w *RegionWaypoint) N() int { return len(w.pos) }

// Step implements dyngraph.Dynamic. New positions are staged and committed
// through the incremental churn engine (see Waypoint.Step); the kinematics
// and RNG draw order are unchanged from the rebuild-per-step original.
func (w *RegionWaypoint) Step() {
	next := w.delta.stage(len(w.pos))
	for i := range w.pos {
		np, reached := geometry.StepToward(w.pos[i], w.dest[i], w.speed[i])
		next[i] = np
		if reached {
			w.dest[i] = w.region.Sample(w.r)
			w.speed[i] = w.r.Range(w.vmin, w.vmax)
		}
	}
	w.delta.commit(w.pos, w.cells, w.radius*w.radius)
}

// Positions returns current positions (shared; do not modify).
func (w *RegionWaypoint) Positions() []geometry.Point { return w.pos }
