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
