// Package geometry provides the planar-geometry substrate used by the
// geometric mobility models: points, rectangles, distance functions, and a
// cell-list spatial index for radius neighbor queries.
package geometry

import "math"

// Point is a point in the plane.
type Point struct {
	X, Y float64
}

// Add returns p + q componentwise.
func (p Point) Add(q Point) Point { return Point{p.X + q.X, p.Y + q.Y} }

// Sub returns p - q componentwise.
func (p Point) Sub(q Point) Point { return Point{p.X - q.X, p.Y - q.Y} }

// Dist returns the Euclidean distance between p and q.
func Dist(p, q Point) float64 { return math.Hypot(p.X-q.X, p.Y-q.Y) }

// Dist2 returns the squared Euclidean distance between p and q. Prefer it in
// hot loops to avoid the square root.
func Dist2(p, q Point) float64 {
	dx := p.X - q.X
	dy := p.Y - q.Y
	return dx*dx + dy*dy
}

// Lerp returns the point a fraction t of the way from p to q.
func Lerp(p, q Point, t float64) Point {
	return Point{p.X + (q.X-p.X)*t, p.Y + (q.Y-p.Y)*t}
}

// StepToward returns the point reached by moving from p toward q by at most
// dist, and whether q was reached. Moving distance zero or toward the same
// point reports reached.
func StepToward(p, q Point, dist float64) (Point, bool) {
	d := Dist(p, q)
	if d <= dist || d == 0 {
		return q, true
	}
	return Lerp(p, q, dist/d), false
}

// Rect is an axis-aligned rectangle [X0, X1] x [Y0, Y1].
type Rect struct {
	X0, Y0, X1, Y1 float64
}

// Square returns the square [0, side] x [0, side].
func Square(side float64) Rect { return Rect{0, 0, side, side} }

// W returns the rectangle's width.
func (r Rect) W() float64 { return r.X1 - r.X0 }

// H returns the rectangle's height.
func (r Rect) H() float64 { return r.Y1 - r.Y0 }

// Contains reports whether p lies in the closed rectangle.
func (r Rect) Contains(p Point) bool {
	return p.X >= r.X0 && p.X <= r.X1 && p.Y >= r.Y0 && p.Y <= r.Y1
}

// Clamp returns p moved to the nearest point inside the rectangle.
func (r Rect) Clamp(p Point) Point {
	return Point{
		X: math.Min(math.Max(p.X, r.X0), r.X1),
		Y: math.Min(math.Max(p.Y, r.Y0), r.Y1),
	}
}
