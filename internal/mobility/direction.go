package mobility

import (
	"fmt"
	"math"

	"repro/internal/geometry"
	"repro/internal/rng"
)

// DirectionParams configures a random-direction model over [0, L]²: each
// node moves with constant speed along a heading, reflects off the walls,
// and redraws a uniform heading with probability Turn each step. Unlike the
// waypoint model its stationary positional density is uniform, which makes
// it a useful contrast in the Corollary 4 experiments (δ ≈ 1 exactly).
type DirectionParams struct {
	N     int
	L     float64
	R     float64
	Speed float64
	Turn  float64 // per-step probability of redrawing the heading
}

// Validate checks the parameters.
func (p DirectionParams) Validate() error {
	if p.N < 1 {
		return fmt.Errorf("mobility: need N >= 1, got %d", p.N)
	}
	if p.L <= 0 || p.R <= 0 || p.Speed <= 0 {
		return fmt.Errorf("mobility: need positive L, R, Speed")
	}
	if p.Turn < 0 || p.Turn > 1 {
		return fmt.Errorf("mobility: need 0 <= Turn <= 1, got %v", p.Turn)
	}
	return nil
}

// Direction simulates the random-direction model; it implements
// dyngraph.Dynamic.
type Direction struct {
	plane
	params  DirectionParams
	r       *rng.RNG
	heading []float64
}

// NewDirection builds the simulation with uniform positions and headings
// (which is already the stationary law of this model).
func NewDirection(params DirectionParams, r *rng.RNG) *Direction {
	if err := params.Validate(); err != nil {
		panic(err)
	}
	d := &Direction{
		plane:   plane{pos: make([]geometry.Point, params.N)},
		params:  params,
		r:       r,
		heading: make([]float64, params.N),
	}
	for i := range d.pos {
		d.pos[i] = geometry.Point{X: r.Float64() * params.L, Y: r.Float64() * params.L}
		d.heading[i] = r.Float64() * 2 * math.Pi
	}
	d.index(geometry.Square(params.L), params.R)
	return d
}

// Step implements dyngraph.Dynamic. New positions are staged and committed
// through the plane's churn engine (see Waypoint.Step).
func (d *Direction) Step() {
	next := d.next
	L := d.params.L
	for i := range d.pos {
		if d.r.Bool(d.params.Turn) {
			d.heading[i] = d.r.Float64() * 2 * math.Pi
		}
		nx := d.pos[i].X + d.params.Speed*math.Cos(d.heading[i])
		ny := d.pos[i].Y + d.params.Speed*math.Sin(d.heading[i])
		// Reflect off the walls, adjusting the heading accordingly.
		if nx < 0 {
			nx = -nx
			d.heading[i] = math.Pi - d.heading[i]
		} else if nx > L {
			nx = 2*L - nx
			d.heading[i] = math.Pi - d.heading[i]
		}
		if ny < 0 {
			ny = -ny
			d.heading[i] = -d.heading[i]
		} else if ny > L {
			ny = 2*L - ny
			d.heading[i] = -d.heading[i]
		}
		// A pathological speed > L could still escape after one reflection;
		// clamp as a safety net.
		next[i] = geometry.Square(L).Clamp(geometry.Point{X: nx, Y: ny})
	}
	d.commit()
}

// WarmUp advances the simulation steps times.
func (d *Direction) WarmUp(steps int) {
	for t := 0; t < steps; t++ {
		d.Step()
	}
}
