package mobility

import (
	"fmt"

	"repro/internal/markov"
	"repro/internal/nodemeg"
	"repro/internal/rng"
)

// DiscreteWaypoint builds the exact discretized random waypoint chain of
// Section 4.1 on an m x m grid with unit speed, as a sparse Markov chain
// suitable for exact stationary-distribution and mixing-time computation.
//
// State encoding: state = cur·m² + dest, where cur and dest are flat grid
// indices (i·m + j). Transitions follow the paper's description — "when a
// node is in some internal point of a path the choice of his next state is
// deterministic while when he arrives at the end of a path, his next state
// is randomly chosen by selecting the next destination point" — with
// L-shaped (Manhattan) trajectories: the node first aligns its row with the
// destination, then its column.
//
// Substitution note: the continuous model travels
// on straight Euclidean segments, whose exact discretization needs the trip
// origin in the state. L-shaped trips keep (cur, dest) Markovian with m⁴
// states, preserve the Θ(L/v) mixing time and the center-biased stationary
// positional law, and match the Manhattan-waypoint variant analyzed in the
// paper's reference [13].
func DiscreteWaypoint(m int) (*markov.Sparse, error) {
	if m < 2 {
		return nil, fmt.Errorf("mobility: DiscreteWaypoint needs m >= 2, got %d", m)
	}
	points := m * m
	states := points * points
	b := markov.NewSparseBuilder(states)
	uniform := 1 / float64(points)
	for cur := 0; cur < points; cur++ {
		ci, cj := cur/m, cur%m
		for dest := 0; dest < points; dest++ {
			s := cur*points + dest
			if cur == dest {
				// Trip finished: draw a fresh uniform destination (possibly
				// the current point, in which case the node idles a step —
				// the standard convention for discrete waypoint chains).
				for nd := 0; nd < points; nd++ {
					b.Set(s, cur*points+nd, uniform)
				}
				continue
			}
			di, dj := dest/m, dest%m
			// L-shaped movement: align row first, then column.
			ni, nj := ci, cj
			switch {
			case ci < di:
				ni = ci + 1
			case ci > di:
				ni = ci - 1
			case cj < dj:
				nj = cj + 1
			default:
				nj = cj - 1
			}
			b.Set(s, (ni*m+nj)*points+dest, 1)
		}
	}
	return b.Build()
}

// PositionalFromStateDist collapses a distribution over DiscreteWaypoint
// states to the positional distribution over the m² grid points.
func PositionalFromStateDist(stateDist []float64, m int) []float64 {
	points := m * m
	pos := make([]float64, points)
	for s, p := range stateDist {
		pos[s/points] += p
	}
	return pos
}

// samePosition connects two (cur, dest) waypoint states exactly when
// their current grid points coincide.
type samePosition struct {
	points int
	states [][]int32 // per point: all states currently at that point
}

func newSamePosition(points int) samePosition {
	c := samePosition{points: points, states: make([][]int32, points)}
	for p := 0; p < points; p++ {
		row := make([]int32, points)
		for d := 0; d < points; d++ {
			row[d] = int32(p*points + d)
		}
		c.states[p] = row
	}
	return c
}

// NumStates implements nodemeg.ConnectionMap.
func (c samePosition) NumStates() int { return c.points * c.points }

// Connected implements nodemeg.ConnectionMap.
func (c samePosition) Connected(u, v int) bool { return u/c.points == v/c.points }

// NeighborStates implements nodemeg.NeighborEnumerator.
func (c samePosition) NeighborStates(s int) []int32 { return c.states[s/c.points] }

// DiscreteWaypointSim simulates n nodes independently following the
// discretized waypoint chain on an m×m grid, connected when co-located —
// the exact node-MEG realization of the Section 4.1 discretization,
// started from the chain's stationary law.
type DiscreteWaypointSim struct {
	*nodemeg.Sim
	m     int
	chain *markov.Sparse
	pi    []float64
}

// NewDiscreteWaypointSim builds the simulation.
func NewDiscreteWaypointSim(n, m int, r *rng.RNG) (*DiscreteWaypointSim, error) {
	chain, err := DiscreteWaypoint(m)
	if err != nil {
		return nil, err
	}
	pi, err := chain.StationaryPower(1e-10, 200000)
	if err != nil {
		return nil, fmt.Errorf("mobility: discrete waypoint stationary: %w", err)
	}
	sim, err := nodemeg.NewSim(n, markov.NewSparseSampler(chain), newSamePosition(m*m), pi, r)
	if err != nil {
		return nil, fmt.Errorf("mobility: building discrete waypoint sim: %w", err)
	}
	return &DiscreteWaypointSim{Sim: sim, m: m, chain: chain, pi: pi}, nil
}

// MixingChain implements model.ChainAnalyzer.
func (s *DiscreteWaypointSim) MixingChain() (*markov.Sparse, []float64) { return s.chain, s.pi }

// DiscreteWaypointMixing computes the exact stationary distribution of the
// discretized waypoint chain and its single-start mixing time from a corner
// state, returning (positional distribution, mixing time). The corner is
// the slowest-mixing start by symmetry. eps is the TV threshold and maxT
// the search cap.
func DiscreteWaypointMixing(m int, eps float64, maxT int) (posDist []float64, tmix int, err error) {
	chain, err := DiscreteWaypoint(m)
	if err != nil {
		return nil, 0, err
	}
	pi, err := chain.StationaryPower(1e-10, 200000)
	if err != nil {
		return nil, 0, fmt.Errorf("mobility: discrete waypoint stationary: %w", err)
	}
	// Corner start: cur = dest = point (0,0), i.e. state 0.
	tmix, err = chain.MixingTimeFromStart(0, pi, eps, maxT)
	if err != nil {
		return nil, 0, err
	}
	return PositionalFromStateDist(pi, m), tmix, nil
}
