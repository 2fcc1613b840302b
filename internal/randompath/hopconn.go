package randompath

import (
	"fmt"
	"sort"

	"repro/internal/markov"
	"repro/internal/nodemeg"
	"repro/internal/rng"
)

// HopConnection connects two states when their points are within hop
// distance r in the mobility graph H; r = 0 connects states at the same
// point. This is the general transmission model of Section 4.1 for walks
// on graphs: "The transmission radius r determines the maximal distance
// (again in terms of number of hops in H(V,A)) within which a message can
// be successfully transmitted."
//
// Beyond fidelity, hop radius r >= 1 matters on bipartite mobility graphs
// (grids!): with unit-hop movement and same-point connection, every node's
// position parity class is invariant, so nodes in different classes never
// co-locate and flooding provably stalls at one parity class. A hop radius
// of 1 restores cross-parity contact. See TestParityObstruction.
type HopConnection struct {
	pointOf    []int32
	nearStates [][]int32 // per point: states at points within distance r
	nearPoints [][]int32 // per point: sorted points within distance r
}

var _ nodemeg.ConnectionMap = (*HopConnection)(nil)
var _ nodemeg.NeighborEnumerator = (*HopConnection)(nil)

// HopConnection builds the radius-r connection map for the model. The
// precomputation runs one truncated BFS per point, O(|V| · ball size).
func (m *Model) HopConnection(r int) (*HopConnection, error) {
	if r < 0 {
		return nil, fmt.Errorf("randompath: hop radius %d < 0", r)
	}
	h := m.h
	c := &HopConnection{
		pointOf:    m.pointOf,
		nearStates: make([][]int32, h.N()),
		nearPoints: make([][]int32, h.N()),
	}
	dist := make([]int, h.N())
	for src := 0; src < h.N(); src++ {
		for i := range dist {
			dist[i] = -1
		}
		dist[src] = 0
		queue := []int32{int32(src)}
		ball := []int32{int32(src)}
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			if dist[v] == r {
				continue
			}
			h.ForEachNeighbor(int(v), func(u int) {
				if dist[u] == -1 {
					dist[u] = dist[v] + 1
					queue = append(queue, int32(u))
					ball = append(ball, int32(u))
				}
			})
		}
		sort.Slice(ball, func(i, j int) bool { return ball[i] < ball[j] })
		c.nearPoints[src] = ball
		var states []int32
		for _, u := range ball {
			states = append(states, m.byPoint[u]...)
		}
		c.nearStates[src] = states
	}
	return c, nil
}

// NumStates implements nodemeg.ConnectionMap.
func (c *HopConnection) NumStates() int { return len(c.pointOf) }

// Connected implements nodemeg.ConnectionMap.
func (c *HopConnection) Connected(u, v int) bool {
	pu, pv := c.pointOf[u], c.pointOf[v]
	ball := c.nearPoints[pu]
	i := sort.Search(len(ball), func(i int) bool { return ball[i] >= pv })
	return i < len(ball) && ball[i] == pv
}

// NeighborStates implements nodemeg.NeighborEnumerator.
func (c *HopConnection) NeighborStates(s int) []int32 {
	return c.nearStates[c.pointOf[s]]
}

// NewSimHopRadius builds the node-MEG simulation of n nodes moving under
// the model with the radius-r hop connection (r = 0: same point), starting
// from the uniform distribution over states — the exact stationary law
// when the family is simple and reversible.
func (m *Model) NewSimHopRadius(n, r int, rg *rng.RNG) (*nodemeg.Sim, error) {
	conn, err := m.HopConnection(r)
	if err != nil {
		return nil, err
	}
	init := make([]float64, m.nstates)
	for i := range init {
		init[i] = 1 / float64(m.nstates)
	}
	sim, err := nodemeg.NewSim(n, markov.NewSparseSampler(m.Chain()), conn, init, rg)
	if err != nil {
		return nil, fmt.Errorf("randompath: building hop-radius sim: %w", err)
	}
	return sim, nil
}
