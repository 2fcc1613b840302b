package edgemeg

import (
	"fmt"

	"repro/internal/dyngraph"
	"repro/internal/markov"
	"repro/internal/rng"
)

// General is the paper's generalized edge-MEG EM(n, M, χ) (Appendix A):
// every potential edge independently follows an arbitrary hidden Markov
// chain M over states S, and the edge is present exactly when χ(state) is
// true. The basic two-state model is the special case S = {off, on},
// χ = identity.
//
// Because edges are independent, the β-independence condition of Theorem 1
// always holds with β = 1, and the flooding bound reduces to
// O(Tmix (1/(nα) + 1)² log² n) with α the stationary probability of
// {χ(s) = 1}.
type General struct {
	n       int
	chain   *markov.Chain
	sampler *markov.Sampler
	chi     []bool
	r       *rng.RNG
	states  []int32 // per pair, pairRank order
	pairs   int64
	// born and died record the edges whose presence flipped in the most
	// recent Step, backing dyngraph.DeltaBatcher; buffers are reused.
	born, died []dyngraph.Edge
	// cc is the per-state-class fast sampler (stream=v2), nil under the
	// default per-pair sweep; see UseClassChains.
	cc *classChains
}

// NewGeneral builds a generalized edge-MEG with each edge's initial state
// drawn independently from init (a distribution over the chain's states).
// Pass the chain's stationary distribution to start the MEG stationary.
func NewGeneral(n int, chain *markov.Chain, chi []bool, init []float64, r *rng.RNG) (*General, error) {
	if n < 2 {
		return nil, fmt.Errorf("edgemeg: need at least 2 nodes, got %d", n)
	}
	if len(chi) != chain.N() {
		return nil, fmt.Errorf("edgemeg: chi has %d entries, chain has %d states", len(chi), chain.N())
	}
	if len(init) != chain.N() {
		return nil, fmt.Errorf("edgemeg: init has %d entries, chain has %d states", len(init), chain.N())
	}
	pairs := pairCount(n)
	g := &General{
		n:       n,
		chain:   chain,
		sampler: markov.NewSampler(chain),
		chi:     append([]bool(nil), chi...),
		r:       r,
		states:  make([]int32, pairs),
		pairs:   pairs,
	}
	initAlias := rng.NewAlias(init)
	for i := range g.states {
		g.states[i] = int32(initAlias.Sample(r))
	}
	return g, nil
}

// StationaryAlpha returns the stationary probability that an edge exists:
// Σ_{s: χ(s)} π(s), computed from the chain's exact stationary law.
func StationaryAlpha(chain *markov.Chain, chi []bool) (float64, error) {
	pi, err := chain.StationaryExact()
	if err != nil {
		return 0, fmt.Errorf("edgemeg: stationary alpha: %w", err)
	}
	alpha := 0.0
	for s, on := range chi {
		if on {
			alpha += pi[s]
		}
	}
	return alpha, nil
}

// N implements dyngraph.Dynamic.
func (g *General) N() int { return g.n }

// Step implements dyngraph.Dynamic: every edge's hidden state advances one
// step of M independently. The sweep tracks the pair coordinates alongside
// the rank, recording each presence flip as a delta edge.
func (g *General) Step() {
	if g.cc != nil {
		g.stepClasses()
		return
	}
	g.born, g.died = g.born[:0], g.died[:0]
	rank := int64(0)
	for u := 0; u < g.n-1; u++ {
		for v := u + 1; v < g.n; v++ {
			old := g.states[rank]
			next := int32(g.sampler.Next(int(old), g.r))
			g.states[rank] = next
			if was, is := g.chi[old], g.chi[next]; is != was {
				if is {
					g.born = append(g.born, dyngraph.Edge{U: int32(u), V: int32(v)})
				} else {
					g.died = append(g.died, dyngraph.Edge{U: int32(u), V: int32(v)})
				}
			}
			rank++
		}
	}
}

// AppendEdges implements dyngraph.Dynamic by scanning the per-pair state
// vector once in rank order, tracking the pair coordinates incrementally
// instead of inverting each rank.
func (g *General) AppendEdges(dst []dyngraph.Edge) []dyngraph.Edge {
	rank := int64(0)
	for u := 0; u < g.n-1; u++ {
		for v := u + 1; v < g.n; v++ {
			if g.chi[g.states[rank]] {
				dst = append(dst, dyngraph.Edge{U: int32(u), V: int32(v)})
			}
			rank++
		}
	}
	return dst
}

// AppendDeltas implements dyngraph.DeltaBatcher, serving the presence
// flips the last Step recorded.
func (g *General) AppendDeltas(born, died []dyngraph.Edge) (b, d []dyngraph.Edge) {
	return append(born, g.born...), append(died, g.died...)
}

// HasEdge reports whether {i, j} currently exists; a pair with an
// endpoint outside [0, n) never does.
func (g *General) HasEdge(i, j int) bool {
	if !isPair(i, j, g.n) {
		return false
	}
	return g.chi[g.states[pairRank(i, j, g.n)]]
}

// EdgeCount returns the current number of edges.
func (g *General) EdgeCount() int {
	total := 0
	for rank := int64(0); rank < g.pairs; rank++ {
		if g.chi[g.states[rank]] {
			total++
		}
	}
	return total
}
