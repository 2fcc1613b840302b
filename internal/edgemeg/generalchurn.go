package edgemeg

import (
	"repro/internal/dyngraph"
	"repro/internal/rng"
)

// classChains is the O(churn)-per-step state of the generalized edge-MEG's
// fast sampler (stream=v2): pairs are bucketed by hidden state, and a step
// samples, per state class s, which members leave — geometric skipping
// over the class list with success probability leave(s) = 1 − M[s][s],
// the same device the sparse two-state fast path uses — and, for each
// leaver, its destination from the conditional law M[s][·]/leave(s) by
// one alias draw. The per-pair sweep draws one transition per pair per
// step, O(pairs) RNG calls; this draws O(moves), which in the
// slowly-mixing regimes the paper studies (leave(s) ≪ 1) is smaller by
// the mixing time.
//
// The transition law is exactly the chain's: a member of class s moves
// with probability leave(s), and conditionally on moving lands on j ≠ s
// with probability M[s][j]/leave(s) — the decomposition of one M-step.
// The RNG STREAM differs from the sweep, so fixed-seed trajectories
// differ (same distribution); the sweep remains the stream=v1 default and
// keeps every pin.
type classChains struct {
	// members[s] lists the ranks currently in state s; cpos[rank] is the
	// rank's index in its class list (swap-remove maintenance). Membership
	// is scanned per class in list order, and moves apply only after every
	// class was sampled, so each step reads pre-step membership exactly.
	members [][]int64
	cpos    []int32
	// leave[s] = 1 − M[s][s]; dest[s] enumerates the states reachable from
	// s in one move; alias[s] draws from dest[s] with the conditional
	// weights M[s][j] (nil when a single destination makes the draw
	// trivial). Built once per simulator, no RNG consumed.
	leave []float64
	dest  [][]int32
	alias []*rng.Alias
	moves []classMove // per-step scratch, reused
}

// maxClassPos bounds the class-list positions cpos stores as int32.
const maxClassPos = 1<<31 - 2

// classMove is one sampled transition: rank leaves its current state for to.
type classMove struct {
	rank int64
	to   int32
}

// UseClassChains switches the simulator's Step to the per-state-class
// O(moves) sampler — the stream=v2 fast path. It must be called before
// the first Step; the class lists are built from the current state vector
// in rank order, deterministically, consuming no randomness.
func (g *General) UseClassChains() {
	if g.pairs > maxClassPos {
		panic("edgemeg: class-chain sampler exceeds int32 class positions")
	}
	S := g.chain.N()
	cc := &classChains{
		members: make([][]int64, S),
		cpos:    make([]int32, g.pairs),
		leave:   make([]float64, S),
		dest:    make([][]int32, S),
		alias:   make([]*rng.Alias, S),
	}
	for s := 0; s < S; s++ {
		row := g.chain.Row(s)
		var w []float64
		for j, pj := range row {
			if j == s || pj <= 0 {
				continue
			}
			cc.dest[s] = append(cc.dest[s], int32(j))
			w = append(w, pj)
		}
		cc.leave[s] = 1 - row[s]
		if len(cc.dest[s]) > 1 {
			cc.alias[s] = rng.NewAlias(w)
		}
	}
	for rank, s := range g.states {
		cc.cpos[rank] = int32(len(cc.members[s]))
		cc.members[s] = append(cc.members[s], int64(rank))
	}
	g.cc = cc
}

// stepClasses is Step under the class-chain sampler. Every class is
// sampled from its pre-step membership before any move applies, so a pair
// moved into class s' this step cannot be re-drawn from s'.
func (g *General) stepClasses() {
	g.born, g.died = g.born[:0], g.died[:0]
	cc := g.cc
	cc.moves = cc.moves[:0]
	for s := range cc.members {
		leave := cc.leave[s]
		if leave <= 0 {
			continue
		}
		list := cc.members[s]
		gap := rng.NewGeometric(leave)
		for i := int64(gap.Draw(g.r)); i < int64(len(list)); i += 1 + int64(gap.Draw(g.r)) {
			cc.moves = append(cc.moves, classMove{rank: list[i], to: g.drawDest(s)})
		}
	}
	for _, mv := range cc.moves {
		g.applyMove(mv)
	}
}

// drawDest samples the destination of a leaver of class s from the
// conditional law M[s][·]/leave(s).
func (g *General) drawDest(s int) int32 {
	cc := g.cc
	if a := cc.alias[s]; a != nil {
		return cc.dest[s][a.Sample(g.r)]
	}
	return cc.dest[s][0]
}

// applyMove commits one sampled transition: class lists (swap-remove +
// append), the state vector, and the delta record when presence flips.
func (g *General) applyMove(mv classMove) {
	cc := g.cc
	from := g.states[mv.rank]
	l := cc.members[from]
	i := cc.cpos[mv.rank]
	last := int32(len(l) - 1)
	moved := l[last]
	l[i] = moved
	cc.cpos[moved] = i
	cc.members[from] = l[:last]
	cc.cpos[mv.rank] = int32(len(cc.members[mv.to]))
	cc.members[mv.to] = append(cc.members[mv.to], mv.rank)
	g.states[mv.rank] = mv.to
	if was, is := g.chi[from], g.chi[mv.to]; is != was {
		u, v := pairFromRank(mv.rank, g.n)
		if is {
			g.born = append(g.born, dyngraph.Edge{U: int32(u), V: int32(v)})
		} else {
			g.died = append(g.died, dyngraph.Edge{U: int32(u), V: int32(v)})
		}
	}
}
