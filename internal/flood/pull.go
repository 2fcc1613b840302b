package flood

import (
	"repro/internal/dyngraph"
	"repro/internal/rng"
)

// Pull runs the pull-gossip protocol over a dynamic graph: at every step,
// each *uninformed* node queries one uniformly random current neighbor and
// becomes informed if that neighbor is. The paper's conclusions note that
// such protocols "might also be reduced to flooding by folding the actions
// of the protocol into the dynamic graph process" — pull is flooding on the
// virtual graph keeping, per uninformed node, one incoming edge.
//
// Pull inverts flooding's cost profile: per-step work is O(Σ_{uninformed}
// deg) and the saturation phase is fast (stragglers pull from an almost
// fully informed population) while the early phase is slow. The sweep is
// synchronous: all pulls observe the informed set as of the start of the
// step — successful pulls land in the pending bitset and are committed at
// step end. The uninformed sweep itself iterates the complement of the
// informed bitset word-wise, so fully-informed words (the common case in
// the late phase pull is good at) cost one compare.
//
// Each query is a uniform index into the node's list in the tracked
// adjacency, so it names a uniform current neighbor whatever the list
// order; the order only decides which neighbor a fixed seed's draw names.
func Pull(d dyngraph.Dynamic, source int, r *rng.RNG, opts Opts) Result {
	sc, res, done := start(d, source, opts)
	if done {
		return res
	}
	adj := &sc.tr.Adj
	informed, pending := sc.informed, sc.pending
	n := informed.Len()

	maxSteps := opts.maxSteps()
	for t := 0; t < maxSteps; t++ {
		sc.queue = informed.AppendUnset(sc.queue[:0])
		// Message accounting: only an answered query moves the rumor — a
		// query to an uninformed neighbor transfers nothing and costs
		// nothing — and each success first-informs its own querier, so pull
		// is the zero-waste engine: Useless stays 0 by construction.
		var msgs int64
		for _, i := range sc.queue {
			nbrs := adj.Neighbors(int(i))
			if len(nbrs) == 0 {
				continue
			}
			if informed.Get(int(nbrs[r.Intn(len(nbrs))])) {
				msgs++
				pending.Set(int(i))
			}
		}
		if record(&res, opts, n, informed.Absorb(&pending), t, msgs) {
			return res
		}
		sc.tr.Step()
	}
	return res
}
