package flood

import (
	"repro/internal/bitset"
	"repro/internal/dyngraph"
	"repro/internal/rng"
)

// PushPull runs the combined push–pull gossip protocol over a dynamic
// graph: at every step each *informed* node transmits to at most k
// uniformly random current neighbors (the §5 randomized push) while each
// *uninformed* node queries one uniformly random current neighbor and
// becomes informed if that neighbor is (pull). It is the classic
// push–pull rumor spreading of Karp et al., run on dynamic snapshots —
// the variant compared across dynamic-graph families by Clementi et al.
// (2013) and Pourmiri–Mans (2020).
//
// The per-step cost profile sits between push and pull: early rounds are
// driven by the cheap push half (few informed nodes transmitting), late
// rounds by the pull half (few uninformed nodes querying an almost fully
// informed population), so neither phase pays the other's weakness. Both
// halves observe the informed set as of the start of the step
// (synchronous sweep), and RNG consumption is in node order — informed
// nodes draw their push targets, uninformed nodes their pull target — so
// equal (graph realization, RNG stream) pairs replay exactly.
//
// Both draws index into the tracked adjacency's lists, as in Pull and
// RandomizedPush, whose push half this engine shares.
func PushPull(d dyngraph.Dynamic, source, k int, r *rng.RNG, opts Opts) Result {
	if k <= 0 {
		panic("flood: PushPull needs k > 0")
	}
	sc, res, done := start(d, source, opts)
	if done {
		return res
	}
	adj := &sc.tr.Adj
	informed, pending := sc.informed, sc.pending
	n := informed.Len()

	maxSteps := opts.maxSteps()
	for t := 0; t < maxSteps; t++ {
		// Message accounting: every push contact delivers the rumor (one
		// message each, useful or not); a pull costs one only when the
		// queried neighbor is informed and answers, like the Pull engine.
		var msgs int64
		for i := 0; i < n; i++ {
			nbrs := adj.Neighbors(i)
			if len(nbrs) == 0 {
				continue
			}
			if informed.Get(i) {
				msgs += sc.push(i, k, r, &pending)
			} else if !pending.Get(i) {
				// Pull: query one random neighbor's start-of-step state. A
				// node already pushed to this step is informed anyway, so it
				// skips its pull and the draw.
				if informed.Get(int(nbrs[r.Intn(len(nbrs))])) {
					msgs++
					pending.Set(i)
				}
			}
		}
		if record(&res, opts, n, informed.Absorb(&pending), t, msgs) {
			return res
		}
		sc.tr.Step()
	}
	return res
}

// push delivers informed node i's transmissions for one step — the §5
// push shared by RandomizedPush and PushPull: i contacts min(k, deg i)
// distinct uniform current neighbors drawn from r, marking them pending,
// and the call returns the number of messages sent.
func (sc *Scratch) push(i, k int, r *rng.RNG, pending *bitset.Set) int64 {
	sc.sample = sc.tr.Adj.Sample(i, k, r, sc.sample[:0])
	for _, j := range sc.sample {
		pending.Set(int(j))
	}
	return int64(len(sc.sample))
}
