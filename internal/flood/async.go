package flood

import (
	"math"

	"repro/internal/dyngraph"
	"repro/internal/rng"
)

// The asynchronous engine's integer clock: TicksPerStep ticks of event time
// span one graph step, so the snapshot E_t holds during ticks
// [t·TicksPerStep, (t+1)·TicksPerStep). The resolution bounds the
// quantization of the exponential inter-firing gaps (a gap is never rounded
// below one tick); 2^16 keeps the rounding error orders of magnitude below
// the law-of-large-numbers noise of any feasible trial count while leaving
// int64 event time effectively unbounded (~10^14 steps).
const TicksPerStep = 1 << 16

// asyncWheelBuckets is the event wheel's ring size in graph steps. Gaps are
// exponential with mean 1/rate steps, so for any sane rate almost every
// reschedule lands within the ring; the overflow heap absorbs the tail.
const asyncWheelBuckets = 64

// Async runs the asynchronous push protocol of Pourmiri–Mans over a
// dynamic graph: every node carries a private Poisson clock of the given
// rate (expected firings per graph step), and when an informed node's
// clock fires it transmits the rumor to one uniformly random CURRENT
// neighbor, which is informed immediately — no lockstep rounds, so a node
// informed early in a step can itself transmit before the step ends. The
// graph still evolves in discrete steps (snapshot E_t holds while clocks
// fire during step t), which is exactly the regime the dynamic-graph
// rumor-spreading analyses study: node clocks are asynchronous, the
// adversary's rewiring is not.
//
// Clocks are integer-valued under the hood (TicksPerStep ticks per step)
// and driven by the event wheel of internal/eventwheel. Determinism and
// worker-independence come from per-node RNG streams: node i's clock (and
// its contact draws) consume rng.Seed(clockSeed, i) exclusively, so the
// trajectory is a pure function of (graph realization, clockSeed) — the
// wheel fires in deterministic (tick, node) order, and no draw depends on
// scheduling.
//
// The contact draw is insensitive to neighbor-list ORDER: one draw s per
// firing gives every current neighbor j the priority rng.Seed(s, j), and
// the minimum wins — uniform over the neighbor set, ties broken by node
// id. Any two delta streams that describe the same snapshots therefore
// produce byte-identical runs, pinned by the async equivalence tests.
//
// Result semantics match the synchronous engines at step granularity:
// Time/HalfTime/Timeline record informed-set sizes at step boundaries, and
// Messages/Useless count every transmission (an isolated node's firing
// sends nothing and costs nothing). Completion is detected at the end of
// the step that informed the last node, and the whole step's messages are
// counted — the nodes don't know the rumor saturated mid-step.
func Async(d dyngraph.Dynamic, source int, rate float64, clockSeed uint64, opts Opts) Result {
	if !(rate > 0) {
		panic("flood: Async needs rate > 0")
	}
	sc, res, done := start(d, source, opts)
	if done {
		return res
	}
	n := sc.informed.Len()
	wheel, clocks := sc.asyncState(n)
	for i := range clocks {
		clocks[i].Reseed(rng.Seed(clockSeed, uint64(i)))
	}
	for i := 0; i < n; i++ {
		wheel.Schedule(int32(i), gapTicks(&clocks[i], rate))
	}
	size := 1
	maxSteps := opts.maxSteps()
	for t := 0; t < maxSteps; t++ {
		msgs, newly := asyncFires(sc, rate, int64(t+1)*TicksPerStep)
		size += newly
		if record(&res, opts, n, size, t, msgs) {
			return res
		}
		sc.tr.Step()
	}
	return res
}

// gapTicks draws one exponential inter-firing gap of mean 1/rate graph
// steps from cl, quantized to ticks with a one-tick floor so firings
// always advance the clock.
func gapTicks(cl *rng.RNG, rate float64) int64 {
	u := cl.Float64() // in [0, 1), so 1-u is in (0, 1] and the log is finite
	ticks := int64(-math.Log(1-u) / rate * TicksPerStep)
	if ticks < 1 {
		ticks = 1
	}
	return ticks
}

// contact picks the transmission target among the current neighbors of a
// firing node: draw s names priority rng.Seed(s, j) for every neighbor j
// and the minimum wins, with ties broken by smaller id. Uniform over the
// neighbor SET and independent of list order — the property the async
// dispatch-path equivalence rests on. nbrs must be non-empty.
func contact(s uint64, nbrs []int32) int32 {
	best := nbrs[0]
	bestH := rng.Seed(s, uint64(best))
	for _, j := range nbrs[1:] {
		h := rng.Seed(s, uint64(j))
		if h < bestH || (h == bestH && j < best) {
			best, bestH = j, h
		}
	}
	return best
}

// asyncFires drains one step's firings (ticks below limit) against the
// tracked adjacency, informing contacts immediately, and returns the
// step's message count and first-time informs.
func asyncFires(sc *Scratch, rate float64, limit int64) (msgs int64, newly int) {
	wheel, clocks, informed := sc.wheel, sc.clocks, sc.informed
	for {
		node, tick, ok := wheel.PopBefore(limit)
		if !ok {
			return msgs, newly
		}
		cl := &clocks[node]
		if informed.Get(int(node)) {
			if nbrs := sc.tr.Adj.Neighbors(int(node)); len(nbrs) > 0 {
				msgs++
				j := int(contact(cl.Uint64(), nbrs))
				if !informed.Get(j) {
					informed.Set(j)
					newly++
				}
			}
		}
		wheel.Schedule(node, tick+gapTicks(cl, rate))
	}
}
