package flood

import (
	"repro/internal/bitset"
	"repro/internal/dyngraph"
	"repro/internal/eventwheel"
	"repro/internal/rng"
)

// Scratch is the reusable working state of one spreading run: the informed
// and pending bitsets, the tracked adjacency, the member/active queues and
// the sampling buffer. Every engine in this package draws its state from a
// Scratch, so a caller that runs many trials — internal/study gives each
// worker one — pays the allocation cost once and every later trial runs
// the hot loop with zero heap allocations (asserted by the *ZeroAlloc
// tests).
//
// A Scratch may be reused freely across sequential runs of any engines and
// any models (each run resets exactly the state it uses), but never shared
// across concurrent runs. The zero value is ready to use; a nil
// Opts.Scratch simply makes the run allocate private state, preserving the
// fire-and-forget call style.
type Scratch struct {
	// informed is I_t; pending accumulates the nodes reached during the
	// current step, committed into informed at step end (Absorb) so that
	// same-step chained propagation — wrong in a dynamic graph — cannot
	// happen.
	informed bitset.Set
	pending  bitset.Set
	// queue holds the node list driving a round: informed members (k-push),
	// uninformed nodes (pull), active transmitters (flood, parsimonious).
	queue []int32
	// newly collects nodes informed this round when the engine needs them
	// individually (flood activation, parsimonious window bookkeeping).
	newly []int32
	// expiry is parsimonious' per-node last-transmission step.
	expiry []int32
	// sample receives one node's k-push contacts.
	sample []int32
	// tr follows the model a run floods: its Adjacency, seeded from one
	// snapshot batch and maintained from the model's per-step churn, is
	// where every engine reads neighbors. Its churn counters accumulate
	// across every run sharing this scratch; internal/study harvests them
	// into the born_per_step/died_per_step/moved_per_step telemetry gauges.
	tr dyngraph.Tracker
	// active marks informed nodes that may still have uninformed neighbors
	// — the only nodes the flood engine scans each step. A node
	// leaves the set when a scan finds its neighborhood fully informed and
	// re-enters only when a born edge touches it. Two-level: the per-step
	// member sweep walks O(active words), not O(n/64) — at n = 10^6 the
	// active set collapses to a handful of nodes for most of the run and a
	// flat sweep would dominate the step.
	active bitset.TwoLevel
	// fresh is the flood engine's pending set — the nodes reached during
	// the current step. Two-level for the same reason as active: listing
	// and committing the step's few newly informed nodes must not cost a
	// walk over the whole universe.
	fresh bitset.TwoLevel
	// wheel is the async engine's event scheduler; clocks its per-node
	// Poisson-clock RNG streams. Both are sized lazily by the first async
	// run and reused across trials like every other buffer.
	wheel  *eventwheel.Wheel
	clocks []rng.RNG
}

// NewScratch returns an empty Scratch. Buffers are sized lazily by the
// first run and grow monotonically, so one Scratch serves mixed workloads.
func NewScratch() *Scratch { return &Scratch{} }

// Bytes returns the heap bytes currently retained by the scratch's
// buffers — the number a telemetry gauge reports as the per-worker memory
// footprint of the spreading engine. It is an accounting sum over backing
// array capacities (bitset words, index buffers, the tracked adjacency),
// not a runtime measurement, so it is cheap enough to call between trials
// but is NOT part of the zero-alloc hot path contract.
func (sc *Scratch) Bytes() int64 {
	b := sc.informed.Bytes() + sc.pending.Bytes() + sc.active.Bytes() + sc.fresh.Bytes()
	b += int64(cap(sc.queue))*4 + int64(cap(sc.newly))*4 + int64(cap(sc.expiry))*4
	b += int64(cap(sc.sample)) * 4
	b += sc.tr.Bytes()
	if sc.wheel != nil {
		b += sc.wheel.Bytes()
	}
	b += int64(cap(sc.clocks)) * 8
	return b
}

// ChurnTotals returns the cumulative churn the engines streamed through
// this scratch across every run that shared it: edges born, edges died,
// nodes moved (0 unless the model reports motion via
// dyngraph.MoveReporter), and model steps consumed. internal/study turns
// the totals into the born_per_step/died_per_step/moved_per_step
// telemetry gauges.
func (sc *Scratch) ChurnTotals() (born, died, moved, steps int64) {
	return sc.tr.Totals()
}

// reset prepares the scratch for a run over n nodes. Only the bitsets need
// clearing — slice buffers are truncated at use sites and expiry is fully
// overwritten before any read.
func (sc *Scratch) reset(n int) {
	sc.informed.Reset(n)
	sc.pending.Reset(n)
}

// expirySlice returns the expiry buffer sized to n. Values are garbage
// until assigned; parsimonious assigns every entry it later reads.
func (sc *Scratch) expirySlice(n int) []int32 {
	if cap(sc.expiry) < n {
		sc.expiry = make([]int32, n)
	}
	return sc.expiry[:n]
}

// asyncState returns the event wheel (reset for n nodes) and the per-node
// clock buffer of the async engine. Clock entries are garbage until
// reseeded; Async reseeds every entry before any draw.
func (sc *Scratch) asyncState(n int) (*eventwheel.Wheel, []rng.RNG) {
	if sc.wheel == nil {
		sc.wheel = eventwheel.New(TicksPerStep, asyncWheelBuckets)
	}
	sc.wheel.Reset(n)
	if cap(sc.clocks) < n {
		sc.clocks = make([]rng.RNG, n)
	}
	return sc.wheel, sc.clocks[:n]
}
