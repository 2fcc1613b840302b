// Package flood implements the spreading-process engines studied by the
// paper over any dynamic graph: the flooding process of Section 2, the
// randomized k-push protocol of Section 5, pull gossip, the combined
// push–pull protocol, and the parsimonious flooding of Baumann–Crescenzi–
// Fraigniaud [4] — all sharing one Result bookkeeping and phase-tracking
// core (start/record), plus the timeline instrumentation of Lemmas 13–14.
//
// The engines here are the low-level deterministic processes; entry points
// select and build them through the spec-driven registry of
// internal/protocol and run trial grids through internal/study.
//
// Flooding semantics follow the paper exactly: I_0 = {s}, and a node j
// becomes informed at time t+1 iff some edge of the snapshot E_t connects j
// to a node of I_t. Because the graph changes every step, a node informed
// long ago can meet an uninformed node at any later time, so
// frontier-only propagation would be incorrect.
//
// Every engine reads the model through one contract: it follows the model
// with the scratch's dyngraph.Tracker, reads neighbors from the tracked
// Adjacency, and advances the model only through the Tracker.
package flood

import (
	"repro/internal/dyngraph"
	"repro/internal/rng"
)

// Result reports one spreading-process execution.
type Result struct {
	// Time is the completion time: the first t with I_t = [n], or -1 if the
	// run hit MaxSteps (or died) before completing.
	Time int
	// HalfTime is the first t with |I_t| >= n/2 (the spreading phase
	// boundary of Lemma 13), or -1 if never reached.
	HalfTime int
	// Informed is the final informed-set size |I_t| when the run ended
	// (== n iff Completed). It is always populated, unlike Timeline,
	// which requires KeepTimeline.
	Informed int
	// Timeline records |I_t| for t = 0, 1, ..., up to completion or cutoff.
	Timeline []int
	// Completed reports whether every node was informed within MaxSteps.
	Completed bool
	// Messages counts rumor transmissions over the whole run: every
	// delivery of the rumor from an informed node to a neighbor. Flooding
	// transmits once per (informed endpoint, edge) per step — an edge with
	// both endpoints informed costs two messages; push-style engines
	// transmit once per contact; pull once per answered query (a query to
	// an uninformed node transfers nothing and costs nothing).
	Messages int64
	// Useless counts messages that informed no one: deliveries to nodes
	// already informed, or first informed by another message of the same
	// step. Every non-source node is first informed by exactly one
	// message, so the conservation law
	//
	//	Messages == Useless + (Informed - 1)
	//
	// holds exactly for every engine — the cost metric of Ahmadi–Kuhn–
	// Kutten–Molla that the parsimonious strategy competes on.
	Useless int64
	// CostTimeline records cumulative Messages after each step, aligned
	// index-by-index with Timeline (CostTimeline[0] == 0 at t = 0).
	// Recorded only under KeepTimeline, like Timeline.
	CostTimeline []int64
}

// SaturationTime returns Time - HalfTime, the duration of the saturation
// phase (Lemma 14), or -1 when the run did not complete.
func (r Result) SaturationTime() int {
	if !r.Completed || r.HalfTime < 0 {
		return -1
	}
	return r.Time - r.HalfTime
}

// Sentinel returns of TimeToFraction. Both are negative, so callers that
// only care whether a time is available can keep testing `>= 0`; callers
// that care WHY it is not must distinguish them.
const (
	// TimeNever: the process provably never reached the fraction — the
	// trajectory is fully known (run completed, or its whole Timeline is
	// on record) and tops out below the target.
	TimeNever = -1
	// TimeUnknown: the run cannot answer — it was cut off at MaxSteps
	// before reaching the fraction (the process might have reached it
	// later), or it ran without a Timeline and the tracked events do not
	// pin the requested fraction even though the run did reach it.
	TimeUnknown = -2
)

// TimeToFraction returns the first time at which at least frac·n nodes
// were informed. With a recorded Timeline every reached fraction is
// answerable; an unreached one is TimeNever when the recorded trajectory
// is the whole process (Completed) and TimeUnknown when the run was cut
// off, since later steps might have reached it. Without a Timeline
// (KeepTimeline == false) the run only tracked three exact events, and
// the method falls back on them: t = 0 for fractions the source alone
// satisfies, HalfTime when frac·n is exactly the half threshold ⌈n/2⌉,
// and Time for frac == 1 on completed runs. Any other fraction the run
// reached at an unrecorded time — and any fraction beyond Informed on a
// cut-off run — is TimeUnknown; fractions beyond n on a completed run
// are TimeNever.
func (r Result) TimeToFraction(n int, frac float64) int {
	need := int(frac * float64(n))
	if need < 1 {
		need = 1
	}
	if len(r.Timeline) > 0 {
		for t, size := range r.Timeline {
			if size >= need {
				return t
			}
		}
		if r.Completed {
			return TimeNever // full trajectory on record; it never got there
		}
		return TimeUnknown // cut off at MaxSteps short of the fraction
	}
	// Timeline-free fallback: answer from the always-tracked events when
	// they pin the requested fraction exactly.
	switch {
	case need <= 1:
		return 0 // the source satisfies it from the start
	case need > r.Informed:
		if r.Completed {
			return TimeNever // Informed == n is the process maximum
		}
		return TimeUnknown // cut off; the process might still get there
	case need == n && r.Completed:
		return r.Time
	case need == (n+1)/2 && r.HalfTime >= 0:
		return r.HalfTime
	}
	return TimeUnknown // reached, but at a time the run did not record
}

// Opts configures a spreading run.
type Opts struct {
	// MaxSteps caps the run; a run that does not finish within the cap
	// reports Completed == false. Zero means DefaultMaxSteps.
	MaxSteps int
	// KeepTimeline controls whether the full |I_t| series is recorded.
	// When false only Time/HalfTime are tracked, saving memory in sweeps.
	KeepTimeline bool
	// Scratch optionally supplies reusable working state (bitsets, edge
	// and neighbor buffers, queues), amortizing all engine allocations
	// across the runs that share it. Results never depend on whether — or
	// how warm — a Scratch is supplied; nil makes the run allocate private
	// state. A Scratch must not be shared across concurrent runs.
	Scratch *Scratch
}

// maxSteps returns the effective step cap.
func (o Opts) maxSteps() int {
	if o.MaxSteps <= 0 {
		return DefaultMaxSteps
	}
	return o.MaxSteps
}

// DefaultMaxSteps bounds runs whose caller did not choose a cap.
const DefaultMaxSteps = 1 << 20

// start validates the source, readies the run's scratch (the caller's via
// Opts, or fresh private state), initializes the informed set and the
// Result for a run over d (the source is informed at t = 0), seeds the
// tracked adjacency from d's current snapshot, and reports done == true
// for the trivial single-node network. It is the shared entry bookkeeping
// of every engine in this package.
func start(d dyngraph.Dynamic, source int, opts Opts) (sc *Scratch, res Result, done bool) {
	n := d.N()
	if source < 0 || source >= n {
		panic("flood: source out of range")
	}
	sc = opts.Scratch
	if sc == nil {
		sc = &Scratch{}
	}
	sc.reset(n)
	sc.informed.Set(source)
	res = Result{Time: -1, HalfTime: -1, Informed: 1}
	if opts.KeepTimeline {
		res.Timeline = append(res.Timeline, 1)
		res.CostTimeline = append(res.CostTimeline, 0)
	}
	if 2 >= n {
		res.HalfTime = 0
	}
	if n == 1 {
		res.Time = 0
		res.Completed = true
		return sc, res, true
	}
	sc.tr.Follow(d)
	return sc, res, false
}

// record updates the result after step t produced informed-set size size
// (engines obtain it by popcount over the informed bitset, usually fused
// into the pending-set commit via bitset.Absorb), reporting whether the
// run completed. It is the shared per-step bookkeeping of every engine in
// this package: a field added to Result is tracked by all protocols at
// once.
//
// msgs is the number of rumor transmissions the step performed; record
// derives Useless from it as msgs minus the step's first-time informs
// (size - previous Informed), which makes the conservation law
// Messages == Useless + (Informed - 1) hold by construction in every
// engine — the property test's anchor.
func record(res *Result, opts Opts, n, size, t int, msgs int64) bool {
	res.Messages += msgs
	res.Useless += msgs - int64(size-res.Informed)
	res.Informed = size
	if opts.KeepTimeline {
		res.Timeline = append(res.Timeline, size)
		res.CostTimeline = append(res.CostTimeline, res.Messages)
	}
	if res.HalfTime < 0 && 2*size >= n {
		res.HalfTime = t + 1
	}
	if size == n {
		res.Time = t + 1
		res.Completed = true
		return true
	}
	return false
}

// Run floods d from source and returns the result. It panics if source is
// out of range (a programming error in the caller).
//
// The engine keeps an adjacency current from the model's per-step churn
// and sweeps an active set that scans only neighborhoods which can still
// spread — O(churn + frontier) per step instead of O(m).
//
// The active set makes the dynamic-graph rescan rule cheap without
// breaking it: a node leaves the set only after a scan finds every current
// neighbor informed, and from then on its neighborhood can gain an
// uninformed member only through a born edge — deaths cannot, and informed
// nodes never revert — so re-activating the informed endpoints of born
// edges restores the invariant that every informed node with an uninformed
// neighbor is scanned. In the saturation phase (Lemma 14) the active set
// collapses to the few nodes adjacent to stragglers. Marking the
// uninformed neighbors of every informed node that has any is the same set
// union regardless of scan or neighbor order, so the trajectory is the
// exact flooding process.
//
// The active and pending sets are two-level bitsets and the informed-set
// size is tracked incrementally (AbsorbInto returns the step's new
// members), so the per-step set work is O(active words + frontier), not
// O(n/64): no flat sweep over the universe survives in the loop, which is
// what keeps a million-node step proportional to churn + frontier once
// the spreading process has localized.
func Run(d dyngraph.Dynamic, source int, opts Opts) Result {
	sc, res, done := start(d, source, opts)
	if done {
		return res
	}
	tr := &sc.tr
	n := sc.informed.Len()
	sc.active.Reset(n)
	sc.fresh.Reset(n)
	// load maintains Σ_{i ∈ informed} deg(i) over the CURRENT adjacency —
	// the step's message count under flooding semantics (every informed
	// endpoint of every edge transmits once per step, whether or not the
	// active-set sweep visits it). Maintained incrementally from the same
	// events the active set consumes: + deg of each newly informed node,
	// ±1 per informed endpoint of each born/died edge — so the cost is
	// exact without an O(m) rescan.
	var load int64
	// Seed the active set with the informed set (the source).
	sc.queue = sc.informed.AppendMembers(sc.queue[:0])
	size := len(sc.queue)
	for _, i := range sc.queue {
		sc.active.Set(int(i))
		load += int64(tr.Adj.Degree(int(i)))
	}
	informed, pending, active := sc.informed, &sc.fresh, &sc.active
	maxSteps := opts.maxSteps()
	for t := 0; t < maxSteps; t++ {
		msgs := load
		sc.queue = active.AppendMembers(sc.queue[:0])
		for _, ii := range sc.queue {
			i := int(ii)
			frontier := false
			for _, j := range tr.Adj.Neighbors(i) {
				if !informed.Get(int(j)) {
					pending.Set(int(j))
					frontier = true
				}
			}
			if !frontier {
				active.Unset(i)
			}
		}
		// The pending set is exactly the newly informed nodes (pending is
		// only ever set on uninformed nodes, and informed is frozen within
		// a step): list them before the absorb clears the set, then
		// activate them — they may have uninformed neighbors of their own.
		sc.newly = pending.AppendMembers(sc.newly[:0])
		size += pending.AbsorbInto(&informed)
		for _, f := range sc.newly {
			active.Set(int(f))
			load += int64(tr.Adj.Degree(int(f)))
		}
		if record(&res, opts, n, size, t, msgs) {
			return res
		}
		tr.Step()
		for _, e := range tr.Born {
			if informed.Get(int(e.U)) {
				active.Set(int(e.U))
				load++
			}
			if informed.Get(int(e.V)) {
				active.Set(int(e.V))
				load++
			}
		}
		for _, e := range tr.Died {
			if informed.Get(int(e.U)) {
				load--
			}
			if informed.Get(int(e.V)) {
				load--
			}
		}
	}
	return res
}

// RandomizedPush runs the §5 randomized protocol: each informed node
// contacts min(k, deg) distinct uniformly random current neighbors per
// step. The paper reduces it to flooding on a virtual graph subsampled
// afresh every step; this engine draws that subsample per informed node
// from r as it goes, which is the same process. It panics if k <= 0.
func RandomizedPush(d dyngraph.Dynamic, source, k int, r *rng.RNG, opts Opts) Result {
	if k <= 0 {
		panic("flood: RandomizedPush needs k > 0")
	}
	sc, res, done := start(d, source, opts)
	if done {
		return res
	}
	informed, pending := sc.informed, sc.pending
	n := informed.Len()
	maxSteps := opts.maxSteps()
	for t := 0; t < maxSteps; t++ {
		sc.queue = informed.AppendMembers(sc.queue[:0])
		var msgs int64
		for _, i := range sc.queue {
			msgs += sc.push(int(i), k, r, &pending)
		}
		if record(&res, opts, n, informed.Absorb(&pending), t, msgs) {
			return res
		}
		sc.tr.Step()
	}
	return res
}
