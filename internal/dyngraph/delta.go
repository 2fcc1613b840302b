package dyngraph

import (
	"slices"

	"repro/internal/rng"
)

// DeltaBatcher is the incremental half of Dynamic: the edge churn of the
// most recent Step as two flat batches, so consumers never rescan the whole
// snapshot. In the sparse regimes the paper cares about (p = c/n,
// stationary degree O(1)) the expected churn p·(missing) + q·(present) is
// O(n) per step while the snapshot itself has Θ(n) edges that mostly do not
// change — and the edge-MEG Markov steps already know exactly which pairs
// flipped, so the deltas come out of the simulator for free.
//
// Consumers seed their view from a full snapshot (AppendEdges) once, then
// after every Step apply the deltas to a persistent Adjacency, maintaining
// the current graph in O(churn) per step instead of O(m); Tracker does
// exactly that.
type DeltaBatcher interface {
	// AppendDeltas appends the edges born (absent before the most recent
	// Step, present after) to born and the edges that died (present before,
	// absent after) to died, returning the extended slices. Before the
	// first Step both batches are empty. Each edge appears at most once,
	// normalized to U < V; born and died are disjoint; applying them to the
	// pre-Step snapshot yields exactly the current snapshot. Order is
	// unspecified but deterministic. Implementations must not retain the
	// slices, and calls between two Steps are idempotent.
	AppendDeltas(born, died []Edge) (b, d []Edge)
}

// MoveReporter is an optional extension of DeltaBatcher for models whose
// churn follows node motion (mobility positions, node-MEG states): it
// reports how many nodes changed position or state in the most recent
// Step — the k in the O(k × local density) incremental step cost, and the
// numerator of the moved_per_step telemetry gauge. Before the first Step
// it reports 0.
type MoveReporter interface {
	MovedLastStep() int
}

// Adjacency is the persistent neighbor store every engine reads: the only
// place a consumer looks up a node's current neighbors. It holds per-node
// neighbor lists over a fixed universe, built once from a snapshot batch
// and then updated in place from delta batches, so a step costs O(churn)
// instead of an O(m) rebuild. A birth appends to two lists in O(1). Apply
// removes a death batch one of two ways, switched by the batch size alone:
//
//   - A sparse batch, fewer than n arcs (2·len(died) < n), goes edge by
//     edge: RemoveEdge scans both endpoints' lists, O(degree) per died
//     edge.
//   - A dense batch, at least n arcs, goes node by node: a stable counting
//     sort buckets its arcs by endpoint, each touched list is indexed once,
//     and each removal is an O(1) swap with the last entry. The sort's
//     O(n) pass costs no more than the batch itself.
//
// Reset reuses all backing arrays, which is what lets flood.Scratch
// amortize the store across the trials of a sweep.
//
// The store is a CSR-style arena: every node's list lives in one shared
// []int32 backing array, addressed by a 12-byte {offset, length,
// capacity} segment header instead of a 24-byte slice header over its
// own allocation. At n = 10^6 that halves the fixed per-node overhead
// and, more importantly, collapses a million tiny heap objects into two
// arrays the GC never walks. Lists keep per-node capacity slack; a list
// outgrowing its segment relocates to the arena tail (amortized O(1),
// the old segment becomes a hole), and when the arena runs out the live
// segments are compacted into a spare buffer — so growth never moves
// more than the arena once per doubling.
//
// Neighbor order within a list is unspecified (removals swap with the
// last entry) but deterministic: it is a function of the seeding batch and
// the delta stream. Both removal paths leave the same order, that of
// RemoveEdge per died edge in batch order. Engines whose random draws
// index into a list (pull, push–pull, k-push, random walks) therefore
// still sample exactly the law they claim — a uniform index into a list
// holding each current neighbor once is a uniform neighbor, whatever the
// order — and replay exactly per seed. Only which neighbor a given draw
// names depends on the order, so the fixed-seed trajectories are pinned to
// this store (TestListOrderTrajectoriesPinned in internal/protocol), and
// the exact-law tests, not byte pins, check that the process is the
// paper's.
type Adjacency struct {
	segs  []segment
	arena []int32
	spare []int32 // compaction target, swapped with arena; len 0 between uses
	holes int     // arena slots abandoned by relocated segments
	n     int
	idx   []int // Sample's index buffer

	// Apply's node-by-node removal scratch, kept across Reset.
	off  []int32 // bucket bounds per node, n+1
	arcs []int32 // a dense batch's arcs bucketed by endpoint, 2·len(died)
	pos  []int32 // neighbor → index in the list being emptied, n
}

// segment is one node's list header: arena[off:off+len] is the list,
// arena[off:off+cap] the slots reserved for it.
type segment struct {
	off, len, cap int32
}

// Reset re-sizes the store for a universe of n nodes and empties every
// list. At an unchanged n the arena layout — every node's learned
// capacity — is kept, so a store reused across the trials of a sweep
// (flood.Scratch) re-seeds into slots it already owns and warm trials
// never relocate a segment.
func (a *Adjacency) Reset(n int) {
	if n == a.n && len(a.segs) == n {
		for i := range a.segs {
			a.segs[i].len = 0
		}
		return
	}
	if cap(a.segs) < n {
		a.segs = make([]segment, n)
	} else {
		a.segs = a.segs[:n]
		clear(a.segs)
	}
	a.arena = a.arena[:0]
	a.holes = 0
	a.n = n
}

// N returns the universe size.
func (a *Adjacency) N() int { return a.n }

// Bytes returns the heap bytes retained by the store: the segment
// headers, both arena buffers, the sampling buffer and Apply's removal
// scratch. Unlike the per-node-slice store this replaces, the accounting
// is O(1) — a few capacities, no walk.
func (a *Adjacency) Bytes() int64 {
	return int64(cap(a.segs))*12 + int64(cap(a.arena)+cap(a.spare))*4 + int64(cap(a.idx))*8 +
		int64(cap(a.off)+cap(a.arcs)+cap(a.pos))*4
}

// Degree returns the current degree of node i.
func (a *Adjacency) Degree(i int) int { return int(a.segs[i].len) }

// Neighbors returns node i's current neighbor list. The slice aliases the
// arena and is invalidated by the next Add/Remove/Apply/Reset; callers
// must not mutate it.
func (a *Adjacency) Neighbors(i int) []int32 {
	s := a.segs[i]
	return a.arena[s.off : s.off+s.len : s.off+s.cap]
}

// Sample appends min(k, Degree(i)) distinct neighbors of node i, drawn
// uniformly from r, to dst — one node's share of the paper's §5 virtual
// graph, which keeps a fresh random subset of every node's edges each
// step. A node with at most k neighbors keeps them all and draws nothing.
// It panics if k <= 0.
func (a *Adjacency) Sample(i, k int, r *rng.RNG, dst []int32) []int32 {
	if k <= 0 {
		panic("dyngraph: Adjacency.Sample needs k > 0")
	}
	nbrs := a.Neighbors(i)
	if len(nbrs) <= k {
		return append(dst, nbrs...)
	}
	a.idx = r.SampleDistinctInto(len(nbrs), k, a.idx[:0])
	for _, x := range a.idx {
		dst = append(dst, nbrs[x])
	}
	return dst
}

// AddEdge inserts the undirected edge {u, v}, which must not be present.
func (a *Adjacency) AddEdge(u, v int32) {
	a.appendTo(u, v)
	a.appendTo(v, u)
}

// appendTo appends w to node u's list, relocating the segment to the
// arena tail when its slack is exhausted.
func (a *Adjacency) appendTo(u, w int32) {
	s := &a.segs[u]
	if s.len == s.cap {
		a.growSeg(u)
		s = &a.segs[u]
	}
	a.arena[s.off+s.len] = w
	s.len++
}

// growSeg moves node u's segment to the arena tail with doubled capacity.
// The vacated slots become a hole; holes are reclaimed wholesale by the
// next compaction.
func (a *Adjacency) growSeg(u int32) {
	s := a.segs[u]
	newCap := s.cap * 2
	if newCap < 2 {
		newCap = 2
	}
	if len(a.arena)+int(newCap) > cap(a.arena) {
		a.ensure(int(newCap))
		s = a.segs[u] // compaction moves offsets
	}
	off := int32(len(a.arena))
	a.arena = a.arena[:len(a.arena)+int(newCap)]
	copy(a.arena[off:off+s.len], a.arena[s.off:s.off+s.len])
	a.holes += int(s.cap)
	a.segs[u] = segment{off: off, len: s.len, cap: newCap}
}

// ensure makes room for need more arena slots: live segments are
// compacted (capacities preserved) into the spare buffer, which is grown
// geometrically only when squeezing the holes out is not enough. The two
// buffers swap roles, so a store at its high-water size compacts with no
// allocation — the delta engines' zero-alloc warm-path contract.
func (a *Adjacency) ensure(need int) {
	live := len(a.arena) - a.holes
	target := cap(a.arena)
	if live+need > target {
		target = 2 * target
		if live+need > target {
			target = live + need
		}
	}
	if target > maxArena {
		panic("dyngraph: Adjacency arena exceeds int32 offsets")
	}
	if cap(a.spare) < target {
		a.spare = make([]int32, 0, target)
	}
	dst := a.spare[:0]
	for i := range a.segs {
		s := &a.segs[i]
		off := int32(len(dst))
		dst = append(dst, a.arena[s.off:s.off+s.len]...)
		dst = dst[:int(off)+int(s.cap)]
		s.off = off
	}
	a.spare = a.arena[:0]
	a.arena = dst
	a.holes = 0
}

// maxArena bounds the arena length addressable by int32 segment offsets.
const maxArena = 1<<31 - 1

// RemoveEdge deletes the undirected edge {u, v}, which must be present.
// The removal swaps with the last entry, perturbing neighbor order.
func (a *Adjacency) RemoveEdge(u, v int32) {
	a.removeFrom(u, v)
	a.removeFrom(v, u)
}

func (a *Adjacency) removeFrom(u, v int32) {
	s := &a.segs[u]
	l := a.arena[s.off : s.off+s.len]
	for i, w := range l {
		if w == v {
			s.len--
			l[i] = l[s.len]
			return
		}
	}
	panic("dyngraph: Adjacency.RemoveEdge of an absent edge")
}

// AddEdges inserts every edge of the batch — the seeding pass that turns a
// fresh (or Reset) store into the current snapshot.
func (a *Adjacency) AddEdges(edges []Edge) {
	for _, e := range edges {
		a.AddEdge(e.U, e.V)
	}
}

// Apply updates the store by one step of churn: every died edge is removed
// and every born edge inserted. Batches must be consistent with the stored
// graph (deltas from the model whose snapshot seeded the store); a died
// edge that is absent, or repeated in the batch, panics on either removal
// path. The lists end exactly as RemoveEdge per died edge, then AddEdge
// per born edge, in batch order would leave them.
func (a *Adjacency) Apply(born, died []Edge) {
	if 2*len(died) >= a.n {
		a.removeByNode(died)
	} else {
		for _, e := range died {
			a.RemoveEdge(e.U, e.V)
		}
	}
	for _, e := range born {
		a.AddEdge(e.U, e.V)
	}
}

// removeByNode removes a dense death batch node by node. A stable counting
// sort buckets the batch's arcs by endpoint, so each node's removals keep
// their batch order; each touched list is indexed once into pos, and each
// removal is an O(1) swap with the last entry that re-indexes the moved
// entry. Since a removal touches only its own list, every list ends as the
// per-edge loop leaves it.
func (a *Adjacency) removeByNode(died []Edge) {
	n := a.n
	a.off = slices.Grow(a.off[:0], n+1)[:n+1]
	a.arcs = slices.Grow(a.arcs[:0], 2*len(died))[:2*len(died)]
	a.pos = slices.Grow(a.pos[:0], n)[:n]
	off, arcs, pos := a.off, a.arcs, a.pos
	clear(off)
	for _, e := range died {
		off[e.U+1]++
		off[e.V+1]++
	}
	for u := 1; u <= n; u++ {
		off[u] += off[u-1]
	}
	// off[u] is the first slot of u's bucket; filling advances it to the
	// first slot of u+1's.
	for _, e := range died {
		arcs[off[e.U]] = e.V
		off[e.U]++
		arcs[off[e.V]] = e.U
		off[e.V]++
	}
	lo := int32(0)
	for u, hi := range off[:n] {
		if lo == hi {
			continue
		}
		s := &a.segs[u]
		l := a.arena[s.off : s.off+s.len]
		for i, w := range l {
			pos[w] = int32(i)
		}
		for _, v := range arcs[lo:hi] {
			i := pos[v]
			if i >= s.len || l[i] != v {
				panic("dyngraph: Adjacency.RemoveEdge of an absent edge")
			}
			s.len--
			last := l[s.len]
			l[i] = last
			pos[last] = i
		}
		lo = hi
	}
}

// AppendEdges appends the stored graph's edges to dst, each once with
// U < V, in an unspecified deterministic order. It exists so tests can
// compare a delta-maintained store against a fresh snapshot batch.
func (a *Adjacency) AppendEdges(dst []Edge) []Edge {
	for u := range a.segs {
		s := a.segs[u]
		for _, v := range a.arena[s.off : s.off+s.len] {
			if int32(u) < v {
				dst = append(dst, Edge{U: int32(u), V: v})
			}
		}
	}
	return dst
}

// compareEdges orders edges lexicographically by (U, V).
func compareEdges(a, b Edge) int {
	if a.U != b.U {
		return int(a.U) - int(b.U)
	}
	return int(a.V) - int(b.V)
}

// diffSortedEdges merges two (U, V)-sorted edge batches, appending edges
// only in cur to born and edges only in prev to died.
func diffSortedEdges(prev, cur, born, died []Edge) (b, d []Edge) {
	i, j := 0, 0
	for i < len(prev) && j < len(cur) {
		switch c := compareEdges(prev[i], cur[j]); {
		case c == 0:
			i++
			j++
		case c < 0:
			died = append(died, prev[i])
			i++
		default:
			born = append(born, cur[j])
			j++
		}
	}
	born = append(born, cur[j:]...)
	died = append(died, prev[i:]...)
	return born, died
}

func sortEdges(edges []Edge) []Edge {
	slices.SortFunc(edges, compareEdges)
	return edges
}

// Tracker keeps an Adjacency equal to a Dynamic's current snapshot: it
// seeds the store from one AppendEdges batch, then on every Step advances
// the model, drains its deltas and applies them. It is the one copy of
// that lifecycle; every engine steps its model through a Tracker and reads
// neighbors from Adj. The churn counters accumulate across every model a
// Tracker follows, so a Tracker reused across trials (flood.Scratch) totals
// a whole sweep's churn for telemetry.
type Tracker struct {
	// Adj is the current snapshot. Callers read it and must not modify it.
	Adj Adjacency
	// Born and Died hold the churn of the most recent Step, valid until the
	// next Step or Follow.
	Born, Died []Edge
	d          Dynamic
	mr         MoveReporter // d's motion count, nil if it reports none
	seed       []Edge

	bornTotal, diedTotal, movedTotal, steps int64
}

// Follow points the tracker at d and seeds Adj with d's current snapshot,
// reusing every buffer.
func (tr *Tracker) Follow(d Dynamic) {
	tr.d = d
	tr.mr, _ = d.(MoveReporter)
	tr.seed = d.AppendEdges(tr.seed[:0])
	tr.Adj.Reset(d.N())
	tr.Adj.AddEdges(tr.seed)
	tr.Born, tr.Died = tr.Born[:0], tr.Died[:0]
}

// Step advances the followed model one step and brings Adj up to date.
func (tr *Tracker) Step() {
	tr.d.Step()
	tr.Born, tr.Died = tr.d.AppendDeltas(tr.Born[:0], tr.Died[:0])
	tr.Adj.Apply(tr.Born, tr.Died)
	tr.bornTotal += int64(len(tr.Born))
	tr.diedTotal += int64(len(tr.Died))
	if tr.mr != nil {
		tr.movedTotal += int64(tr.mr.MovedLastStep())
	}
	tr.steps++
}

// Totals returns the churn streamed through the tracker since its
// creation: edges born, edges died, nodes moved (0 unless the model is a
// MoveReporter), and model steps.
func (tr *Tracker) Totals() (born, died, moved, steps int64) {
	return tr.bornTotal, tr.diedTotal, tr.movedTotal, tr.steps
}

// Bytes returns the heap bytes retained by the store and the batch
// buffers.
func (tr *Tracker) Bytes() int64 {
	return tr.Adj.Bytes() + 8*int64(cap(tr.Born)+cap(tr.Died)+cap(tr.seed))
}
