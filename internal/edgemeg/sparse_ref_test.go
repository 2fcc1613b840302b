package edgemeg

// Frozen-reference pin of the sparse simulator: Sparse keeps no rank ->
// position map and no per-step exclude table, and must still replay the
// simulator that had them draw for draw. refSparse below is that
// simulator copied verbatim — with its open-addressed position index and
// exclude table — renamed, and trimmed to what the pin calls. Over 200
// steps the two must agree on the alive-slice order, on every
// AppendDeltas batch in order, and on the RNG's next draw, for both
// streams, all three Inits, both alive-set forms, and the extreme rates.

import (
	"fmt"
	"math/bits"
	"slices"
	"testing"

	"repro/internal/dyngraph"
	"repro/internal/rng"
)

func TestSparseMatchesFrozenReference(t *testing.T) {
	params := []Params{
		{N: 64, P: 0.01, Q: 0.2},
		{N: 40, P: 0.3, Q: 0.4},
		{N: 300, P: 0.002, Q: 0.05}, // enough alive ranks to grow the table
		{N: 12, P: 1, Q: 0.3},
		{N: 12, P: 0.2, Q: 1},
		{N: 10, P: 1, Q: 1},
		{N: 20, P: 0, Q: 0.1},
		{N: 20, P: 0.05, Q: 0},
		{N: 2, P: 0.3, Q: 0.5},
		{N: 2, P: 1, Q: 1},
		{N: 3, P: 0.5, Q: 0.2},
		{N: 3, P: 0, Q: 1},
	}
	for _, p := range params {
		for _, init := range []Init{InitStationary, InitEmpty, InitFull} {
			for _, v2 := range []bool{false, true} {
				for _, useBits := range []bool{true, false} {
					for _, seed := range []uint64{1, 29} {
						s := newSparse(p, init, rng.New(seed), useBits)
						ref := newRefSparse(p, init, rng.New(seed))
						if v2 {
							s.UseChurnSampler()
							ref.UseChurnSampler()
						}
						name := func() string {
							return fmt.Sprintf("%+v %v v2=%v bits=%v seed %d", p, init, v2, useBits, seed)
						}
						compareToReference(t, name, s, ref)
					}
				}
			}
		}
	}
}

// compareToReference steps s and ref side by side and fails at the first
// difference: alive-slice order, delta batches, alive-set contents, or
// the position of their RNG streams.
func compareToReference(t *testing.T, name func() string, s *Sparse, ref *refSparse) {
	t.Helper()
	var sb, sd, rb, rd []dyngraph.Edge
	for step := 0; step <= 200; step++ {
		if step > 0 {
			s.Step()
			ref.Step()
		}
		if !slices.Equal(s.edges, ref.edges) {
			t.Fatalf("%s step %d: alive slice %v, reference %v", name(), step, s.edges, ref.edges)
		}
		sb, sd = s.AppendDeltas(sb[:0], sd[:0])
		rb, rd = ref.AppendDeltas(rb[:0], rd[:0])
		if !slices.Equal(sb, rb) || !slices.Equal(sd, rd) {
			t.Fatalf("%s step %d: deltas born %v died %v, reference born %v died %v",
				name(), step, sb, sd, rb, rd)
		}
		if s.alive.Len() != len(s.edges) {
			t.Fatalf("%s step %d: alive set holds %d ranks for %d edges", name(), step, s.alive.Len(), len(s.edges))
		}
		for _, rank := range s.edges {
			if !s.alive.Has(rank) {
				t.Fatalf("%s step %d: alive rank %d missing from the set", name(), step, rank)
			}
		}
		if a, b := *s.r, *ref.r; a.Uint64() != b.Uint64() {
			t.Fatalf("%s step %d: RNG streams diverged", name(), step)
		}
	}
}

// ---------------------------------------------------------------------------
// Reference implementation: internal/edgemeg's Sparse and rankIndex before
// the position map went, copied verbatim up to the names.

// refSparse is the exact O(alive + births)-per-step simulator of the two-state
// edge-MEG, for the sparse regimes the paper cares about (stationary average
// degree O(polylog n)). Its per-step transition law is identical to Dense:
//
//   - every alive edge dies independently with probability q;
//   - the number of births is Binomial(#dead, p) and the born edges are a
//     uniform subset of the dead pairs — exactly the law of independent
//     per-dead-pair Bernoulli(p) births.
//
// Alive edges are stored in an insertion-ordered slice with a position
// index, so the random-number stream is consumed in a deterministic order
// and runs are reproducible per seed (Go map iteration order would not be).
//
// The simulator knows exactly which ranks flip each step, so its deltas
// cost one rank decode per changed edge, and it keeps no per-node
// adjacency: the alive slice is the whole state.
type refSparse struct {
	params Params
	r      *rng.RNG
	edges  []int64 // alive edge ranks, arbitrary but deterministic order
	// pos maps rank -> index in edges. It is an open-addressed table
	// (12 B/slot at <= 3/4 load) rather than a Go map (~50 B/entry),
	// which is most of what makes n = 10^6 fit in memory; warm
	// insert/delete/lookup touch no heap, so steps stay alloc-free.
	pos refRankIndex
	// excl is the reusable per-step exclude set of sampleNewEdges (the
	// ranks that died this step); rebuilding a map here used to be the
	// only per-step allocation left in Step.
	excl refRankIndex
	// born and died record the ranks that flipped in the most recent Step,
	// backing AppendDeltas; buffers are reused across steps.
	born, died []int64
	// churnDeaths selects the O(churn)-draw death sampler (geometric
	// skipping over the alive slice) instead of the per-edge Bernoulli
	// sweep. Same transition law, different RNG stream; see
	// UseChurnSampler.
	churnDeaths bool
}

// newRefSparse builds a sparse simulator with the given initial distribution.
func newRefSparse(params Params, init Init, r *rng.RNG) *refSparse {
	if err := params.Validate(); err != nil {
		panic(err)
	}
	s := &refSparse{
		params: params,
		r:      r,
	}
	pairs := pairCount(params.N)
	switch init {
	case InitEmpty:
		// empty
	case InitFull:
		for rank := int64(0); rank < pairs; rank++ {
			s.insert(rank)
		}
	case InitStationary:
		// Sample Binomial(pairs, alpha) edges uniformly without
		// replacement — the exact product-Bernoulli law.
		k := refBinomialInt64(pairs, params.Alpha(), r)
		s.pos.Reserve(int(k))
		s.sampleNewEdges(k, nil)
	default:
		panic("edgemeg: unknown Init")
	}
	s.born = s.born[:0] // initial edges are the base snapshot, not churn
	return s
}

// UseChurnSampler switches s to the stream=v2 death sampler, making the
// whole Step cost O(churn): deaths are sampled by geometric skipping over
// the alive slice — each alive edge still dies independently with
// probability q (gaps
// between successes of a Bernoulli(q) sequence are iid Geometric(q), the
// same device refBinomialInt64 uses for births) — instead of the per-edge
// Bernoulli sweep, whose O(alive) draws dominate the step once delta
// consumers stop paying for snapshot scans. The trajectory law is
// unchanged; the random-number STREAM is not, so fixed-seed runs differ
// (same distribution). Call it before the first Step; the spec param
// stream=v2 does.
func (s *refSparse) UseChurnSampler() { s.churnDeaths = true }

// insert adds rank to the alive set (at the maximal position) and records
// it as born; it must not already be present.
func (s *refSparse) insert(rank int64) {
	p := len(s.edges)
	if p > refMaxAlive {
		panic("edgemeg: alive set exceeds int32 positions")
	}
	s.pos.Put(rank, int32(p))
	s.edges = append(s.edges, rank)
	s.born = append(s.born, rank)
}

// remove deletes rank from the alive set by swap-with-last.
func (s *refSparse) remove(rank int64) {
	pi, ok := s.pos.Get(rank)
	if !ok {
		panic("edgemeg: remove of a dead rank")
	}
	i := int(pi)
	last := len(s.edges) - 1
	moved := s.edges[last]
	s.edges[i] = moved
	s.pos.Put(moved, int32(i))
	s.edges = s.edges[:last]
	s.pos.Delete(rank)
}

// refBinomialInt64 samples Binomial(n, p) for potentially huge n via geometric
// skipping (exact; expected cost O(np)).
func refBinomialInt64(n int64, p float64, r *rng.RNG) int64 {
	if n <= 0 || p <= 0 {
		return 0
	}
	if p >= 1 {
		return n
	}
	var k, i int64
	i = int64(r.Geometric(p))
	for i < n {
		k++
		i += 1 + int64(r.Geometric(p))
	}
	return k
}

// sampleNewEdges inserts k uniformly random currently-dead pairs into the
// alive set. exclude optionally holds ranks that must also be avoided (the
// pairs that died this step: births apply to pre-step dead pairs only).
// The rejection draws are identical to the historical map-backed version,
// so the RNG stream — and every fixed-seed pin — is unchanged.
func (s *refSparse) sampleNewEdges(k int64, exclude *refRankIndex) {
	pairs := pairCount(s.params.N)
	for added := int64(0); added < k; {
		rank := int64(s.r.Uint64n(uint64(pairs)))
		if s.pos.Has(rank) {
			continue
		}
		if exclude != nil && exclude.Has(rank) {
			continue
		}
		s.insert(rank)
		added++
	}
}

// Step implements dyngraph.Dynamic.
func (s *refSparse) Step() {
	p, q := s.params.P, s.params.Q
	pairs := pairCount(s.params.N)
	aliveBefore := int64(len(s.edges))
	s.born, s.died = s.born[:0], s.died[:0]

	// Deaths: collect in deterministic order, then remove. The default
	// sweep draws one Bernoulli per alive edge (the stream-compatible
	// path); churnDeaths draws one Geometric per death instead — identical
	// law over the died set, O(churn) draws.
	if q > 0 {
		if s.churnDeaths {
			for i := int64(s.r.Geometric(q)); i < int64(len(s.edges)); i += 1 + int64(s.r.Geometric(q)) {
				s.died = append(s.died, s.edges[i])
			}
		} else {
			for _, rank := range s.edges {
				if s.r.Bool(q) {
					s.died = append(s.died, rank)
				}
			}
		}
		for _, rank := range s.died {
			s.remove(rank)
		}
	}

	// Births apply to pairs dead *before* the step: skip both the
	// surviving alive set and the just-died ranks. insert records them
	// into s.born.
	if p > 0 {
		dead := pairs - aliveBefore
		births := refBinomialInt64(dead, p, s.r)
		var exclude *refRankIndex
		if len(s.died) > 0 && births > 0 {
			// Reuse the scratch-held exclude table: clearing and refilling
			// it is O(churn) with no heap traffic once its capacity covers
			// the step's deaths — warm steps allocate nothing.
			s.excl.Clear()
			s.excl.Reserve(len(s.died))
			for _, rank := range s.died {
				s.excl.Put(rank, 0)
			}
			exclude = &s.excl
		}
		s.sampleNewEdges(births, exclude)
	}
}

// AppendDeltas implements dyngraph.DeltaBatcher: the Markov step already
// knows exactly which ranks flipped, so the churn batches cost one rank
// decode per changed edge — no snapshot rescans.
func (s *refSparse) AppendDeltas(born, died []dyngraph.Edge) (b, d []dyngraph.Edge) {
	n := s.params.N
	for _, rank := range s.born {
		u, v := pairFromRank(rank, n)
		born = append(born, dyngraph.Edge{U: int32(u), V: int32(v)})
	}
	for _, rank := range s.died {
		u, v := pairFromRank(rank, n)
		died = append(died, dyngraph.Edge{U: int32(u), V: int32(v)})
	}
	return born, died
}

// refMaxAlive bounds the alive-slice positions the rank index stores as
// int32.
const refMaxAlive = 1<<31 - 2

// refRankIndex is an open-addressing hash index from pair ranks (int64) to
// small integers (int32) — the million-node replacement for the
// map[int64]int that used to back refSparse.pos. A Go map costs ~50 B per
// entry (bucket headers, tophash bytes, padding) and allocates on insert;
// this table costs exactly 12 B per slot (8 B key + 4 B value) at a
// bounded load factor, and a warm table performs insert, delete, and
// lookup with zero heap traffic — which is what lets the sparse model
// step stay alloc-free under churn.
//
// Layout: power-of-two slot count, linear probing, and tombstone-free
// deletion by backward shifting (Knuth 6.4 algorithm R): deleting a key
// re-slots the probe chain behind it instead of leaving a tombstone, so
// the table never degrades under the insert/delete churn of a long
// simulation and lookups stay O(1 / (1 - load)).
//
// Keys are pair ranks, always >= 0; slots store rank+1 so the zero word
// means "empty" and clearing is one memclr. The zero refRankIndex is an
// empty, ready-to-use table.
type refRankIndex struct {
	keys []int64 // rank+1; 0 = empty slot
	vals []int32
	mask uint64 // len(keys) - 1; len is a power of two
	size int
}

// refHashRank scatters a rank over the table (murmur3 finalizer: full
// avalanche, so the low bits taken by the mask are well mixed).
func refHashRank(rank int64) uint64 {
	z := uint64(rank)
	z ^= z >> 33
	z *= 0xff51afd7ed558ccd
	z ^= z >> 33
	z *= 0xc4ceb9fe1a85ec53
	z ^= z >> 33
	return z
}

// Get returns the value stored under rank.
func (ri *refRankIndex) Get(rank int64) (int32, bool) {
	if ri.size == 0 {
		return 0, false
	}
	k := rank + 1
	for i := refHashRank(rank) & ri.mask; ; i = (i + 1) & ri.mask {
		switch ri.keys[i] {
		case k:
			return ri.vals[i], true
		case 0:
			return 0, false
		}
	}
}

// Has reports whether rank is present.
func (ri *refRankIndex) Has(rank int64) bool {
	_, ok := ri.Get(rank)
	return ok
}

// Put stores value under rank, replacing any previous value.
func (ri *refRankIndex) Put(rank int64, value int32) {
	// Grow at 3/4 load: linear probing stays O(1) expected and the table
	// never fills (the probe loops below rely on at least one empty slot).
	if 4*(ri.size+1) > 3*len(ri.keys) {
		ri.grow()
	}
	k := rank + 1
	for i := refHashRank(rank) & ri.mask; ; i = (i + 1) & ri.mask {
		switch ri.keys[i] {
		case k:
			ri.vals[i] = value
			return
		case 0:
			ri.keys[i] = k
			ri.vals[i] = value
			ri.size++
			return
		}
	}
}

// Delete removes rank, reporting whether it was present. The probe chain
// behind the vacated slot is shifted back (no tombstones), preserving the
// invariant that every key is reachable from its home slot by a
// contiguous run of occupied slots.
func (ri *refRankIndex) Delete(rank int64) bool {
	if ri.size == 0 {
		return false
	}
	k := rank + 1
	i := refHashRank(rank) & ri.mask
	for {
		switch ri.keys[i] {
		case k:
			goto found
		case 0:
			return false
		}
		i = (i + 1) & ri.mask
	}
found:
	// Backward-shift deletion: walk the chain after i; any entry whose
	// home slot does not lie in the cyclic interval (i, j] would become
	// unreachable with slot i empty, so move it into i and continue from
	// its old slot.
	for {
		ri.keys[i] = 0
		j := i
		for {
			j = (j + 1) & ri.mask
			kj := ri.keys[j]
			if kj == 0 {
				ri.size--
				return true
			}
			home := refHashRank(kj-1) & ri.mask
			// "home in cyclic (i, j]" means the entry is still reachable
			// with i empty; otherwise relocate it into i.
			if refCyclicBetween(i, home, j) {
				continue
			}
			ri.keys[i] = kj
			ri.vals[i] = ri.vals[j]
			i = j
			break
		}
	}
}

// refCyclicBetween reports whether home lies in the half-open cyclic
// interval (i, j] of table slots.
func refCyclicBetween(i, home, j uint64) bool {
	if i < j {
		return home > i && home <= j
	}
	return home > i || home <= j
}

// Clear empties the table, keeping its capacity. Cost is one memclr over
// the slots, so tables sized to their content (the per-step exclude set)
// clear in time proportional to what they held.
func (ri *refRankIndex) Clear() {
	clear(ri.keys)
	ri.size = 0
}

// Reserve grows the table so that n keys fit without rehashing.
func (ri *refRankIndex) Reserve(n int) {
	need := refNextPow2(n*4/3 + 1)
	if need > len(ri.keys) {
		ri.rehash(need)
	}
}

// grow doubles the slot count (from a small floor) and rehashes.
func (ri *refRankIndex) grow() {
	n := 2 * len(ri.keys)
	if n < 16 {
		n = 16
	}
	ri.rehash(n)
}

// rehash re-slots every key into a table of n slots (a power of two).
func (ri *refRankIndex) rehash(n int) {
	oldKeys, oldVals := ri.keys, ri.vals
	ri.keys = make([]int64, n)
	ri.vals = make([]int32, n)
	ri.mask = uint64(n - 1)
	for s, k := range oldKeys {
		if k == 0 {
			continue
		}
		for i := refHashRank(k-1) & ri.mask; ; i = (i + 1) & ri.mask {
			if ri.keys[i] == 0 {
				ri.keys[i] = k
				ri.vals[i] = oldVals[s]
				break
			}
		}
	}
}

// refNextPow2 returns the smallest power of two >= n (and >= 16).
func refNextPow2(n int) int {
	if n < 16 {
		return 16
	}
	return 1 << bits.Len(uint(n-1))
}
