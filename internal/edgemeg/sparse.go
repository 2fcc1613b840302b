package edgemeg

import (
	"repro/internal/dyngraph"
	"repro/internal/rng"
)

// Sparse is the exact O(alive + births)-per-step simulator of the two-state
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
type Sparse struct {
	params Params
	r      *rng.RNG
	edges  []int64 // alive edge ranks, arbitrary but deterministic order
	// pos maps rank -> index in edges. It is an open-addressed table
	// (12 B/slot at <= 3/4 load) rather than a Go map (~50 B/entry),
	// which is most of what makes n = 10^6 fit in memory; warm
	// insert/delete/lookup touch no heap, so steps stay alloc-free.
	pos rankIndex
	// excl is the reusable per-step exclude set of sampleNewEdges (the
	// ranks that died this step); rebuilding a map here used to be the
	// only per-step allocation left in Step.
	excl rankIndex
	// born and died record the ranks that flipped in the most recent Step,
	// backing AppendDeltas; buffers are reused across steps.
	born, died []int64
	// churnDeaths selects the O(churn)-draw death sampler (geometric
	// skipping over the alive slice) instead of the per-edge Bernoulli
	// sweep. Same transition law, different RNG stream; see
	// UseChurnSampler.
	churnDeaths bool
}

// NewSparse builds a sparse simulator with the given initial distribution.
func NewSparse(params Params, init Init, r *rng.RNG) *Sparse {
	if err := params.Validate(); err != nil {
		panic(err)
	}
	s := &Sparse{
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
		k := binomialInt64(pairs, params.Alpha(), r)
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
// same device binomialInt64 uses for births) — instead of the per-edge
// Bernoulli sweep, whose O(alive) draws dominate the step once delta
// consumers stop paying for snapshot scans. The trajectory law is
// unchanged; the random-number STREAM is not, so fixed-seed runs differ
// (same distribution). Call it before the first Step; the spec param
// stream=v2 does.
func (s *Sparse) UseChurnSampler() { s.churnDeaths = true }

// insert adds rank to the alive set (at the maximal position) and records
// it as born; it must not already be present.
func (s *Sparse) insert(rank int64) {
	p := len(s.edges)
	if p > maxAlive {
		panic("edgemeg: alive set exceeds int32 positions")
	}
	s.pos.Put(rank, int32(p))
	s.edges = append(s.edges, rank)
	s.born = append(s.born, rank)
}

// remove deletes rank from the alive set by swap-with-last.
func (s *Sparse) remove(rank int64) {
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

// binomialInt64 samples Binomial(n, p) for potentially huge n via geometric
// skipping (exact; expected cost O(np)).
func binomialInt64(n int64, p float64, r *rng.RNG) int64 {
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
func (s *Sparse) sampleNewEdges(k int64, exclude *rankIndex) {
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

// N implements dyngraph.Dynamic.
func (s *Sparse) N() int { return s.params.N }

// Step implements dyngraph.Dynamic.
func (s *Sparse) Step() {
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
		births := binomialInt64(dead, p, s.r)
		var exclude *rankIndex
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

// AppendEdges implements dyngraph.Dynamic: the alive-edge list IS the
// snapshot, so the batch decodes each rank once.
func (s *Sparse) AppendEdges(dst []dyngraph.Edge) []dyngraph.Edge {
	n := s.params.N
	for _, rank := range s.edges {
		u, v := pairFromRank(rank, n)
		dst = append(dst, dyngraph.Edge{U: int32(u), V: int32(v)})
	}
	return dst
}

// AppendDeltas implements dyngraph.DeltaBatcher: the Markov step already
// knows exactly which ranks flipped, so the churn batches cost one rank
// decode per changed edge — no snapshot rescans.
func (s *Sparse) AppendDeltas(born, died []dyngraph.Edge) (b, d []dyngraph.Edge) {
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

// HasEdge reports whether {i, j} is currently alive.
func (s *Sparse) HasEdge(i, j int) bool {
	if i == j {
		return false
	}
	return s.pos.Has(pairRank(i, j, s.params.N))
}

// EdgeCount returns the current number of alive edges.
func (s *Sparse) EdgeCount() int { return len(s.edges) }

// Bytes returns the heap bytes retained by the simulator's state — the
// alive slice, the rank index, the exclude scratch and the churn
// buffers. It is the model side of the resident-footprint accounting that gates the
// million-node engine.
func (s *Sparse) Bytes() int64 {
	b := int64(cap(s.edges))*8 + s.pos.Bytes() + s.excl.Bytes()
	return b + int64(cap(s.born))*8 + int64(cap(s.died))*8
}

// maxAlive bounds the alive-slice positions the rank index stores as
// int32.
const maxAlive = 1<<31 - 2
