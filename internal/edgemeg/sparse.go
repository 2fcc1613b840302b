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
// Alive edges are stored in an insertion-ordered slice, so the
// random-number stream is consumed in a deterministic order and runs are
// reproducible per seed (Go map iteration order would not be). Beside it
// sits a membership set of the alive ranks, which birth sampling probes;
// nothing maps a rank to its slice position. A step finds its deaths as
// ascending slice positions and removes them by swap-with-last in that
// order, tracking only where the not-yet-removed deaths currently sit.
//
// The simulator knows exactly which ranks flip each step, so its deltas
// cost one rank decode per changed edge, and it keeps no per-node
// adjacency: the alive slice is the whole state.
type Sparse struct {
	params Params
	r      *rng.RNG
	// edges lists the alive ranks in an arbitrary but deterministic order.
	// During a step's death phase a not-yet-removed death k is marked in
	// place as ^k (ranks are >= 0, marks < 0).
	edges []int64
	// alive holds the ranks of edges as a membership set — one bit per
	// pair or a hash table of ranks, chosen by NewSparse from n, p and q;
	// see setUsesBits. During a step it also holds that step's deaths until
	// the births are drawn.
	alive rankSet
	// born and died record the ranks that flipped in the most recent Step,
	// backing AppendDeltas; buffers are reused across steps. at[k] is the
	// current slice position of death k while the deaths are removed.
	born, died []int64
	at         []int
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
	return newSparse(params, init, r, setUsesBits(params))
}

// newSparse is NewSparse with the alive set's form given: one bit per pair
// when bits is set, else the hash table.
func newSparse(params Params, init Init, r *rng.RNG, bits bool) *Sparse {
	s := &Sparse{
		params: params,
		r:      r,
	}
	pairs := pairCount(params.N)
	if bits {
		s.alive = newBitRankSet(pairs)
	}
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
		s.alive.Reserve(int(k))
		s.sampleNewEdges(k)
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
	s.alive.Add(rank)
	s.edges = append(s.edges, rank)
	s.born = append(s.born, rank)
}

// kill records the edge at slice position i as this step's next death,
// k, and marks it in place as ^k.
func (s *Sparse) kill(i int) {
	s.died = append(s.died, s.edges[i])
	s.at = append(s.at, i)
	s.edges[i] = ^int64(len(s.at) - 1)
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
	gap := rng.NewGeometric(p)
	var k, i int64
	i = int64(gap.Draw(r))
	for i < n {
		k++
		i += 1 + int64(gap.Draw(r))
	}
	return k
}

// sampleNewEdges inserts k uniformly random pairs absent from the alive
// set. During a step that set still holds the step's deaths, so one probe
// rejects exactly the pairs alive before the step and the births drawn so
// far: births apply to pre-step dead pairs only. The rejection draws are
// identical to the historical map-backed version, so the RNG stream — and
// every fixed-seed pin — is unchanged.
func (s *Sparse) sampleNewEdges(k int64) {
	pairs := pairCount(s.params.N)
	for added := int64(0); added < k; {
		rank := int64(s.r.Uint64n(uint64(pairs)))
		if s.alive.Has(rank) {
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
	s.born, s.died, s.at = s.born[:0], s.died[:0], s.at[:0]

	// Deaths: collect at ascending slice positions. The default sweep
	// draws one Bernoulli per alive edge (the stream-compatible path);
	// churnDeaths draws one Geometric per death instead — identical law
	// over the died set, O(churn) draws.
	if q > 0 {
		if s.churnDeaths {
			gap := rng.NewGeometric(q)
			for i := gap.Draw(s.r); i < len(s.edges); i += 1 + gap.Draw(s.r) {
				s.kill(i)
			}
		} else {
			for i := range s.edges {
				if s.r.Bool(q) {
					s.kill(i)
				}
			}
		}
		// Remove them in that order by swap-with-last. A death swapped
		// forward is a mark ^k, whose new position goes to at[k].
		for _, i := range s.at {
			last := len(s.edges) - 1
			moved := s.edges[last]
			s.edges[i] = moved
			if moved < 0 {
				s.at[^moved] = i
			}
			s.edges = s.edges[:last]
		}
	}

	// Births apply to pairs dead before the step; insert records them
	// into s.born. The died ranks leave the set only afterwards.
	if p > 0 {
		s.sampleNewEdges(binomialInt64(pairs-aliveBefore, p, s.r))
	}
	for _, rank := range s.died {
		s.alive.Delete(rank)
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

// HasEdge reports whether {i, j} is currently alive; a pair with an
// endpoint outside [0, n) never is.
func (s *Sparse) HasEdge(i, j int) bool {
	if !isPair(i, j, s.params.N) {
		return false
	}
	return s.alive.Has(pairRank(i, j, s.params.N))
}

// EdgeCount returns the current number of alive edges.
func (s *Sparse) EdgeCount() int { return len(s.edges) }

// Bytes returns the heap bytes retained by the simulator's state — the
// alive slice, the alive set and the churn buffers. It is the model side
// of the resident-footprint accounting that gates the million-node engine.
func (s *Sparse) Bytes() int64 {
	b := int64(cap(s.edges))*8 + s.alive.Bytes()
	return b + int64(cap(s.born))*8 + int64(cap(s.died))*8 + int64(cap(s.at))*8
}
