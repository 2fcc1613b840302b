package edgemeg

import (
	"math/bits"

	"repro/internal/dyngraph"
	"repro/internal/rng"
)

// Dense is the exact O(n²)-per-step simulator of the two-state edge-MEG.
// It stores one bit per potential edge and flips each independently every
// step. Use it for moderate n or dense parameter regimes; prefer Sparse
// when the stationary graph is sparse.
type Dense struct {
	params Params
	r      *rng.RNG
	bits   []uint64 // one bit per pair, pairRank order
	pairs  int64
	// born and died record the edges that flipped in the most recent Step,
	// backing dyngraph.DeltaBatcher; buffers are reused across steps.
	born, died []dyngraph.Edge
}

// NewDense builds a dense simulator with the given initial distribution.
// It panics on invalid parameters (validated construction is the caller's
// job in library code paths; see Params.Validate).
func NewDense(params Params, init Init, r *rng.RNG) *Dense {
	if err := params.Validate(); err != nil {
		panic(err)
	}
	pairs := pairCount(params.N)
	d := &Dense{
		params: params,
		r:      r,
		bits:   make([]uint64, (pairs+63)/64),
		pairs:  pairs,
	}
	switch init {
	case InitEmpty:
		// zero value
	case InitFull:
		for rank := int64(0); rank < pairs; rank++ {
			d.set(rank, true)
		}
	case InitStationary:
		alpha := params.Alpha()
		for rank := int64(0); rank < pairs; rank++ {
			if r.Bool(alpha) {
				d.set(rank, true)
			}
		}
	default:
		panic("edgemeg: unknown Init")
	}
	return d
}

func (d *Dense) get(rank int64) bool {
	return d.bits[rank>>6]&(1<<(uint(rank)&63)) != 0
}

func (d *Dense) set(rank int64, on bool) {
	if on {
		d.bits[rank>>6] |= 1 << (uint(rank) & 63)
	} else {
		d.bits[rank>>6] &^= 1 << (uint(rank) & 63)
	}
}

// N implements dyngraph.Dynamic.
func (d *Dense) N() int { return d.params.N }

// Step implements dyngraph.Dynamic: every edge flips according to its
// two-state chain, independently. The sweep tracks the pair coordinates
// alongside the rank, so each flip is recorded as a ready-made delta edge
// without a rank inversion.
func (d *Dense) Step() {
	p, q := d.params.P, d.params.Q
	d.born, d.died = d.born[:0], d.died[:0]
	n := d.params.N
	rank := int64(0)
	for u := 0; u < n-1; u++ {
		for v := u + 1; v < n; v++ {
			if d.get(rank) {
				if d.r.Bool(q) {
					d.set(rank, false)
					d.died = append(d.died, dyngraph.Edge{U: int32(u), V: int32(v)})
				}
			} else {
				if d.r.Bool(p) {
					d.set(rank, true)
					d.born = append(d.born, dyngraph.Edge{U: int32(u), V: int32(v)})
				}
			}
			rank++
		}
	}
}

// AppendEdges implements dyngraph.Dynamic by scanning the bitset one word
// at a time and decoding only the set bits.
func (d *Dense) AppendEdges(dst []dyngraph.Edge) []dyngraph.Edge {
	n := d.params.N
	for w, word := range d.bits {
		base := int64(w) << 6
		for word != 0 {
			bit := bits.TrailingZeros64(word)
			word &= word - 1
			u, v := pairFromRank(base+int64(bit), n)
			dst = append(dst, dyngraph.Edge{U: int32(u), V: int32(v)})
		}
	}
	return dst
}

// AppendDeltas implements dyngraph.DeltaBatcher, serving the flips the
// last Step recorded.
func (d *Dense) AppendDeltas(born, died []dyngraph.Edge) (b, dd []dyngraph.Edge) {
	return append(born, d.born...), append(died, d.died...)
}

// HasEdge reports whether {i, j} is currently on; a pair with an endpoint
// outside [0, n) never is.
func (d *Dense) HasEdge(i, j int) bool {
	if !isPair(i, j, d.params.N) {
		return false
	}
	return d.get(pairRank(i, j, d.params.N))
}

// EdgeCount returns the current number of on edges.
func (d *Dense) EdgeCount() int {
	total := 0
	for rank := int64(0); rank < d.pairs; rank++ {
		if d.get(rank) {
			total++
		}
	}
	return total
}
