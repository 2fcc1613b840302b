// Package edgemeg implements edge-Markovian evolving graphs: the two-state
// birth/death model of [Clementi–Macci–Monti–Pasquale–Silvestri, PODC 2008]
// that Appendix A of the paper benchmarks against, and the paper's
// generalized edge-MEG EM(n, M, χ) in which every edge follows an arbitrary
// hidden Markov chain.
//
// Two exact simulators are provided for the two-state model: a dense one
// (per-pair Bernoulli flips, any parameters, O(n²) per step) and a sparse
// one (alive-edge list plus binomial birth sampling, O(alive + births) per
// step) whose distribution over trajectories is identical — this is
// property-tested. The sparse simulator handles the paper's interesting
// regime, sparse stationary graphs with n·α = O(1), at n up to 10⁵.
package edgemeg

import (
	"fmt"
	"math"

	"repro/internal/markov"
)

// Params defines a two-state edge-MEG: every one of the n(n-1)/2 potential
// edges independently follows the birth/death chain with birth rate P and
// death rate Q.
type Params struct {
	N int     // number of nodes
	P float64 // edge birth rate: off -> on
	Q float64 // edge death rate: on -> off
}

// Validate checks the parameters. Besides the chain's own checks it
// rejects a positive rate so small that 1-rate rounds to 1 (rate ≤ 2⁻⁵⁴):
// the geometric samplers take ln(1-rate), which is then 0, so every gap
// draws 0 and the rarest transition becomes a certain one (see
// rng.Geometric). Since α ≥ p/(1+p), this also keeps the stationary
// initial draw away from that case.
func (p Params) Validate() error {
	if p.N < 2 {
		return fmt.Errorf("edgemeg: need at least 2 nodes, got %d", p.N)
	}
	if err := (markov.TwoState{P: p.P, Q: p.Q}).Validate(); err != nil {
		return err
	}
	if p.P > 0 && 1-p.P == 1 {
		return fmt.Errorf("edgemeg: birth rate p = %v is too small to sample (1-p rounds to 1)", p.P)
	}
	if p.Q > 0 && 1-p.Q == 1 {
		return fmt.Errorf("edgemeg: death rate q = %v is too small to sample (1-q rounds to 1)", p.Q)
	}
	return nil
}

// Chain returns the per-edge two-state chain.
func (p Params) Chain() markov.TwoState { return markov.TwoState{P: p.P, Q: p.Q} }

// Alpha returns the stationary edge probability p/(p+q) — the density
// parameter α of the Theorem 1 instantiation in Appendix A.
func (p Params) Alpha() float64 { return p.Chain().StationaryOn() }

// MixingTime returns the per-edge chain's mixing time at threshold eps.
// Because edges are independent, Appendix A uses Θ(1/(p+q)) for the whole
// graph process; see core.EdgeMEGBound for the resulting flooding bound.
func (p Params) MixingTime(eps float64) int { return p.Chain().MixingTime(eps) }

// ExpectedDegree returns (n-1)·α, the stationary expected degree.
func (p Params) ExpectedDegree() float64 { return float64(p.N-1) * p.Alpha() }

// Init selects the initial edge distribution of a simulator.
type Init int

const (
	// InitStationary samples each edge independently from the stationary
	// law (on with probability α). This realizes the paper's stationary
	// MEG assumption from time zero.
	InitStationary Init = iota
	// InitEmpty starts with no edges — the worst case for the Density
	// condition until the process mixes.
	InitEmpty
	// InitFull starts with all edges present.
	InitFull
)

// String implements fmt.Stringer.
func (in Init) String() string {
	switch in {
	case InitStationary:
		return "stationary"
	case InitEmpty:
		return "empty"
	case InitFull:
		return "full"
	default:
		return fmt.Sprintf("Init(%d)", int(in))
	}
}

// pairCount returns n(n-1)/2.
func pairCount(n int) int64 { return int64(n) * int64(n-1) / 2 }

// pairRank maps an unordered pair {u, v} with u < v to its rank in the
// ordering (0,1),(0,2),...,(0,n-1),(1,2),...
func pairRank(u, v, n int) int64 {
	if u > v {
		u, v = v, u
	}
	return int64(u)*int64(n) - int64(u)*int64(u+1)/2 + int64(v-u-1)
}

// isPair reports whether {i, j} is a pair of distinct nodes of [0, n) —
// the pairs pairRank numbers. HasEdge checks it first, so an out-of-range
// endpoint reads no other pair's state.
func isPair(i, j, n int) bool {
	return i != j && i >= 0 && j >= 0 && i < n && j < n
}

// rowStart returns the rank of pair (u, u+1), the first pair of row u.
func rowStart(u, n int) int64 {
	return int64(u)*int64(n) - int64(u)*int64(u+1)/2
}

// pairFromRank inverts pairRank in O(1): a closed-form estimate of the row
// from the quadratic rank formula, corrected by at most a couple of steps
// for floating-point error. Batch snapshot enumeration calls it once per
// alive edge, so constant time matters.
func pairFromRank(rank int64, n int) (int, int) {
	nf := float64(n) - 0.5
	disc := nf*nf - 2*float64(rank)
	if disc < 0 {
		disc = 0
	}
	u := int(nf - math.Sqrt(disc))
	if u < 0 {
		u = 0
	}
	if u > n-2 {
		u = n - 2
	}
	for u > 0 && rowStart(u, n) > rank {
		u--
	}
	for u < n-2 && rowStart(u+1, n) <= rank {
		u++
	}
	return u, u + 1 + int(rank-rowStart(u, n))
}
