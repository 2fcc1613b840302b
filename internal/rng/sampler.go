package rng

import "math"

// Geometric returns the number of independent Bernoulli(p) failures before
// the first success, i.e. a sample from the geometric distribution on
// {0, 1, 2, ...} with success probability p. It panics if p <= 0 or p > 1.
//
// Sampling uses inversion: floor(ln U / ln(1-p)) for U uniform in (0, 1].
// Loops that draw many values at one p should hold a NewGeometric sampler,
// which takes ln(1-p) once.
func (r *RNG) Geometric(p float64) int { return NewGeometric(p).Draw(r) }

// Geometric draws from the geometric distribution of one success
// probability p with ln(1-p) computed once: geometric-skip loops draw one
// value per success, and taking that logarithm on every draw would double
// the logarithms they take. It consumes exactly the stream of
// (*RNG).Geometric(p) and returns the same values. Build it with
// NewGeometric.
type Geometric struct {
	p    float64
	logQ float64 // ln(1-p)
}

// NewGeometric returns the sampler for success probability p. It panics if
// p <= 0 or p > 1.
func NewGeometric(p float64) Geometric {
	if p <= 0 || p > 1 {
		panic("rng: Geometric needs 0 < p <= 1")
	}
	return Geometric{p: p, logQ: math.Log(1 - p)}
}

// Draw returns one sample. At p = 1 it consumes no randomness. At a p so
// small that 1-p rounds to 1, ln(1-p) is 0 and every draw is 0 after
// consuming one uniform: a known defect, kept because the fix (Log1p)
// would change the bits of every fixed-seed stream.
func (g Geometric) Draw(r *RNG) int {
	if g.p == 1 {
		return 0
	}
	// 1 - Float64() is uniform in (0, 1], avoiding log(0).
	u := 1 - r.Float64()
	x := math.Floor(math.Log(u) / g.logQ)
	if x < 0 {
		return 0
	}
	if x > math.MaxInt32 {
		return math.MaxInt32
	}
	return int(x)
}

// Binomial returns an exact sample from Binomial(n, p).
//
// For small n it sums Bernoulli trials. For larger n with small success
// counts it uses geometric skipping, which costs O(np) expected time — the
// same order as the number of successes the caller must then process, so it
// never dominates the caller's own work. For large n with large np it falls
// back to the BTRS-free inversion on the complementary parameter so the
// expected cost stays O(n · min(p, 1-p)).
func (r *RNG) Binomial(n int, p float64) int {
	switch {
	case n < 0:
		panic("rng: Binomial needs n >= 0")
	case n == 0 || p <= 0:
		return 0
	case p >= 1:
		return n
	}
	// Work with the smaller tail; successes under p' = 1-p convert back as
	// n - k.
	if p > 0.5 {
		return n - r.Binomial(n, 1-p)
	}
	if n <= 32 {
		k := 0
		for i := 0; i < n; i++ {
			if r.Float64() < p {
				k++
			}
		}
		return k
	}
	// Geometric skipping: jump over runs of failures.
	gap := NewGeometric(p)
	k := 0
	i := gap.Draw(r)
	for i < n {
		k++
		i += 1 + gap.Draw(r)
	}
	return k
}

// Poisson returns an exact sample from Poisson(lambda) using Knuth's
// multiplication method for small lambda and splitting for large lambda.
func (r *RNG) Poisson(lambda float64) int {
	if lambda <= 0 {
		return 0
	}
	// Split large rates to avoid exp underflow: Poisson(a+b) is the sum of
	// independent Poisson(a) and Poisson(b).
	const chunk = 500.0
	k := 0
	for lambda > chunk {
		k += r.Poisson(chunk)
		lambda -= chunk
	}
	limit := math.Exp(-lambda)
	prod := r.Float64()
	for prod > limit {
		k++
		prod *= r.Float64()
	}
	return k
}

// Exponential returns a sample from Exp(rate).
func (r *RNG) Exponential(rate float64) float64 {
	if rate <= 0 {
		panic("rng: Exponential needs rate > 0")
	}
	u := 1 - r.Float64()
	return -math.Log(u) / rate
}

// Categorical samples an index from the (not necessarily normalized)
// non-negative weight vector w by inverse-CDF scanning. It panics if all
// weights are zero or any weight is negative. For repeated sampling from the
// same weights prefer NewAlias.
func (r *RNG) Categorical(w []float64) int {
	total := 0.0
	for _, x := range w {
		if x < 0 || math.IsNaN(x) {
			panic("rng: Categorical needs non-negative weights")
		}
		total += x
	}
	if total <= 0 {
		panic("rng: Categorical needs a positive total weight")
	}
	u := r.Float64() * total
	acc := 0.0
	for i, x := range w {
		acc += x
		if u < acc {
			return i
		}
	}
	// Floating-point slack: return the last positive-weight index.
	for i := len(w) - 1; i >= 0; i-- {
		if w[i] > 0 {
			return i
		}
	}
	return len(w) - 1
}

// SampleDistinct returns k distinct uniform values from [0, n) in
// unspecified order. It panics if k > n or k < 0. It uses Floyd's algorithm,
// costing O(k) expected time and O(k) space regardless of n.
func (r *RNG) SampleDistinct(n, k int) []int {
	return r.SampleDistinctInto(n, k, make([]int, 0, k))
}

// SampleDistinctInto is SampleDistinct appending into dst, for hot loops
// that reuse one buffer across many draws (gossip fan-out selection every
// step of every trial). It consumes exactly the random stream of
// SampleDistinct — the two are interchangeable without perturbing any
// seeded experiment — and allocates nothing when dst has capacity k.
// Duplicate detection scans the appended prefix, which beats a map for the
// small k of gossip protocols.
func (r *RNG) SampleDistinctInto(n, k int, dst []int) []int {
	if k < 0 || k > n {
		panic("rng: SampleDistinct needs 0 <= k <= n")
	}
	base := len(dst)
	for j := n - k; j < n; j++ {
		t := r.Intn(j + 1)
		for _, prev := range dst[base:] {
			if prev == t {
				t = j
				break
			}
		}
		dst = append(dst, t)
	}
	return dst
}
