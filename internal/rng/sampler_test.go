package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestGeometricMean(t *testing.T) {
	r := New(101)
	for _, p := range []float64{0.5, 0.1, 0.01} {
		const trials = 100000
		sum := 0.0
		for i := 0; i < trials; i++ {
			sum += float64(r.Geometric(p))
		}
		mean := sum / trials
		want := (1 - p) / p
		sd := math.Sqrt((1 - p)) / p
		if math.Abs(mean-want) > 5*sd/math.Sqrt(trials) {
			t.Errorf("Geometric(%v) mean %v, want %v", p, mean, want)
		}
	}
}

func TestGeometricOne(t *testing.T) {
	r := New(103)
	for i := 0; i < 100; i++ {
		if r.Geometric(1) != 0 {
			t.Fatal("Geometric(1) != 0")
		}
	}
}

// geometricFormula is (*RNG).Geometric as it was before the log of the
// failure probability was hoisted into Geometric, kept verbatim so the
// sampler stays pinned to it bit for bit.
func geometricFormula(r *RNG, p float64) int {
	if p <= 0 || p > 1 {
		panic("rng: Geometric needs 0 < p <= 1")
	}
	if p == 1 {
		return 0
	}
	// 1 - Float64() is uniform in (0, 1], avoiding log(0).
	u := 1 - r.Float64()
	g := math.Floor(math.Log(u) / math.Log(1-p))
	if g < 0 {
		return 0
	}
	if g > math.MaxInt32 {
		return math.MaxInt32
	}
	return int(g)
}

// TestGeometricSamplerMatchesFormula pins the hoisted sampler and the
// one-off method to the original formula: the same values from the same
// stream, the stream left at the same place, no draw at p = 1, and one
// draw at a p whose 1-p rounds to 1.
func TestGeometricSamplerMatchesFormula(t *testing.T) {
	for _, p := range []float64{1, 0.5, 1e-3, 2e-8, 1e-17} {
		want, viaSampler, viaMethod := New(71), New(71), New(71)
		g := NewGeometric(p)
		for i := 0; i < 5000; i++ {
			w := geometricFormula(want, p)
			if got := g.Draw(viaSampler); got != w {
				t.Fatalf("p=%g draw %d: sampler %d, formula %d", p, i, got, w)
			}
			if got := viaMethod.Geometric(p); got != w {
				t.Fatalf("p=%g draw %d: method %d, formula %d", p, i, got, w)
			}
		}
		next := want.Uint64()
		if viaSampler.Uint64() != next || viaMethod.Uint64() != next {
			t.Fatalf("p=%g: stream position differs from the formula's", p)
		}
	}
	fresh := New(5)
	if NewGeometric(1).Draw(fresh); fresh.Uint64() != New(5).Uint64() {
		t.Error("p=1 consumed randomness")
	}
	tiny, once := New(5), New(5)
	once.Float64()
	if NewGeometric(1e-17).Draw(tiny); tiny.Uint64() != once.Uint64() {
		t.Error("p=1e-17 did not consume exactly one uniform")
	}
}

func TestGeometricPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Geometric(0) did not panic")
		}
	}()
	New(1).Geometric(0)
}

func TestBinomialEdgeCases(t *testing.T) {
	r := New(107)
	if r.Binomial(0, 0.5) != 0 {
		t.Fatal("Binomial(0, p) != 0")
	}
	if r.Binomial(10, 0) != 0 {
		t.Fatal("Binomial(n, 0) != 0")
	}
	if r.Binomial(10, 1) != 10 {
		t.Fatal("Binomial(n, 1) != n")
	}
}

func TestBinomialRangeProperty(t *testing.T) {
	r := New(109)
	f := func(nRaw uint16, pRaw uint16) bool {
		n := int(nRaw % 500)
		p := float64(pRaw%1000) / 1000
		k := r.Binomial(n, p)
		return k >= 0 && k <= n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestBinomialMoments(t *testing.T) {
	r := New(113)
	cases := []struct {
		n int
		p float64
	}{
		{10, 0.5},    // small-n path
		{1000, 0.01}, // geometric skipping path
		{1000, 0.9},  // complementary path
		{200, 0.3},
	}
	for _, c := range cases {
		const trials = 50000
		sum, sumsq := 0.0, 0.0
		for i := 0; i < trials; i++ {
			k := float64(r.Binomial(c.n, c.p))
			sum += k
			sumsq += k * k
		}
		mean := sum / trials
		variance := sumsq/trials - mean*mean
		wantMean := float64(c.n) * c.p
		wantVar := float64(c.n) * c.p * (1 - c.p)
		tolM := 6 * math.Sqrt(wantVar/trials)
		if math.Abs(mean-wantMean) > tolM {
			t.Errorf("Binomial(%d,%v) mean %v, want %v ± %v", c.n, c.p, mean, wantMean, tolM)
		}
		if math.Abs(variance-wantVar) > 0.1*wantVar+1 {
			t.Errorf("Binomial(%d,%v) var %v, want %v", c.n, c.p, variance, wantVar)
		}
	}
}

func TestPoissonMoments(t *testing.T) {
	r := New(127)
	for _, lambda := range []float64{0.5, 3, 50, 700} {
		const trials = 30000
		sum := 0.0
		for i := 0; i < trials; i++ {
			sum += float64(r.Poisson(lambda))
		}
		mean := sum / trials
		tol := 6 * math.Sqrt(lambda/trials)
		if math.Abs(mean-lambda) > tol {
			t.Errorf("Poisson(%v) mean %v", lambda, mean)
		}
	}
}

func TestExponentialMean(t *testing.T) {
	r := New(131)
	const rate, trials = 2.0, 100000
	sum := 0.0
	for i := 0; i < trials; i++ {
		sum += r.Exponential(rate)
	}
	mean := sum / trials
	if math.Abs(mean-1/rate) > 0.01 {
		t.Fatalf("Exponential(%v) mean %v", rate, mean)
	}
}

func TestCategoricalFrequencies(t *testing.T) {
	r := New(137)
	w := []float64{1, 0, 3, 6}
	const trials = 100000
	counts := make([]float64, len(w))
	for i := 0; i < trials; i++ {
		counts[r.Categorical(w)]++
	}
	total := 10.0
	for i, wi := range w {
		got := counts[i] / trials
		want := wi / total
		if math.Abs(got-want) > 0.01 {
			t.Errorf("Categorical index %d freq %v, want %v", i, got, want)
		}
	}
	if counts[1] != 0 {
		t.Error("Categorical returned zero-weight index")
	}
}

func TestCategoricalPanicsOnZeroTotal(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Categorical over zero weights did not panic")
		}
	}()
	New(1).Categorical([]float64{0, 0})
}

func TestSampleDistinct(t *testing.T) {
	r := New(139)
	f := func(nRaw, kRaw uint16) bool {
		n := int(nRaw%200) + 1
		k := int(kRaw) % (n + 1)
		s := r.SampleDistinct(n, k)
		if len(s) != k {
			return false
		}
		seen := make(map[int]bool, k)
		for _, v := range s {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestSampleDistinctUniform(t *testing.T) {
	// Each element should appear with probability k/n.
	r := New(149)
	const n, k, trials = 10, 3, 60000
	counts := make([]float64, n)
	for i := 0; i < trials; i++ {
		for _, v := range r.SampleDistinct(n, k) {
			counts[v]++
		}
	}
	want := float64(k) / n
	for i, c := range counts {
		got := c / trials
		if math.Abs(got-want) > 0.01 {
			t.Errorf("element %d inclusion freq %v, want %v", i, got, want)
		}
	}
}

func TestAliasMatchesWeights(t *testing.T) {
	r := New(151)
	w := []float64{0.1, 0.4, 0.2, 0.3}
	a := NewAlias(w)
	const trials = 200000
	counts := make([]float64, len(w))
	for i := 0; i < trials; i++ {
		counts[a.Sample(r)]++
	}
	for i, wi := range w {
		got := counts[i] / trials
		if math.Abs(got-wi) > 0.01 {
			t.Errorf("alias index %d freq %v, want %v", i, got, wi)
		}
	}
}

func TestAliasProbabilitiesReconstruction(t *testing.T) {
	w := []float64{2, 5, 1, 1, 3}
	a := NewAlias(w)
	p := a.Probabilities()
	total := 12.0
	for i, wi := range w {
		if math.Abs(p[i]-wi/total) > 1e-9 {
			t.Errorf("reconstructed p[%d] = %v, want %v", i, p[i], wi/total)
		}
	}
}

func TestAliasSingleOutcome(t *testing.T) {
	a := NewAlias([]float64{5})
	r := New(157)
	for i := 0; i < 100; i++ {
		if a.Sample(r) != 0 {
			t.Fatal("single-outcome alias returned nonzero index")
		}
	}
}

func TestAliasDegenerateWeight(t *testing.T) {
	a := NewAlias([]float64{0, 1, 0})
	r := New(163)
	for i := 0; i < 1000; i++ {
		if a.Sample(r) != 1 {
			t.Fatal("alias sampled zero-weight outcome")
		}
	}
}

func TestAliasPanicsOnNegative(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewAlias with negative weight did not panic")
		}
	}()
	NewAlias([]float64{1, -1})
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.Uint64()
	}
}

func BenchmarkAliasSample(b *testing.B) {
	r := New(1)
	w := make([]float64, 1000)
	for i := range w {
		w[i] = float64(i + 1)
	}
	a := NewAlias(w)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = a.Sample(r)
	}
}

func BenchmarkBinomialSparse(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.Binomial(1_000_000, 1e-5)
	}
}
