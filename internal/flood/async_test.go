package flood_test

// Pins for the asynchronous Poisson-clock engine: runs fed by differently
// ordered delta streams of the same snapshots must produce byte-identical
// Results including the cost fields, the
// trajectory must be a pure function of (graph realization, clockSeed), and
// the rate parameter must obey the law it claims — λ-fold more firings per
// step completes proportionally faster, and λ=1 lands in the same regime as
// synchronous push.

import (
	"reflect"
	"testing"

	"repro/internal/flood"
	"repro/internal/model"
	_ "repro/internal/model/all"
	"repro/internal/rng"
)

// TestAsyncDispatchPathsAgree pins the order-insensitive contact draw: the
// model's native delta stream and the test-side Deltifier's sorted
// snapshot diff leave the tracked adjacency in different neighbor orders,
// and the runs must still agree exactly, cost fields included.
func TestAsyncDispatchPathsAgree(t *testing.T) {
	opts := flood.Opts{MaxSteps: 1 << 13, KeepTimeline: true}
	for _, ms := range equivModels {
		for _, seed := range []uint64{3, 77} {
			const clockSeed = 0xA57C
			native := flood.Async(model.MustBuild(ms, seed), 0, 1, clockSeed, opts)
			deltified := flood.Async(flood.NewDeltifier(model.MustBuild(ms, seed)), 0, 1, clockSeed, opts)
			if !reflect.DeepEqual(native, deltified) {
				t.Errorf("%v seed %d: native stream %+v != deltified stream %+v", ms, seed, native, deltified)
			}
			checkCost(t, native)
		}
	}
}

// TestAsyncDeterministicInClockSeed pins the reproducibility contract: the
// trajectory is a pure function of (graph realization, clockSeed), and the
// clock seed genuinely matters.
func TestAsyncDeterministicInClockSeed(t *testing.T) {
	ms := model.New("edgemeg").WithInt("n", 96).WithFloat("p", 0.02).WithFloat("q", 0.18)
	opts := flood.Opts{MaxSteps: 1 << 13, KeepTimeline: true}
	a := flood.Async(model.MustBuild(ms, 5), 0, 1, 11, opts)
	b := flood.Async(model.MustBuild(ms, 5), 0, 1, 11, opts)
	if !reflect.DeepEqual(a, b) {
		t.Errorf("same (graph, clockSeed) produced different runs: %+v vs %+v", a, b)
	}
	c := flood.Async(model.MustBuild(ms, 5), 0, 1, 12, opts)
	if reflect.DeepEqual(a.Timeline, c.Timeline) && a.Messages == c.Messages {
		t.Errorf("different clock seeds produced an identical run: %+v", a)
	}
}

// asyncMeanTime runs trials of the async engine on fresh realizations of ms
// and returns the mean completion time in graph steps.
func asyncMeanTime(t *testing.T, ms model.Spec, rate float64, trials int) float64 {
	t.Helper()
	var sum float64
	for trial := 0; trial < trials; trial++ {
		d := model.MustBuild(ms, rng.Seed(9000, uint64(trial)))
		res := flood.Async(d, 0, rate, rng.Seed(9001, uint64(trial)), flood.Opts{MaxSteps: 1 << 14})
		if !res.Completed {
			t.Fatalf("async rate=%v trial %d did not complete on %v", rate, trial, ms)
		}
		sum += float64(res.Time)
	}
	return sum / float64(trials)
}

// TestAsyncRateLaw pins the meaning of λ: quadrupling the clock rate
// completes in about a quarter of the steps (event time per step scales
// with λ), and λ=1 — one expected firing per node per step — lands in the
// same regime as synchronous push:k=1, which gives every informed node
// exactly one transmission per step. Async is moderately faster than push
// at equal budget (a node informed mid-step can fire within that step, and
// firing counts over a step concentrate above their mean for the informed
// frontier); the band below is wide enough to hold for any seed drift yet
// tight enough to catch a rate wired in upside down or off by a factor.
func TestAsyncRateLaw(t *testing.T) {
	ms := model.New("static").With("topology", "complete").WithInt("n", 64)
	const trials = 40
	mean1 := asyncMeanTime(t, ms, 1, trials)
	mean4 := asyncMeanTime(t, ms, 4, trials)
	if ratio := mean1 / mean4; ratio < 2.5 || ratio > 6 {
		t.Errorf("rate 4 should be ~4x faster than rate 1: means %.2f vs %.2f (ratio %.2f)", mean1, mean4, ratio)
	}

	var pushSum float64
	for trial := 0; trial < trials; trial++ {
		d := model.MustBuild(ms, rng.Seed(9000, uint64(trial)))
		res := flood.RandomizedPush(d, 0, 1, rng.New(rng.Seed(9002, uint64(trial))), flood.Opts{MaxSteps: 1 << 14})
		if !res.Completed {
			t.Fatalf("push trial %d did not complete", trial)
		}
		pushSum += float64(res.Time)
	}
	pushMean := pushSum / trials
	if ratio := mean1 / pushMean; ratio < 0.4 || ratio > 1.2 {
		t.Errorf("async rate=1 (mean %.2f) out of band against push:k=1 (mean %.2f): ratio %.2f", mean1, pushMean, ratio)
	}
}
