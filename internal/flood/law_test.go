package flood_test

// Exact-law gates for the randomized engines. The fixed-seed trajectories
// of k-push, pull, push–pull and the dynamic random walk depend on the
// neighbor order of the tracked adjacency, so byte pins against an older
// engine cannot vouch for them; these tests check the process itself. On
// the two-state edge-MEG at n = 4 the pair (edge mask, informed set) — or
// (edge mask, walker position) — is a finite Markov chain of 64 × 8 (or
// 64 × 4) states, so the law of the completion time (or hitting time)
// follows by forward dynamic programming. Fixed-seed trials, built through
// the model and protocol registries exactly as sweeps build them, must fit
// that law by a χ² goodness-of-fit test.
//
// False-alarm rate: each case rejects at 10⁻⁴ (Wilson–Hilferty χ²
// quantile), so the 36 cases together raise a false alarm on fewer than
// 0.4% of seed choices. The seeds are fixed, so the outcome is
// deterministic; a wrong law (a biased neighbor draw, a push to k+1
// neighbors, a pull that reads the pending set) shifts the completion-time
// law far beyond that threshold at 4000 trials.

import (
	"fmt"
	"math"
	"math/bits"
	"testing"

	"repro/internal/dynwalk"
	"repro/internal/flood"
	"repro/internal/model"
	"repro/internal/protocol"
	"repro/internal/rng"
)

// lawPairs lists the n = 4 node pairs; bit r of an edge mask marks pair r
// present.
var lawPairs = [6][2]int{{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3}}

const (
	lawN        = 4
	lawFull     = 1<<lawN - 1
	lawTrials   = 4000
	lawMinBin   = 10    // least expected count per χ² bin
	lawZ        = 3.719 // standard normal quantile at 1 - 10⁻⁴
	lawMaxSteps = 1 << 16
)

// lawPoints are the (p, q) churn rates checked: slow churn at α = 1/2,
// sparse snapshots at α = 1/5, and fast, anti-correlated churn (p + q > 1).
var lawPoints = [][2]float64{{0.1, 0.1}, {0.05, 0.2}, {0.6, 0.8}}

// nbrs returns node i's neighbors in edge mask m as a node bitmask.
func nbrs(m, i int) int {
	out := 0
	for r, e := range lawPairs {
		if m>>r&1 == 0 {
			continue
		}
		if e[0] == i {
			out |= 1 << e[1]
		} else if e[1] == i {
			out |= 1 << e[0]
		}
	}
	return out
}

func popcount(x int) int { return bits.OnesCount(uint(x)) }

// maskChain returns the edge-mask transition matrix of the two-state
// edge-MEG and its stationary law.
func maskChain(p, q float64) (tr [64][64]float64, pi [64]float64) {
	alpha := p / (p + q)
	for a := 0; a < 64; a++ {
		pi[a] = math.Pow(alpha, float64(popcount(a))) * math.Pow(1-alpha, float64(6-popcount(a)))
		for b := 0; b < 64; b++ {
			pr := 1.0
			for r := 0; r < 6; r++ {
				on, next := a>>r&1 == 1, b>>r&1 == 1
				switch {
				case on && next:
					pr *= 1 - q
				case on:
					pr *= q
				case next:
					pr *= p
				default:
					pr *= 1 - p
				}
			}
			tr[a][b] = pr
		}
	}
	return tr, pi
}

// stepLaw is one protocol step's law: the distribution of the next
// informed set given the snapshot's edge mask and the informed set.
type stepLaw func(m, set int) [16]float64

func floodLaw(m, set int) (out [16]float64) {
	next := set
	for i := 0; i < lawN; i++ {
		if set>>i&1 == 1 {
			next |= nbrs(m, i)
		}
	}
	out[next] = 1
	return out
}

// pushLaw: every informed node contacts a uniform min(k, deg)-subset of its
// neighbors, independently.
func pushLaw(k int) stepLaw {
	return func(m, set int) [16]float64 {
		var dist [16]float64
		dist[set] = 1
		for i := 0; i < lawN; i++ {
			if set>>i&1 == 0 {
				continue
			}
			nb := nbrs(m, i)
			size := min(k, popcount(nb))
			var subsets []int
			for s := nb; ; s = (s - 1) & nb {
				if popcount(s) == size {
					subsets = append(subsets, s)
				}
				if s == 0 {
					break
				}
			}
			var next [16]float64
			for x, px := range dist {
				for _, s := range subsets {
					next[x|s] += px / float64(len(subsets))
				}
			}
			dist = next
		}
		return dist
	}
}

// pullLaw: every uninformed node with a neighbor queries a uniform one and
// is informed iff it was informed at the start of the step.
func pullLaw(m, set int) [16]float64 {
	var dist [16]float64
	dist[set] = 1
	for i := 0; i < lawN; i++ {
		nb := nbrs(m, i)
		if set>>i&1 == 1 || nb == 0 {
			continue
		}
		hit := float64(popcount(nb&set)) / float64(popcount(nb))
		var next [16]float64
		for x, px := range dist {
			next[x|1<<i] += px * hit
			next[x] += px * (1 - hit)
		}
		dist = next
	}
	return dist
}

// pushPullLaw: the push and pull halves draw independently, and a node
// both pushed to and pulling ends informed either way, so the next set is
// the union of independent push and pull outcomes.
func pushPullLaw(k int) stepLaw {
	push := pushLaw(k)
	return func(m, set int) (out [16]float64) {
		pu, pl := push(m, set), pullLaw(m, set)
		for a, pa := range pu {
			for b, pb := range pl {
				out[a|b] += pa * pb
			}
		}
		return out
	}
}

// completionLaw returns P(T = t) for t = 0, 1, ... until the remaining
// mass is negligible, where T is the first t with every node informed,
// flooding from node 0 over a stationary start.
func completionLaw(p, q float64, law stepLaw) []float64 {
	tr, pi := maskChain(p, q)
	var table [64][16][16]float64
	for m := range table {
		for s := range table[m] {
			if s&1 == 1 {
				table[m][s] = law(m, s)
			}
		}
	}
	var cur [64][16]float64
	for m := range cur {
		cur[m][1] = pi[m]
	}
	pmf := []float64{0}
	for alive := 1.0; alive > 1e-12 && len(pmf) < lawMaxSteps; {
		var mid, next [64][16]float64
		done := 0.0
		for m := range cur {
			for s, ps := range cur[m] {
				if ps == 0 {
					continue
				}
				for s2, p2 := range table[m][s] {
					if s2 == lawFull {
						done += ps * p2
					} else {
						mid[m][s2] += ps * p2
					}
				}
			}
		}
		for m := range mid {
			for s, v := range mid[m] {
				if v == 0 {
					continue
				}
				for m2 := range next {
					next[m2][s] += v * tr[m][m2]
				}
			}
		}
		pmf = append(pmf, done)
		alive -= done
		cur = next
	}
	return pmf
}

// hittingLaw returns P(T = t) for the dynamic random walk from node 0 to
// node 3: each step the token moves to a uniform neighbor in the current
// snapshot (staying put when isolated), then the graph steps.
func hittingLaw(p, q float64) []float64 {
	const target = 3
	tr, pi := maskChain(p, q)
	var cur [64][lawN]float64
	for m := range cur {
		cur[m][0] = pi[m]
	}
	pmf := []float64{0}
	for alive := 1.0; alive > 1e-12 && len(pmf) < lawMaxSteps; {
		var mid, next [64][lawN]float64
		done := 0.0
		for m := range cur {
			for pos, pp := range cur[m] {
				if pp == 0 {
					continue
				}
				nb := nbrs(m, pos)
				if nb == 0 {
					mid[m][pos] += pp
					continue
				}
				for j := 0; j < lawN; j++ {
					if nb>>j&1 == 0 {
						continue
					}
					if pj := pp / float64(popcount(nb)); j == target {
						done += pj
					} else {
						mid[m][j] += pj
					}
				}
			}
		}
		for m := range mid {
			for pos, v := range mid[m] {
				if v == 0 {
					continue
				}
				for m2 := range next {
					next[m2][pos] += v * tr[m][m2]
				}
			}
		}
		pmf = append(pmf, done)
		alive -= done
		cur = next
	}
	return pmf
}

// chiSquareFits bins the sampled times (-1 for a run that never finished)
// so every bin expects at least lawMinBin, and reports the χ² statistic,
// its degrees of freedom, and whether it stays below the 1 - 10⁻⁴
// quantile.
func chiSquareFits(pmf []float64, times []int) (stat float64, dof int, ok bool) {
	n := float64(len(times))
	obs := make([]float64, len(pmf)+1) // last slot: beyond the tabulated law
	for _, t := range times {
		if t < 0 || t >= len(pmf) {
			t = len(pmf)
		}
		obs[t]++
	}
	tail := 1.0
	for _, p := range pmf {
		tail -= p
	}
	exp := make([]float64, len(pmf)+1)
	for t, p := range pmf {
		exp[t] = n * p
	}
	exp[len(pmf)] = n * math.Max(tail, 0)
	var binO, binE []float64
	var o, e float64
	for t := range exp {
		o += obs[t]
		e += exp[t]
		if e >= lawMinBin {
			binO, binE = append(binO, o), append(binE, e)
			o, e = 0, 0
		}
	}
	if len(binE) == 0 {
		return 0, 0, false
	}
	binO[len(binO)-1] += o // leftovers join the last full bin
	binE[len(binE)-1] += e
	for i := range binE {
		d := binO[i] - binE[i]
		stat += d * d / binE[i]
	}
	dof = len(binE) - 1
	if dof == 0 {
		return stat, 0, stat == 0
	}
	// Wilson–Hilferty: χ²_k quantile ≈ k (1 - 2/(9k) + z √(2/(9k)))³.
	k := float64(dof)
	crit := k * math.Pow(1-2/(9*k)+lawZ*math.Sqrt(2/(9*k)), 3)
	return stat, dof, stat < crit
}

// lawModels are the two exact edge-MEG simulators; both must realize the
// same chain.
var lawModels = []string{"", ",dense=true"}

func lawModelSpec(p, q float64, variant string) model.Spec {
	s, err := model.Parse(fmt.Sprintf("edgemeg:n=%d,p=%g,q=%g%s", lawN, p, q, variant))
	if err != nil {
		panic(err)
	}
	return s
}

func TestProtocolCompletionLaws(t *testing.T) {
	protocols := []struct {
		spec string
		law  stepLaw
	}{
		{"flood", floodLaw},
		{"push:k=1", pushLaw(1)},
		{"push:k=2", pushLaw(2)},
		{"pull", pullLaw},
		{"pushpull:k=1", pushPullLaw(1)},
	}
	sc := flood.NewScratch()
	for _, pt := range lawPoints {
		for _, variant := range lawModels {
			ms := lawModelSpec(pt[0], pt[1], variant)
			for pi, pr := range protocols {
				pmf := completionLaw(pt[0], pt[1], pr.law)
				ps, err := protocol.Parse(pr.spec)
				if err != nil {
					t.Fatal(err)
				}
				times := make([]int, lawTrials)
				for trial := range times {
					seed := rng.Seed(0x1a3, uint64(pi), uint64(trial))
					d := model.MustBuild(ms, rng.Seed(seed, 1))
					p := protocol.MustBuild(ps, rng.Seed(seed, 2))
					times[trial] = p.Run(d, 0, flood.Opts{MaxSteps: lawMaxSteps, Scratch: sc}).Time
				}
				stat, dof, ok := chiSquareFits(pmf, times)
				if !ok {
					t.Errorf("%v %s: completion times do not fit the exact law: χ² = %.1f on %d dof",
						ms, pr.spec, stat, dof)
				}
				t.Logf("%v %s: χ² = %.1f on %d dof", ms, pr.spec, stat, dof)
			}
		}
	}
}

func TestWalkHittingTimeLaw(t *testing.T) {
	for _, pt := range lawPoints {
		pmf := hittingLaw(pt[0], pt[1])
		for _, variant := range lawModels {
			ms := lawModelSpec(pt[0], pt[1], variant)
			times := make([]int, lawTrials)
			for trial := range times {
				seed := rng.Seed(0x3a1c, uint64(trial))
				d := model.MustBuild(ms, rng.Seed(seed, 1))
				times[trial] = dynwalk.HittingTime(d, 0, 3, lawMaxSteps, rng.New(rng.Seed(seed, 2)))
			}
			stat, dof, ok := chiSquareFits(pmf, times)
			if !ok {
				t.Errorf("%v: hitting times do not fit the exact law: χ² = %.1f on %d dof", ms, stat, dof)
			}
			t.Logf("%v: χ² = %.1f on %d dof", ms, stat, dof)
		}
	}
}
