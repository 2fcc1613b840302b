package core

import (
	"fmt"

	"repro/internal/dyngraph"
)

// Spread measures the dynamic-expansion quantity spread_{τ,T}(A) of
// Section 3 on a live dynamic graph: starting from the graph's current
// time, it advances T steps and counts how many nodes outside A were
// connected to some node of A in at least one of the visited snapshots
// (including the current one, matching the half-open epoch interval of the
// definition up to the time origin).
//
// Lemma 11 predicts spread_{τ,T}(A) >= |A| within
// T = O(1/(|A|n²α²) + β/(nα) + |A|β²/n + (1/(|A|nα) + β)·t epochs with
// probability 1 - exp(-t); experiment E7 and the core tests exercise this.
func Spread(d dyngraph.Dynamic, a []int, t int) int {
	n := d.N()
	inA := make([]bool, n)
	for _, v := range a {
		if v < 0 || v >= n {
			panic(fmt.Sprintf("core: Spread set member %d out of range", v))
		}
		inA[v] = true
	}
	var tr dyngraph.Tracker
	tr.Follow(d)
	reached := make([]bool, n)
	count := 0
	observe := func() {
		for _, v := range a {
			for _, j := range tr.Adj.Neighbors(v) {
				if !inA[j] && !reached[j] {
					reached[j] = true
					count++
				}
			}
		}
	}
	observe()
	for step := 0; step < t; step++ {
		tr.Step()
		observe()
	}
	return count
}

// SpreadUntilDoubled advances the graph until spread reaches |A| (the
// doubling event of Lemma 11) and returns the number of steps taken, or
// -1 if maxSteps elapsed first.
func SpreadUntilDoubled(d dyngraph.Dynamic, a []int, maxSteps int) int {
	n := d.N()
	inA := make([]bool, n)
	for _, v := range a {
		inA[v] = true
	}
	var tr dyngraph.Tracker
	tr.Follow(d)
	reached := make([]bool, n)
	count := 0
	target := len(a)
	if target > n-len(a) {
		target = n - len(a)
	}
	observe := func() {
		for _, v := range a {
			for _, j := range tr.Adj.Neighbors(v) {
				if !inA[j] && !reached[j] {
					reached[j] = true
					count++
				}
			}
		}
	}
	observe()
	for step := 0; step <= maxSteps; step++ {
		if count >= target {
			return step
		}
		tr.Step()
		observe()
	}
	return -1
}
