// Package dynwalk implements random walks ON dynamic graphs — the process
// studied by Avin, Koucký and Lotker ("How to explore a fast-changing
// world", ICALP 2008), the work that introduced the MEG model this paper
// builds on. A token sits on a node and, each time step, moves to a
// uniformly random neighbor of its node in the *current* snapshot (staying
// put when the node is isolated, which in sparse MEGs happens often).
//
// The package provides the walker itself plus estimators for the two
// quantities [2] analyzes: hitting times and cover times.
package dynwalk

import (
	"repro/internal/bitset"
	"repro/internal/dyngraph"
	"repro/internal/rng"
)

// Walker is a random walk on a dynamic graph. The walker owns the graph's
// clock: Step advances both the token and the graph, through a Tracker
// whose adjacency the walker reads its moves from.
type Walker struct {
	tr  dyngraph.Tracker
	r   *rng.RNG
	pos int
}

// NewWalker places a token on start. It panics if start is out of range.
func NewWalker(d dyngraph.Dynamic, start int, r *rng.RNG) *Walker {
	if start < 0 || start >= d.N() {
		panic("dynwalk: start out of range")
	}
	w := &Walker{r: r, pos: start}
	w.tr.Follow(d)
	return w
}

// Pos returns the token's current node.
func (w *Walker) Pos() int { return w.pos }

// Step moves the token to a uniform current neighbor (staying put if the
// node is isolated in this snapshot), then advances the dynamic graph. It
// reports whether the token actually moved — a transmission for message
// accounting; an isolated step is free.
//
// The move is a uniform index into the token's list in the tracked
// adjacency: a uniform current neighbor whatever the list order. Keeping
// the adjacency current costs O(churn) per step, and a warm step
// allocates nothing.
func (w *Walker) Step() bool {
	nbrs := w.tr.Adj.Neighbors(w.pos)
	moved := len(nbrs) > 0
	if moved {
		w.pos = int(nbrs[w.r.Intn(len(nbrs))])
	}
	w.tr.Step()
	return moved
}

// HittingTime runs the walk until it reaches target and returns the number
// of steps taken, or -1 if maxSteps elapsed first.
func HittingTime(d dyngraph.Dynamic, start, target, maxSteps int, r *rng.RNG) int {
	w := NewWalker(d, start, r)
	if w.Pos() == target {
		return 0
	}
	for t := 1; t <= maxSteps; t++ {
		w.Step()
		if w.Pos() == target {
			return t
		}
	}
	return -1
}

// CoverResult reports a cover-time run.
type CoverResult struct {
	// Steps is the time at which the last node was first visited, or -1
	// if the walk did not cover the graph within the cap.
	Steps int
	// Visited is the number of distinct nodes seen (== N on success).
	Visited int
	// Messages counts token transmissions: one per step the token actually
	// moved (a step spent isolated sends nothing and costs nothing) — the
	// walk's analogue of flood.Result.Messages.
	Messages int64
	// Useless counts moves onto already-visited nodes. Every node but the
	// start is first visited by exactly one move, so the same conservation
	// law the spreading engines obey holds here:
	// Messages == Useless + (Visited - 1).
	Useless int64
}

// CoverTime runs the walk until every node has been visited and returns
// the cover time, or the partial progress at maxSteps. The visited set is
// a word-packed bitset — n/8 bytes of state no matter how long the walk
// runs, which for the n²log n-step walks of [2] keeps it resident in cache.
func CoverTime(d dyngraph.Dynamic, start, maxSteps int, r *rng.RNG) CoverResult {
	n := d.N()
	w := NewWalker(d, start, r)
	seen := bitset.New(n)
	seen.Set(start)
	res := CoverResult{Visited: 1}
	if res.Visited == n {
		res.Steps = 0
		return res
	}
	for t := 1; t <= maxSteps; t++ {
		if !w.Step() {
			continue // isolated: the token stayed put, no transmission
		}
		res.Messages++
		if seen.Get(w.Pos()) {
			res.Useless++
		} else {
			seen.Set(w.Pos())
			res.Visited++
			if res.Visited == n {
				res.Steps = t
				return res
			}
		}
	}
	res.Steps = -1
	return res
}
