// Package balance implements diffusive load balancing over dynamic graphs,
// the companion problem the paper's introduction cites alongside
// information spreading ("there are several interesting problems on dynamic
// graph processes, for example load balancing, studied in [16, 28]").
//
// Each node holds a real-valued load. Every step, neighbors exchange load
// along the current snapshot's edges using Metropolis weights
//
//	w_ij = 1 / (1 + max(deg_i, deg_j)),
//
// which make the per-step averaging matrix doubly stochastic on any graph,
// so total load is conserved and, over connected sequences of snapshots,
// loads converge to the global average. On sparse MEGs, convergence speed
// is governed — like the flooding time — by the process's mixing behavior,
// which experiment E17 measures.
package balance

import (
	"math"

	"repro/internal/dyngraph"
)

// State is a load vector being balanced over a dynamic graph.
type State struct {
	tr   dyngraph.Tracker
	load []float64
	next []float64
}

// New wraps a dynamic graph with an initial load vector (copied). It
// panics if the length mismatches the node count.
func New(d dyngraph.Dynamic, load []float64) *State {
	if len(load) != d.N() {
		panic("balance: load length mismatch")
	}
	s := &State{
		load: append([]float64(nil), load...),
		next: make([]float64, len(load)),
	}
	s.tr.Follow(d)
	return s
}

// PointLoad returns an n-vector with all mass `total` on node 0 — the
// worst-case initial imbalance.
func PointLoad(n int, total float64) []float64 {
	load := make([]float64, n)
	load[0] = total
	return load
}

// Loads returns the current load vector (shared; do not modify).
func (s *State) Loads() []float64 { return s.load }

// Total returns the (conserved) total load.
func (s *State) Total() float64 {
	sum := 0.0
	for _, x := range s.load {
		sum += x
	}
	return sum
}

// Imbalance returns max load minus min load.
func (s *State) Imbalance() float64 {
	min, max := s.load[0], s.load[0]
	for _, x := range s.load[1:] {
		if x < min {
			min = x
		}
		if x > max {
			max = x
		}
	}
	return max - min
}

// Variance returns the population variance of the loads around the mean —
// the potential function whose decay rate [28] analyzes.
func (s *State) Variance() float64 {
	mean := s.Total() / float64(len(s.load))
	sum := 0.0
	for _, x := range s.load {
		d := x - mean
		sum += d * d
	}
	return sum / float64(len(s.load))
}

// Step performs one synchronous Metropolis diffusion round on the current
// snapshot, then advances the dynamic graph.
func (s *State) Step() {
	adj := &s.tr.Adj
	copy(s.next, s.load)
	// Each undirected edge moves w_ij·(x_j - x_i) toward i (and the
	// opposite toward j); iterating both endpoints' lists applies each
	// direction once.
	for i := range s.load {
		xi := s.load[i]
		di := adj.Degree(i)
		for _, j := range adj.Neighbors(i) {
			dj := adj.Degree(int(j))
			w := 1.0 / (1.0 + math.Max(float64(di), float64(dj)))
			s.next[i] += w * (s.load[j] - xi)
		}
	}
	s.load, s.next = s.next, s.load
	s.tr.Step()
}

// Run advances until the imbalance drops to eps or maxSteps elapse,
// returning the number of steps taken and whether the target was reached.
func (s *State) Run(eps float64, maxSteps int) (steps int, converged bool) {
	for t := 0; t < maxSteps; t++ {
		if s.Imbalance() <= eps {
			return t, true
		}
		s.Step()
	}
	return maxSteps, s.Imbalance() <= eps
}
