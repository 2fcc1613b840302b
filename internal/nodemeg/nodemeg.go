// Package nodemeg implements the paper's node-Markovian evolving graphs
// NM(n, M, C) (Section 4): every node independently follows a Markov chain
// M over states S, and two nodes are connected at time t exactly when the
// symmetric connection map C of their current states is 1.
//
// The package provides the general simulator (any chain, any connection
// map), the state-bucket index that makes neighbor queries cheap when the
// connection map can enumerate Γ(s), and the exact stationary quantities of
// Fact 2 — P_NM, P_NM2 and η = P_NM2 / P_NM² — that drive Theorem 3.
package nodemeg

import (
	"fmt"

	"repro/internal/dyngraph"
	"repro/internal/rng"
)

// ConnectionMap is the symmetric map C: S × S → {0, 1} of a node-MEG.
// Implementations must be symmetric: Connected(u, v) == Connected(v, u).
type ConnectionMap interface {
	// NumStates returns |S|.
	NumStates() int
	// Connected reports C(u, v) = 1.
	Connected(u, v int) bool
}

// NeighborEnumerator is an optional extension of ConnectionMap that
// enumerates Γ(s) = {s' : C(s, s') = 1}. When available, the simulator
// answers neighbor queries in O(|Γ(s)| + matches) instead of O(n), and the
// theory functions run in O(S·|Γ|) instead of O(S²).
type NeighborEnumerator interface {
	// NeighborStates returns Γ(s). The returned slice is shared and must
	// not be modified.
	NeighborStates(s int) []int32
}

// StateSampler draws Markov chain transitions. Both markov.Sampler (dense)
// and markov.SparseSampler satisfy it.
type StateSampler interface {
	// Next samples the successor of state s.
	Next(s int, r *rng.RNG) int
	// N returns the number of states.
	N() int
}

// Sim simulates a node-MEG as a dyngraph.Dynamic. It maintains the
// state-bucket index incrementally — a step that changes k node states
// touches O(k) bucket entries via swap-remove instead of rebuilding every
// bucket — and implements dyngraph.DeltaBatcher natively: an edge can only
// flip when an endpoint changed state, so the per-step churn is computed
// by comparing the old and new compatible-bucket neighborhoods of just the
// moved nodes (O(moved × bucket density) with a NeighborEnumerator,
// O(moved × n) otherwise — never worse than the O(n²) snapshot scan the
// connection map forces anyway).
type Sim struct {
	n       int
	sampler StateSampler
	conn    ConnectionMap
	enum    NeighborEnumerator // nil when conn cannot enumerate
	r       *rng.RNG
	states  []int32
	buckets [][]int32 // nodes per state, order unspecified
	slot    []int32   // position of node i inside buckets[states[i]]
	// Churn stream of the most recent Step (dyngraph.DeltaBatcher).
	moved   []int32 // nodes whose state changed this step, ascending
	movedF  []bool  // membership flags for moved
	prevSt  []int32 // pre-step states, valid where movedF
	born    []dyngraph.Edge
	died    []dyngraph.Edge
	stepped bool
}

// NewSim creates a node-MEG simulator with each node's initial state drawn
// independently from init (a distribution over states). Pass the chain's
// stationary distribution for a stationary start.
func NewSim(n int, sampler StateSampler, conn ConnectionMap, init []float64, r *rng.RNG) (*Sim, error) {
	if n < 1 {
		return nil, fmt.Errorf("nodemeg: need n >= 1, got %d", n)
	}
	if sampler.N() != conn.NumStates() {
		return nil, fmt.Errorf("nodemeg: chain has %d states, connection map %d", sampler.N(), conn.NumStates())
	}
	if len(init) != sampler.N() {
		return nil, fmt.Errorf("nodemeg: init has %d entries, chain has %d states", len(init), sampler.N())
	}
	s := &Sim{
		n:       n,
		sampler: sampler,
		conn:    conn,
		r:       r,
		states:  make([]int32, n),
		buckets: make([][]int32, sampler.N()),
		slot:    make([]int32, n),
		movedF:  make([]bool, n),
		prevSt:  make([]int32, n),
	}
	if e, ok := conn.(NeighborEnumerator); ok {
		s.enum = e
	}
	if ss, ok := conn.(SameState); ok {
		// SameState's Γ(s) = {s} allocates a fresh singleton per call;
		// replace it with a precomputed identity table so the incremental
		// Step and the neighbor queries stay allocation-free.
		s.enum = newIdentityEnum(ss.S)
	}
	alias := rng.NewAlias(init)
	for i := range s.states {
		s.states[i] = int32(alias.Sample(r))
	}
	s.rebuildBuckets()
	return s, nil
}

func (s *Sim) rebuildBuckets() {
	for st := range s.buckets {
		s.buckets[st] = s.buckets[st][:0]
	}
	for i, st := range s.states {
		s.slot[i] = int32(len(s.buckets[st]))
		s.buckets[st] = append(s.buckets[st], int32(i))
	}
}

// bucketMove relocates node i from bucket old to bucket st by swap-remove
// and append — O(1), the incremental sibling of rebuildBuckets.
func (s *Sim) bucketMove(i int32, old, st int32) {
	b := s.buckets[old]
	k := s.slot[i]
	last := int32(len(b) - 1)
	swapped := b[last]
	b[k] = swapped
	s.slot[swapped] = k
	s.buckets[old] = b[:last]
	s.slot[i] = int32(len(s.buckets[st]))
	s.buckets[st] = append(s.buckets[st], i)
}

// N implements dyngraph.Dynamic.
func (s *Sim) N() int { return s.n }

// Step implements dyngraph.Dynamic: every node's state advances one step of
// M independently. The bucket index is maintained incrementally for the
// nodes that changed state, and the step's edge churn is computed at the
// same time (two passes over just the movers — died against the pre-step
// buckets, born against the post-step ones, pairs where both endpoints
// moved deduped at the smaller index), feeding AppendDeltas.
func (s *Sim) Step() {
	// Advance every chain in node order (the historical RNG draw order),
	// recording movers: states[] becomes the new configuration while
	// buckets still group nodes by the old one.
	s.moved = s.moved[:0]
	s.born, s.died = s.born[:0], s.died[:0]
	for i, st := range s.states {
		ns := int32(s.sampler.Next(int(st), s.r))
		if ns != st {
			s.prevSt[i] = st
			s.movedF[i] = true
			s.moved = append(s.moved, int32(i))
			s.states[i] = ns
		}
	}
	if s.enum != nil {
		// Pass A (died): each mover's old edges are its old-bucket
		// neighborhood Γ(old state); the edge died when the new states no
		// longer connect.
		for _, i := range s.moved {
			ni := s.states[i]
			for _, v := range s.enum.NeighborStates(int(s.prevSt[i])) {
				for _, j := range s.buckets[v] {
					if j == i || (s.movedF[j] && j < i) {
						continue
					}
					if !s.conn.Connected(int(ni), int(s.states[j])) {
						s.died = append(s.died, orderEdge(i, j))
					}
				}
			}
		}
		// Apply: O(moved) bucket maintenance.
		for _, i := range s.moved {
			s.bucketMove(i, s.prevSt[i], s.states[i])
		}
		// Pass B (born): each mover's new edges are its new-bucket
		// neighborhood; the edge is born when the old states did not
		// connect (a moved candidate's old state is prevSt).
		for _, i := range s.moved {
			oi := s.prevSt[i]
			for _, v := range s.enum.NeighborStates(int(s.states[i])) {
				for _, j := range s.buckets[v] {
					if j == i || (s.movedF[j] && j < i) {
						continue
					}
					oj := s.states[j]
					if s.movedF[j] {
						oj = s.prevSt[j]
					}
					if !s.conn.Connected(int(oi), int(oj)) {
						s.born = append(s.born, orderEdge(i, j))
					}
				}
			}
		}
	} else {
		// No enumerator: classify each mover against every node directly —
		// O(moved·n), never worse than the O(n²) snapshot scan this
		// connection map forces on the batch path anyway.
		for _, i := range s.moved {
			oi, ni := int(s.prevSt[i]), int(s.states[i])
			for j := 0; j < s.n; j++ {
				j32 := int32(j)
				if j32 == i || (s.movedF[j] && j32 < i) {
					continue
				}
				oj := int(s.states[j])
				if s.movedF[j] {
					oj = int(s.prevSt[j])
				}
				oldE := s.conn.Connected(oi, oj)
				newE := s.conn.Connected(ni, int(s.states[j]))
				if oldE && !newE {
					s.died = append(s.died, orderEdge(i, j32))
				} else if !oldE && newE {
					s.born = append(s.born, orderEdge(i, j32))
				}
			}
		}
		for _, i := range s.moved {
			s.bucketMove(i, s.prevSt[i], s.states[i])
		}
	}
	for _, i := range s.moved {
		s.movedF[i] = false
	}
	s.stepped = true
}

func orderEdge(i, j int32) dyngraph.Edge {
	if i < j {
		return dyngraph.Edge{U: i, V: j}
	}
	return dyngraph.Edge{U: j, V: i}
}

// AppendDeltas implements dyngraph.DeltaBatcher, serving the churn batches
// retained by the most recent Step; idempotent between steps and empty
// before the first.
func (s *Sim) AppendDeltas(born, died []dyngraph.Edge) (b, d []dyngraph.Edge) {
	if !s.stepped {
		return born, died
	}
	return append(born, s.born...), append(died, s.died...)
}

// MovedLastStep implements dyngraph.MoveReporter: the number of nodes whose
// state changed in the most recent Step (0 before the first).
func (s *Sim) MovedLastStep() int { return len(s.moved) }

// WarmUp advances the process by steps without any observation, used to
// approach stationarity from a non-stationary start.
func (s *Sim) WarmUp(steps int) {
	for t := 0; t < steps; t++ {
		s.Step()
	}
}

// AppendEdges implements dyngraph.Dynamic. With a NeighborEnumerator the
// scan visits each node's compatible state buckets and keeps the j > i
// half, so every unordered pair is distance-checked once; without one it
// falls back to the O(n²) pair scan.
func (s *Sim) AppendEdges(dst []dyngraph.Edge) []dyngraph.Edge {
	if s.enum != nil {
		for i, ui := range s.states {
			for _, v := range s.enum.NeighborStates(int(ui)) {
				for _, j := range s.buckets[v] {
					if int(j) > i {
						dst = append(dst, dyngraph.Edge{U: int32(i), V: j})
					}
				}
			}
		}
		return dst
	}
	for i := 0; i < s.n; i++ {
		ui := int(s.states[i])
		for j := i + 1; j < s.n; j++ {
			if s.conn.Connected(ui, int(s.states[j])) {
				dst = append(dst, dyngraph.Edge{U: int32(i), V: int32(j)})
			}
		}
	}
	return dst
}

// State returns node i's current chain state.
func (s *Sim) State(i int) int { return int(s.states[i]) }

// StateCounts returns the number of nodes currently in each state.
func (s *Sim) StateCounts() []int {
	counts := make([]int, len(s.buckets))
	for st, b := range s.buckets {
		counts[st] = len(b)
	}
	return counts
}
