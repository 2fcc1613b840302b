package randompath

import (
	"math"
	"slices"
	"testing"

	"repro/internal/flood"
	"repro/internal/graph"
	"repro/internal/nodemeg"
	"repro/internal/rng"
	"repro/internal/stats"
)

func TestNewValidation(t *testing.T) {
	h := graph.Grid(3, 3)
	if _, err := New(h, nil); err == nil {
		t.Fatal("empty family accepted")
	}
	if _, err := New(h, []Path{{0}}); err == nil {
		t.Fatal("length-1 path accepted")
	}
	if _, err := New(h, []Path{{0, 8}}); err == nil {
		t.Fatal("non-adjacent step accepted")
	}
	if _, err := New(h, []Path{{0, 99}}); err == nil {
		t.Fatal("invalid point accepted")
	}
	// Closure violation: a path ends at 2 but nothing starts there.
	if _, err := New(h, []Path{{0, 1, 2}, {1, 0}, {0, 1}}); err == nil {
		t.Fatal("closure violation accepted")
	}
}

func TestEdgePathsIsRandomWalk(t *testing.T) {
	h := graph.Cycle(6)
	m, err := NewGridWalk(h)
	if err != nil {
		t.Fatal(err)
	}
	if !m.IsSimple() || !m.IsReversible() {
		t.Fatal("edge family should be simple and reversible")
	}
	// #P(u) = deg(u) = 2 on a cycle.
	for u, c := range m.Congestion() {
		if c != 2 {
			t.Fatalf("congestion[%d] = %d, want 2", u, c)
		}
	}
	if m.DeltaRegularity() != 1 {
		t.Fatalf("cycle edge family delta = %v, want 1", m.DeltaRegularity())
	}
	// State space: one state per directed edge.
	if m.NumStates() != 2*h.M() {
		t.Fatalf("states = %d, want %d", m.NumStates(), 2*h.M())
	}
}

func TestEdgePathsChainUniformStationary(t *testing.T) {
	// Simple + reversible => uniform stationary distribution over states.
	h := graph.Grid(3, 3)
	m, err := NewGridWalk(h)
	if err != nil {
		t.Fatal(err)
	}
	pi, err := m.Chain().StationaryPower(1e-11, 200000)
	if err != nil {
		t.Fatal(err)
	}
	want := 1 / float64(m.NumStates())
	for s, p := range pi {
		if math.Abs(p-want) > 1e-6 {
			t.Fatalf("stationary[%d] = %v, want %v", s, p, want)
		}
	}
}

func TestGridLPathsProperties(t *testing.T) {
	paths := GridLPaths(4)
	m, err := New(graph.Grid(4, 4), paths)
	if err != nil {
		t.Fatal(err)
	}
	if !m.IsSimple() {
		t.Fatal("L-paths must be simple")
	}
	if !m.IsReversible() {
		t.Fatal("L-path family must be reversible")
	}
	// δ-regularity should be modest (constant-ish): the busiest point sees
	// at most a small multiple of the average congestion.
	if d := m.DeltaRegularity(); d > 4 {
		t.Fatalf("L-path delta = %v, want small", d)
	}
}

func TestGridLPathsAreShortest(t *testing.T) {
	mSide := 4
	h := graph.Grid(mSide, mSide)
	for _, p := range GridLPaths(mSide) {
		u, v := int(p[0]), int(p[len(p)-1])
		want := h.BFS(u)[v]
		if len(p)-1 != want {
			t.Fatalf("path %v has length %d, shortest is %d", p, len(p)-1, want)
		}
	}
}

func TestGridLPathsUniformStationary(t *testing.T) {
	m, err := New(graph.Grid(3, 3), GridLPaths(3))
	if err != nil {
		t.Fatal(err)
	}
	pi, err := m.Chain().StationaryPower(1e-11, 500000)
	if err != nil {
		t.Fatal(err)
	}
	tv := stats.TV(pi, stats.Uniform(m.NumStates()))
	if tv > 1e-6 {
		t.Fatalf("L-path stationary TV from uniform = %v", tv)
	}
}

func TestStarPathsCongested(t *testing.T) {
	mSide := 5
	m, err := New(graph.Grid(mSide, mSide), StarPaths(mSide))
	if err != nil {
		t.Fatal(err)
	}
	if !m.IsReversible() {
		t.Fatal("star family must be reversible")
	}
	c := m.Congestion()
	center := (mSide/2)*mSide + mSide/2
	// #P(u) counts positions 2..ℓ(h) — the start point is excluded — so
	// only the m²-1 to-center paths hit the center, not the center-starting
	// reverses.
	if c[center] != mSide*mSide-1 {
		t.Fatalf("center congestion = %d, want %d", c[center], mSide*mSide-1)
	}
	if d := m.DeltaRegularity(); d < 3 {
		t.Fatalf("star family delta = %v, want large", d)
	}
}

func TestMakeReversible(t *testing.T) {
	h := graph.Path(3)
	oneWay := []Path{{0, 1, 2}, {2, 1, 0}}
	if got := MakeReversible(oneWay); len(got) != 2 {
		t.Fatalf("already-reversible family grew: %d", len(got))
	}
	asym := []Path{{0, 1, 2}}
	got := MakeReversible(asym)
	if len(got) != 2 {
		t.Fatalf("MakeReversible should add the reverse: %d paths", len(got))
	}
	m, err := New(h, got)
	if err != nil {
		t.Fatal(err)
	}
	if !m.IsReversible() {
		t.Fatal("family not reversible after MakeReversible")
	}
}

func TestIsSimpleDetectsRepeats(t *testing.T) {
	h := graph.Cycle(4)
	// 0-1-2-1 repeats interior point 1... but 1 is visited at positions 1
	// and 3 (not start/end coincidence), so not simple.
	m, err := New(h, MakeReversible([]Path{{0, 1, 2, 1}}))
	if err != nil {
		t.Fatal(err)
	}
	if m.IsSimple() {
		t.Fatal("repeated interior point accepted as simple")
	}
	// A closed tour 0-1-2-3-0 repeats only start==end: simple by the
	// paper's definition.
	loop, err := New(h, MakeReversible([]Path{{0, 1, 2, 3, 0}}))
	if err != nil {
		t.Fatal(err)
	}
	if !loop.IsSimple() {
		t.Fatal("closed tour should count as simple")
	}
}

func TestChainMovesAlongPath(t *testing.T) {
	// Single path pair: deterministic traversal back and forth.
	h := graph.Path(3)
	m, err := New(h, []Path{{0, 1, 2}, {2, 1, 0}})
	if err != nil {
		t.Fatal(err)
	}
	chain := m.Chain()
	// State 0: path 0 at point 1; state 1: path 0 at point 2 (end);
	// state 2: path 1 at point 1; state 3: path 1 at point 0 (end).
	if m.PointOfState(0) != 1 || m.PointOfState(1) != 2 ||
		m.PointOfState(2) != 1 || m.PointOfState(3) != 0 {
		t.Fatalf("state points wrong: %d %d %d %d",
			m.PointOfState(0), m.PointOfState(1), m.PointOfState(2), m.PointOfState(3))
	}
	// Deterministic transitions: 0->1, 1->2 (start reverse), 2->3, 3->0.
	expect := map[int]int{0: 1, 1: 2, 2: 3, 3: 0}
	for from, to := range expect {
		found := false
		chain.Row(from, func(j int, p float64) {
			if j == to && p == 1 {
				found = true
			}
		})
		if !found {
			t.Fatalf("transition %d->%d missing", from, to)
		}
	}
}

func TestPointConnection(t *testing.T) {
	m, err := New(graph.Path(3), []Path{{0, 1, 2}, {2, 1, 0}})
	if err != nil {
		t.Fatal(err)
	}
	conn, err := m.HopConnection(0)
	if err != nil {
		t.Fatal(err)
	}
	// States 0 and 2 are both at point 1.
	if !conn.Connected(0, 2) {
		t.Fatal("same-point states not connected")
	}
	if conn.Connected(0, 1) {
		t.Fatal("different-point states connected")
	}
	nbrs := conn.NeighborStates(0)
	if len(nbrs) != 2 {
		t.Fatalf("point-1 states = %v, want 2 entries", nbrs)
	}
}

func TestSimFloodingCompletesOnAugmentedGridWalk(t *testing.T) {
	// The 2-augmented grid contains triangles, so it is not bipartite and
	// the same-point connection has no parity obstruction.
	h := graph.KAugmentedGrid(5, 5, 2)
	m, err := NewGridWalk(h)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := m.NewSimHopRadius(40, 0, rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	res := flood.Run(sim, 0, flood.Opts{MaxSteps: 100000})
	if !res.Completed {
		t.Fatal("random-walk model flooding did not complete")
	}
}

func TestParityObstructionOnBipartiteWalk(t *testing.T) {
	// On a plain (bipartite) grid with unit-hop movement and same-point
	// connection, a node's position parity class is invariant, so flooding
	// provably stalls at the source's parity class. This is a genuine
	// property of the paper's ρ=1, r=0 setting on bipartite H.
	h := graph.Grid(4, 4)
	m, err := NewGridWalk(h)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := m.NewSimHopRadius(24, 0, rng.New(11))
	if err != nil {
		t.Fatal(err)
	}
	res := flood.Run(sim, 0, flood.Opts{MaxSteps: 20000, KeepTimeline: true})
	if res.Completed {
		t.Fatal("bipartite same-point flooding should stall on the parity class")
	}
	// The informed set must saturate strictly between 1 and n.
	final := res.Timeline[len(res.Timeline)-1]
	if final <= 1 || final >= 24 {
		t.Fatalf("stalled informed set size = %d, want strictly inside (1, 24)", final)
	}
	// Hop radius 1 restores cross-parity contact and completes.
	sim2, err := m.NewSimHopRadius(24, 1, rng.New(11))
	if err != nil {
		t.Fatal(err)
	}
	res2 := flood.Run(sim2, 0, flood.Opts{MaxSteps: 100000})
	if !res2.Completed {
		t.Fatal("hop-radius-1 flooding should complete on bipartite grid")
	}
}

func TestSimFloodingLPathsFasterThanWalk(t *testing.T) {
	// On the same grid with the same node count and connection radius,
	// long shortest-path trips mix positions in O(diameter) rather than
	// O(diameter²): flooding over L-paths should beat the one-hop walk.
	// The gap needs a sparse-contact regime (few nodes, large grid); with
	// dense contact both models flood in a handful of steps.
	mSide := 10
	h := graph.Grid(mSide, mSide)
	median := func(mk func() *nodemeg.Sim) float64 {
		var times []float64
		for trial := 0; trial < 9; trial++ {
			res := flood.Run(mk(), 0, flood.Opts{MaxSteps: 60000})
			if res.Completed {
				times = append(times, float64(res.Time))
			}
		}
		return stats.Median(times)
	}
	walkModel, err := NewGridWalk(h)
	if err != nil {
		t.Fatal(err)
	}
	lModel, err := New(h, GridLPaths(mSide))
	if err != nil {
		t.Fatal(err)
	}
	seed := uint64(100)
	walkTime := median(func() *nodemeg.Sim {
		seed++
		s, err := walkModel.NewSimHopRadius(8, 1, rng.New(seed))
		if err != nil {
			t.Fatal(err)
		}
		return s
	})
	lTime := median(func() *nodemeg.Sim {
		seed++
		s, err := lModel.NewSimHopRadius(8, 1, rng.New(seed))
		if err != nil {
			t.Fatal(err)
		}
		return s
	})
	if !(lTime < walkTime) {
		t.Fatalf("L-paths (%v) should flood faster than walk (%v)", lTime, walkTime)
	}
}

func TestHopConnectionRadiusZeroMatchesPointConnection(t *testing.T) {
	m, err := New(graph.Path(3), []Path{{0, 1, 2}, {2, 1, 0}})
	if err != nil {
		t.Fatal(err)
	}
	hop, err := m.HopConnection(0)
	if err != nil {
		t.Fatal(err)
	}
	// At r = 0 both the predicate and the enumeration are the same-point
	// rule, and NeighborStates lists a point's states in ascending order.
	for u := 0; u < m.NumStates(); u++ {
		var want []int32
		for v := 0; v < m.NumStates(); v++ {
			same := m.PointOfState(u) == m.PointOfState(v)
			if hop.Connected(u, v) != same {
				t.Fatalf("r=0 hop connection differs from same point at (%d,%d)", u, v)
			}
			if same {
				want = append(want, int32(v))
			}
		}
		if got := hop.NeighborStates(u); !slices.Equal(got, want) {
			t.Fatalf("r=0 NeighborStates(%d) = %v, want %v", u, got, want)
		}
	}
	if _, err := m.HopConnection(-1); err == nil {
		t.Fatal("negative radius accepted")
	}
}

func TestHopConnectionRadiusOne(t *testing.T) {
	m, err := New(graph.Path(3), []Path{{0, 1, 2}, {2, 1, 0}})
	if err != nil {
		t.Fatal(err)
	}
	hop, err := m.HopConnection(1)
	if err != nil {
		t.Fatal(err)
	}
	// State 0 is at point 1; state 1 at point 2; state 3 at point 0.
	if !hop.Connected(0, 1) || !hop.Connected(0, 3) {
		t.Fatal("adjacent-point states should connect at r=1")
	}
	// States 1 (point 2) and 3 (point 0) are two hops apart.
	if hop.Connected(1, 3) {
		t.Fatal("distance-2 states connected at r=1")
	}
	// NeighborStates covers the same set Connected accepts.
	for s := 0; s < m.NumStates(); s++ {
		inEnum := map[int]bool{}
		for _, v := range hop.NeighborStates(s) {
			inEnum[int(v)] = true
		}
		for v := 0; v < m.NumStates(); v++ {
			if hop.Connected(s, v) != inEnum[v] {
				t.Fatalf("enum/connected mismatch at (%d,%d)", s, v)
			}
		}
	}
}

func TestNewGridWalkRejectsIsolated(t *testing.T) {
	b := graph.NewBuilder(3)
	b.AddEdge(0, 1)
	if _, err := NewGridWalk(b.Build()); err == nil {
		t.Fatal("isolated vertex accepted")
	}
}

func BenchmarkLPathSimStep(b *testing.B) {
	m, err := New(graph.Grid(8, 8), GridLPaths(8))
	if err != nil {
		b.Fatal(err)
	}
	sim, err := m.NewSimHopRadius(500, 0, rng.New(1))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim.Step()
	}
}
