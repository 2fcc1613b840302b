package flood

import (
	"testing"
	"testing/quick"

	"repro/internal/dyngraph"
	"repro/internal/graph"
	"repro/internal/rng"
)

func TestFloodCompleteGraphOneStep(t *testing.T) {
	d := dyngraph.NewStatic(graph.Complete(10))
	r := Run(d, 0, Opts{KeepTimeline: true})
	if !r.Completed || r.Time != 1 {
		t.Fatalf("complete graph flood: %+v", r)
	}
	if r.Timeline[0] != 1 || r.Timeline[1] != 10 {
		t.Fatalf("timeline: %v", r.Timeline)
	}
}

func TestFloodPathTakesDiameterSteps(t *testing.T) {
	g := graph.Path(8)
	r := Run(dyngraph.NewStatic(g), 0, Opts{})
	if r.Time != 7 {
		t.Fatalf("path flood time = %d, want 7", r.Time)
	}
	mid := Run(dyngraph.NewStatic(g), 3, Opts{})
	if mid.Time != 4 {
		t.Fatalf("mid-path flood time = %d, want 4", mid.Time)
	}
}

func TestFloodSingleNode(t *testing.T) {
	b := graph.NewBuilder(1)
	r := Run(dyngraph.NewStatic(b.Build()), 0, Opts{})
	if !r.Completed || r.Time != 0 {
		t.Fatalf("single node: %+v", r)
	}
}

func TestFloodDisconnectedNeverCompletes(t *testing.T) {
	b := graph.NewBuilder(4)
	b.AddEdge(0, 1)
	r := Run(dyngraph.NewStatic(b.Build()), 0, Opts{MaxSteps: 50})
	if r.Completed || r.Time != -1 {
		t.Fatalf("disconnected flood should not complete: %+v", r)
	}
}

func TestFloodHalfTime(t *testing.T) {
	g := graph.Path(8)
	r := Run(dyngraph.NewStatic(g), 0, Opts{KeepTimeline: true})
	// From node 0, after t steps 1+t nodes informed; half = 4 nodes at t=3.
	if r.HalfTime != 3 {
		t.Fatalf("half time = %d, want 3", r.HalfTime)
	}
	if r.SaturationTime() != r.Time-3 {
		t.Fatal("saturation time inconsistent")
	}
}

func TestFloodSourcePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("bad source did not panic")
		}
	}()
	Run(dyngraph.NewStatic(graph.Cycle(3)), 5, Opts{})
}

func TestTimelineMonotoneProperty(t *testing.T) {
	f := func(seed uint16) bool {
		g := graph.Gnp(30, 0.1, rng.New(uint64(seed)))
		r := Run(dyngraph.NewStatic(g), 0, Opts{MaxSteps: 100, KeepTimeline: true})
		return GrowthIsMonotone(r.Timeline)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// onceThenEmpty exposes a perfect matching at time 0 and nothing afterward,
// checking that flooding consumes E_t before stepping (I_{t+1} from E_t).
type onceThenEmpty struct {
	n int
	t int
}

func (o *onceThenEmpty) N() int { return o.n }
func (o *onceThenEmpty) Step()  { o.t++ }
func (o *onceThenEmpty) AppendEdges(dst []dyngraph.Edge) []dyngraph.Edge {
	if o.t == 0 {
		// Perfect matching i <-> i^1.
		for i := int32(0); i+1 < int32(o.n); i += 2 {
			dst = append(dst, dyngraph.Edge{U: i, V: i + 1})
		}
	}
	return dst
}

func TestFloodUsesSnapshotBeforeStep(t *testing.T) {
	d := NewDeltifier(&onceThenEmpty{n: 2})
	r := Run(d, 0, Opts{MaxSteps: 5})
	if !r.Completed || r.Time != 1 {
		t.Fatalf("matching at t=0 should inform at t=1: %+v", r)
	}
}

// dynamicLine connects node t to t+1 only at time t, so information moves
// one hop per step along a changing graph — a minimal genuinely dynamic
// test of old-informed nodes meeting new neighbors.
type dynamicLine struct {
	n int
	t int
}

func (d *dynamicLine) N() int { return d.n }
func (d *dynamicLine) Step()  { d.t++ }
func (d *dynamicLine) AppendEdges(dst []dyngraph.Edge) []dyngraph.Edge {
	if d.t+1 < d.n {
		dst = append(dst, dyngraph.Edge{U: int32(d.t), V: int32(d.t + 1)})
	}
	return dst
}

func TestFloodFollowsDynamicEdges(t *testing.T) {
	d := NewDeltifier(&dynamicLine{n: 6})
	r := Run(d, 0, Opts{MaxSteps: 20})
	if !r.Completed || r.Time != 5 {
		t.Fatalf("dynamic line flood: %+v", r)
	}
}

// laterMeeting checks that an anciently informed node still spreads: node 0
// informs node 1 at t=0; node 0 meets node 2 only at t=5.
type laterMeeting struct{ t int }

func (d *laterMeeting) N() int { return 3 }
func (d *laterMeeting) Step()  { d.t++ }
func (d *laterMeeting) AppendEdges(dst []dyngraph.Edge) []dyngraph.Edge {
	switch d.t {
	case 0:
		dst = append(dst, dyngraph.Edge{U: 0, V: 1})
	case 5:
		dst = append(dst, dyngraph.Edge{U: 0, V: 2})
	}
	return dst
}

func TestFloodRescansAllInformed(t *testing.T) {
	r := Run(NewDeltifier(&laterMeeting{}), 0, Opts{MaxSteps: 10})
	if !r.Completed || r.Time != 6 {
		t.Fatalf("old informed node should spread at t=5: %+v", r)
	}
}

func TestTimeToFraction(t *testing.T) {
	r := Result{Timeline: []int{1, 2, 4, 8, 16}, Completed: true}
	if got := r.TimeToFraction(16, 0.5); got != 3 {
		t.Fatalf("TimeToFraction(0.5) = %d, want 3", got)
	}
	if got := r.TimeToFraction(16, 1.0); got != 4 {
		t.Fatalf("TimeToFraction(1.0) = %d, want 4", got)
	}
	// A completed run's timeline is the whole trajectory, so a level it
	// never hits is provably never reached — not merely unobserved.
	if got := r.TimeToFraction(32, 1.0); got != TimeNever {
		t.Fatalf("unreachable fraction should be TimeNever, got %d", got)
	}
	// The same timeline cut off at MaxSteps proves nothing about later
	// steps: the level might have been reached after the cutoff.
	cut := Result{Timeline: []int{1, 2, 4, 8, 16}, Completed: false}
	if got := cut.TimeToFraction(32, 1.0); got != TimeUnknown {
		t.Fatalf("cut-off fraction should be TimeUnknown, got %d", got)
	}
	// Levels the cut-off timeline does reach are still answered exactly.
	if got := cut.TimeToFraction(16, 0.5); got != 3 {
		t.Fatalf("cut-off reached fraction = %d, want 3", got)
	}
}

func TestTimeToFractionWithoutTimeline(t *testing.T) {
	// A completed run executed without KeepTimeline still answers the
	// fractions its tracked events pin down exactly.
	n := 16
	r := Result{Time: 9, HalfTime: 5, Informed: n, Completed: true}
	if got := r.TimeToFraction(n, 1.0); got != 9 {
		t.Fatalf("full fraction should fall back on Time: got %d", got)
	}
	if got := r.TimeToFraction(n, 0.5); got != 5 {
		t.Fatalf("half fraction should fall back on HalfTime: got %d", got)
	}
	if got := r.TimeToFraction(n, 0.05); got != 0 {
		t.Fatalf("source-only fraction should be 0: got %d", got)
	}
	// Reached fractions at unrecorded times are unknown, not never: the
	// run did pass through 0.75·n, the tracked events just don't say when.
	if got := r.TimeToFraction(n, 0.75); got != TimeUnknown {
		t.Fatalf("unrecorded fraction should be TimeUnknown: got %d", got)
	}
	// A run cut off at MaxSteps below the level proves nothing — the
	// level might have been reached had the run continued.
	capped := Result{Time: -1, HalfTime: 3, Informed: 10}
	if got := capped.TimeToFraction(n, 1.0); got != TimeUnknown {
		t.Fatalf("cut-off full fraction should be TimeUnknown: got %d", got)
	}
	// A COMPLETED run's trajectory is final, so a level above its final
	// informed count (here: measured against a larger denominator n) was
	// provably never reached.
	island := Result{Time: 4, HalfTime: -1, Informed: 6, Completed: true}
	if got := island.TimeToFraction(n, 1.0); got != TimeNever {
		t.Fatalf("level above a completed run should be TimeNever: got %d", got)
	}
	if got := capped.TimeToFraction(n, 0.5); got != 3 {
		t.Fatalf("incomplete run half fraction should be HalfTime: got %d", got)
	}
	// An odd n pins the half threshold at ceil(n/2).
	odd := Result{Time: 7, HalfTime: 4, Informed: 9, Completed: true}
	if got := odd.TimeToFraction(9, 5.0/9.0); got != 4 {
		t.Fatalf("ceil(n/2) fraction on odd n should be HalfTime: got %d", got)
	}
}

func TestPhases(t *testing.T) {
	r := Result{Time: 10, HalfTime: 7, Completed: true}
	ps, ok := Phases(r)
	if !ok || ps.Spreading != 7 || ps.Saturation != 3 {
		t.Fatalf("phases: %+v ok=%v", ps, ok)
	}
	if _, ok := Phases(Result{Completed: false}); ok {
		t.Fatal("incomplete run should have no phases")
	}
}

func TestDoublings(t *testing.T) {
	timeline := []int{1, 1, 2, 3, 5, 9, 16}
	ds := Doublings(timeline)
	// Reached 2 at t=2, 4 at t=4, 8 at t=5, 16 at t=6.
	want := []int{2, 4, 5, 6}
	if len(ds) != len(want) {
		t.Fatalf("doublings = %v, want %v", ds, want)
	}
	for i := range want {
		if ds[i] != want[i] {
			t.Fatalf("doublings = %v, want %v", ds, want)
		}
	}
	if Doublings(nil) != nil {
		t.Fatal("empty timeline should give nil")
	}
}

func TestGrowthIsMonotone(t *testing.T) {
	if !GrowthIsMonotone([]int{1, 1, 2, 5}) {
		t.Fatal("monotone timeline rejected")
	}
	if GrowthIsMonotone([]int{1, 3, 2}) {
		t.Fatal("non-monotone timeline accepted")
	}
}

func TestRandomizedPushCompleteGraph(t *testing.T) {
	// Push with k=1 on the complete graph is the classic random phone-call
	// model; it must complete but slower than full flooding.
	d := dyngraph.NewStatic(graph.Complete(64))
	r := RandomizedPush(d, 0, 1, rng.New(17), Opts{MaxSteps: 1000})
	if !r.Completed {
		t.Fatal("push gossip did not complete")
	}
	if r.Time < 2 {
		t.Fatalf("push gossip suspiciously fast: %d", r.Time)
	}
	full := Run(dyngraph.NewStatic(graph.Complete(64)), 0, Opts{})
	if r.Time <= full.Time {
		t.Fatalf("push (%d) should be slower than flooding (%d)", r.Time, full.Time)
	}
}

func BenchmarkFloodStaticGrid(b *testing.B) {
	g := graph.Grid(60, 60)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Run(dyngraph.NewStatic(g), 0, Opts{})
	}
}
