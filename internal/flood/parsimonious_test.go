package flood

import (
	"testing"

	"repro/internal/dyngraph"
	"repro/internal/graph"
)

func TestParsimoniousLargeWindowMatchesFlooding(t *testing.T) {
	// With an activity window longer than the flooding time, parsimonious
	// flooding on a static graph behaves exactly like flooding.
	g := graph.Grid(6, 6)
	full := Run(dyngraph.NewStatic(g), 0, Opts{})
	pars := Parsimonious(dyngraph.NewStatic(g), 0, full.Time+1, Opts{})
	if !pars.Completed || pars.Time != full.Time {
		t.Fatalf("parsimonious (window > flood time) = %+v, flooding time %d", pars, full.Time)
	}
}

func TestParsimoniousStaticAlwaysCompletes(t *testing.T) {
	// On a static connected graph even window 1 completes: the frontier
	// nodes are always freshly informed, so BFS still happens.
	g := graph.Path(10)
	res := Parsimonious(dyngraph.NewStatic(g), 0, 1, Opts{MaxSteps: 100})
	if !res.Completed || res.Time != 9 {
		t.Fatalf("window-1 parsimonious on a path: %+v", res)
	}
}

// blinker exposes edges only at chosen times: node 0-1 at t=0, node 0-2 at
// time 5 — nothing else.
type blinker struct{ t int }

func (b *blinker) N() int { return 3 }
func (b *blinker) Step()  { b.t++ }
func (b *blinker) AppendEdges(dst []dyngraph.Edge) []dyngraph.Edge {
	switch b.t {
	case 0:
		dst = append(dst, dyngraph.Edge{U: 0, V: 1})
	case 5:
		dst = append(dst, dyngraph.Edge{U: 0, V: 2})
	}
	return dst
}

func TestParsimoniousCanStrand(t *testing.T) {
	// Flooding completes (node 0 meets node 2 at t=5), but a 2-step
	// activity window silences node 0 before the meeting: node 2 is
	// stranded and the process dies.
	if full := Run(NewDeltifier(&blinker{}), 0, Opts{MaxSteps: 10}); !full.Completed {
		t.Fatal("plain flooding should complete on the blinker")
	}
	res := Parsimonious(NewDeltifier(&blinker{}), 0, 2, Opts{MaxSteps: 10, KeepTimeline: true})
	if res.Completed {
		t.Fatal("short-window parsimonious should strand node 2")
	}
	if last := res.Timeline[len(res.Timeline)-1]; last != 2 {
		t.Fatalf("stranded size = %d, want 2", last)
	}
}

func TestParsimoniousWindowCoversLateMeeting(t *testing.T) {
	// A 6-step window keeps node 0 active through the t=5 meeting.
	res := Parsimonious(NewDeltifier(&blinker{}), 0, 6, Opts{MaxSteps: 10})
	if !res.Completed || res.Time != 6 {
		t.Fatalf("long-window parsimonious: %+v", res)
	}
}

func TestParsimoniousDiesEarlyWithoutScanningToCap(t *testing.T) {
	// Once all windows expire the run returns promptly (timeline length
	// far below MaxSteps).
	res := Parsimonious(NewDeltifier(&blinker{}), 0, 2, Opts{MaxSteps: 1 << 20, KeepTimeline: true})
	if res.Completed {
		t.Fatal("should not complete")
	}
	if len(res.Timeline) > 10 {
		t.Fatalf("dead process kept running: %d timeline entries", len(res.Timeline))
	}
}

func TestParsimoniousPanics(t *testing.T) {
	g := dyngraph.NewStatic(graph.Cycle(3))
	func() {
		defer func() {
			if recover() == nil {
				t.Error("bad source did not panic")
			}
		}()
		Parsimonious(g, 9, 1, Opts{})
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("zero window did not panic")
			}
		}()
		Parsimonious(g, 0, 0, Opts{})
	}()
}

func TestParsimoniousSingleNode(t *testing.T) {
	b := graph.NewBuilder(1)
	res := Parsimonious(dyngraph.NewStatic(b.Build()), 0, 3, Opts{})
	if !res.Completed || res.Time != 0 {
		t.Fatalf("single node: %+v", res)
	}
}

func TestParsimoniousTimelineMonotone(t *testing.T) {
	g := graph.Grid(5, 5)
	res := Parsimonious(dyngraph.NewStatic(g), 12, 3, Opts{MaxSteps: 100, KeepTimeline: true})
	if !GrowthIsMonotone(res.Timeline) {
		t.Fatal("timeline not monotone")
	}
	if res.HalfTime < 0 {
		t.Fatal("half time not recorded")
	}
}
