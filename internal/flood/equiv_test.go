package flood_test

// Fixed-seed equivalence pins of the deterministic engines: flooding and
// parsimonious flooding are re-run against verbatim copies of their
// original implementations ([]bool informed sets, per-run allocation, a
// snapshot read every step) over every registered model, and must return
// byte-identical Results, timeline included — both on the models' native
// delta streams and through the test-side Deltifier.
//
// The randomized engines (k-push, pull, push–pull) index their draws into
// the tracked adjacency, whose list order is not the order of any
// snapshot, so no snapshot-reading reference replays their fixed-seed
// draws. They are checked against their exact laws instead (law_test.go).

import (
	"reflect"
	"testing"

	"repro/internal/dyngraph"
	"repro/internal/flood"
	"repro/internal/graph"
	"repro/internal/model"
	_ "repro/internal/model/all"
	"repro/internal/rng"
)

// ---------------------------------------------------------------------------
// Reference implementations: the engines as they were before the refactor,
// copied verbatim (modulo exported names and the Opts.Scratch field, which
// they ignore).

func refMaxSteps(o flood.Opts) int {
	if o.MaxSteps <= 0 {
		return flood.DefaultMaxSteps
	}
	return o.MaxSteps
}

func refStart(n, source int, opts flood.Opts) (informed []bool, res flood.Result, done bool) {
	if source < 0 || source >= n {
		panic("flood: source out of range")
	}
	informed = make([]bool, n)
	informed[source] = true
	res = flood.Result{Time: -1, HalfTime: -1, Informed: 1}
	if opts.KeepTimeline {
		res.Timeline = append(res.Timeline, 1)
	}
	if 2 >= n {
		res.HalfTime = 0
	}
	if n == 1 {
		res.Time = 0
		res.Completed = true
		return informed, res, true
	}
	return informed, res, false
}

func refRecord(res *flood.Result, opts flood.Opts, n, size, t int) bool {
	res.Informed = size
	if opts.KeepTimeline {
		res.Timeline = append(res.Timeline, size)
	}
	if res.HalfTime < 0 && 2*size >= n {
		res.HalfTime = t + 1
	}
	if size == n {
		res.Time = t + 1
		res.Completed = true
		return true
	}
	return false
}

func refRun(d dyngraph.Dynamic, source int, opts flood.Opts) flood.Result {
	n := d.N()
	informed, res, done := refStart(n, source, opts)
	if done {
		return res
	}
	refEdgeScan(d, informed, opts, &res)
	return res
}

func refEdgeScan(d dyngraph.Dynamic, informed []bool, opts flood.Opts, res *flood.Result) {
	n := len(informed)
	size := 1
	pending := make([]bool, n)
	newly := make([]int32, 0, n)
	var edges []dyngraph.Edge
	maxSteps := refMaxSteps(opts)
	for t := 0; t < maxSteps; t++ {
		edges = d.AppendEdges(edges[:0])
		newly = newly[:0]
		for _, e := range edges {
			if informed[e.U] {
				if !informed[e.V] && !pending[e.V] {
					pending[e.V] = true
					newly = append(newly, e.V)
				}
			} else if informed[e.V] && !pending[e.U] {
				pending[e.U] = true
				newly = append(newly, e.U)
			}
		}
		for _, v := range newly {
			informed[v] = true
			pending[v] = false
		}
		size += len(newly)
		if refRecord(res, opts, n, size, t) {
			return
		}
		d.Step()
	}
}

func refParsimonious(d dyngraph.Dynamic, source, active int, opts flood.Opts) flood.Result {
	n := d.N()
	informed, res, done := refStart(n, source, opts)
	if done {
		return res
	}
	expiry := make([]int32, n)
	activeList := make([]int32, 1, n)
	activeList[0] = int32(source)
	expiry[source] = int32(active - 1)

	size := 1
	newly := make([]int32, 0, n)
	maxSteps := refMaxSteps(opts)
	for t := 0; t < maxSteps; t++ {
		newly = newly[:0]
		snap := dyngraph.Snapshot(d)
		for _, i := range activeList {
			for _, j := range snap.Neighbors(int(i)) {
				if !informed[j] {
					informed[j] = true
					newly = append(newly, j)
				}
			}
		}
		keep := activeList[:0]
		for _, i := range activeList {
			if int(expiry[i]) > t {
				keep = append(keep, i)
			}
		}
		activeList = keep
		for _, j := range newly {
			expiry[j] = int32(t + active)
			activeList = append(activeList, j)
		}
		size += len(newly)
		if refRecord(&res, opts, n, size, t) {
			return res
		}
		if len(activeList) == 0 {
			return res
		}
		d.Step()
	}
	return res
}

// ---------------------------------------------------------------------------
// The pins.

// equivModels covers every registered model family at small sizes.
var equivModels = []model.Spec{
	model.New("edgemeg").WithInt("n", 96).WithFloat("p", 0.01).WithFloat("q", 0.09),
	model.New("edgemeg").WithInt("n", 64).WithFloat("p", 0.02).WithFloat("q", 0.18).WithBool("dense", true),
	model.New("edgemeg").WithInt("n", 96).WithFloat("p", 0.01).WithFloat("q", 0.09).With("stream", "v2"),
	model.New("edgemeg4").WithInt("n", 64),
	model.New("waypoint").WithInt("n", 64).WithFloat("L", 12).WithFloat("r", 1.5),
	model.New("direction").WithInt("n", 64).WithFloat("L", 12).WithFloat("r", 1.5),
	model.New("dwaypoint").WithInt("n", 40).WithInt("m", 5),
	model.New("walk").WithInt("n", 48).WithInt("m", 8),
	model.New("paths").WithInt("n", 24).WithInt("m", 6),
	model.New("static").With("topology", "torus").WithInt("m", 7),
}

// stripCost zeroes the message-cost fields PR 8 added to Result, for
// comparisons against the verbatim pre-refactor reference engines, which
// never tracked cost.
func stripCost(r flood.Result) flood.Result {
	r.Messages, r.Useless, r.CostTimeline = 0, 0, nil
	return r
}

func TestEnginesMatchPreRefactorReference(t *testing.T) {
	opts := flood.Opts{MaxSteps: 1 << 14, KeepTimeline: true}
	for _, ms := range equivModels {
		for _, seed := range []uint64{1, 42} {
			build := func() dyngraph.Dynamic { return model.MustBuild(ms, seed) }
			// The flood and parsimonious references are shared by several
			// cases below (the runs are deterministic per (spec, seed)).
			refFlood := refRun(build(), 0, opts)
			refPars := refParsimonious(build(), 0, 6, opts)
			cases := []struct {
				name      string
				got, want flood.Result
			}{
				{"flood", flood.Run(build(), 0, opts), refFlood},
				{"flood/deltified",
					// The test-side diff adapter exposes the same snapshots
					// through a differently ordered delta stream.
					flood.Run(flood.NewDeltifier(build()), 0, opts),
					refFlood},
				{"parsimonious", flood.Parsimonious(build(), 0, 6, opts), refPars},
				{"parsimonious/deltified",
					flood.Parsimonious(flood.NewDeltifier(build()), 0, 6, opts),
					refPars},
			}
			for _, c := range cases {
				// The references predate message-cost accounting, so the
				// comparison strips the cost fields — the trajectory pins
				// stay exact, and the cost fields have their own pins
				// (cost_test.go conservation, the deltified pins below).
				if !reflect.DeepEqual(stripCost(c.got), c.want) {
					t.Errorf("%v seed %d %s: refactored %+v != reference %+v",
						ms, seed, c.name, c.got, c.want)
				}
			}
		}
	}
}

// TestMobilityDispatchEquivalence pins the incremental mobility models:
// for every geometric model, flooding, parsimonious flooding and async
// push fed by the model's native AppendDeltas must produce byte-identical
// Results to the same engines fed by the test-side Deltifier's
// snapshot-diff stream — including the cost fields and timelines, which
// stripCost hides in the reference pins above.
func TestMobilityDispatchEquivalence(t *testing.T) {
	opts := flood.Opts{MaxSteps: 1 << 14, KeepTimeline: true}
	mobilitySpecs := []model.Spec{
		model.New("waypoint").WithInt("n", 64).WithFloat("L", 12).WithFloat("r", 1.5),
		// Pause-heavy waypoint: most nodes rest most steps, so the moved
		// set is a small fraction of n — the regime the O(moved × density)
		// step is built for, and the dedup rule's hardest case (moved and
		// unmoved endpoints mix freely).
		model.New("waypoint").WithInt("n", 64).WithFloat("L", 12).WithFloat("r", 1.5).
			WithInt("pause", 8).With("init", "uniform").WithInt("warmup", 5),
		model.New("direction").WithInt("n", 64).WithFloat("L", 12).WithFloat("r", 1.5),
		model.New("dwaypoint").WithInt("n", 40).WithInt("m", 5),
		model.New("walk").WithInt("n", 48).WithInt("m", 8),
	}
	for _, ms := range mobilitySpecs {
		for _, seed := range []uint64{1, 7, 42, 1234} {
			build := func() dyngraph.Dynamic { return model.MustBuild(ms, seed) }
			deltified := func() dyngraph.Dynamic { return flood.NewDeltifier(build()) }
			if native, df := flood.Run(build(), 0, opts), flood.Run(deltified(), 0, opts); !reflect.DeepEqual(native, df) {
				t.Errorf("%v seed %d: flood native %+v != deltified %+v", ms, seed, native, df)
			}
			if native, df := flood.Parsimonious(build(), 0, 6, opts), flood.Parsimonious(deltified(), 0, 6, opts); !reflect.DeepEqual(native, df) {
				t.Errorf("%v seed %d: parsimonious native %+v != deltified %+v", ms, seed, native, df)
			}
			if native, df := flood.Async(build(), 0, 1, 9, opts), flood.Async(deltified(), 0, 1, 9, opts); !reflect.DeepEqual(native, df) {
				t.Errorf("%v seed %d: async native %+v != deltified %+v", ms, seed, native, df)
			}
		}
	}
}

// BenchmarkEngineOnly* isolate the spreading core from model simulation
// (static graph: Step is free, snapshot access is an append), pitting the
// bitset/scratch engines against their pre-refactor references. Model
// construction and per-step Markov simulation, which dominate a flood on
// a real model, are left out; benchmark/ measures those layers.

func BenchmarkEngineOnlyBitset(b *testing.B) {
	d := dyngraph.NewStatic(graph.Torus(64, 64))
	b.ReportAllocs()
	opts := flood.Opts{MaxSteps: 1 << 10, Scratch: flood.NewScratch()}
	for i := 0; i < b.N; i++ {
		if res := flood.Run(d, 0, opts); !res.Completed {
			b.Fatal("incomplete")
		}
	}
}

func BenchmarkEngineOnlyReference(b *testing.B) {
	d := dyngraph.NewStatic(graph.Torus(64, 64))
	b.ReportAllocs()
	opts := flood.Opts{MaxSteps: 1 << 10}
	for i := 0; i < b.N; i++ {
		if res := refRun(d, 0, opts); !res.Completed {
			b.Fatal("incomplete")
		}
	}
}

func BenchmarkEngineOnlyPullBitset(b *testing.B) {
	d := dyngraph.NewStatic(graph.Torus(32, 32))
	r := rng.New(5)
	b.ReportAllocs()
	opts := flood.Opts{MaxSteps: 1 << 14, Scratch: flood.NewScratch()}
	for i := 0; i < b.N; i++ {
		if res := flood.Pull(d, 0, r, opts); !res.Completed {
			b.Fatal("incomplete")
		}
	}
}

// TestScratchWarmthDoesNotChangeResults runs every engine over every model
// twice through one shared scratch — cold, then warm, in an order designed
// to leave stale state from a different engine in the buffers — and checks
// each result equals the scratch-free run. This is the contract that lets
// internal/study hand one Scratch to a worker serving thousands of
// heterogeneous trials.
func TestScratchWarmthDoesNotChangeResults(t *testing.T) {
	sc := flood.NewScratch()
	for round := 0; round < 2; round++ {
		for _, ms := range equivModels {
			seed := uint64(3)
			plain := flood.Opts{MaxSteps: 1 << 14, KeepTimeline: true}
			shared := plain
			shared.Scratch = sc
			run := func(o flood.Opts) []flood.Result {
				return []flood.Result{
					flood.Run(model.MustBuild(ms, seed), 0, o),
					flood.RandomizedPush(model.MustBuild(ms, seed), 0, 2, rng.New(7), o),
					flood.Pull(model.MustBuild(ms, seed), 0, rng.New(11), o),
					flood.PushPull(model.MustBuild(ms, seed), 0, 1, rng.New(13), o),
					flood.Parsimonious(model.MustBuild(ms, seed), 0, 6, o),
					flood.Async(model.MustBuild(ms, seed), 0, 1, 17, o),
				}
			}
			if got, want := run(shared), run(plain); !reflect.DeepEqual(got, want) {
				t.Fatalf("round %d %v: scratch-backed results differ:\n%+v\nvs\n%+v",
					round, ms, got, want)
			}
		}
	}
}
