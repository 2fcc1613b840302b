package main

import (
	"runtime/debug"
	"time"

	"repro/internal/dyngraph"
	"repro/internal/flood"
	"repro/internal/model"
	"repro/internal/rng"
)

// floodConfig sizes a flood workload: one large model, flooded from node 0
// in windows of at most Rounds rounds while the model keeps evolving.
type floodConfig struct {
	Spec   string
	Rounds int
	// WarmWindows run in set-up, growing the scratch and the adjacency
	// arena to their high-water marks.
	WarmWindows int
	// MinWindows is the least number of timed windows, the windows the
	// digest covers, and the windows the traced ladder replays.
	MinWindows int
	// SetupReps is how many times set-up (build plus warm windows) runs;
	// setup_s is the median.
	SetupReps int
}

// floodMeg1M is the paper's sparse edge-MEG regime at a million nodes:
// stationary degree ≈ 2 with edges living ~100 steps, on the O(churn)
// stream=v2 samplers.
var floodMeg1M = floodConfig{
	Spec:   "edgemeg:n=1000000,p=2e-8,q=0.01,stream=v2",
	Rounds: 128, WarmWindows: 2, MinWindows: 4, SetupReps: 3,
}

// floodWaypoint64K is random waypoint, the paper's headline open case:
// the same engines as floodMeg1M behind a different model layer, with
// fast trips and long rests so about a quarter of the nodes move a step.
var floodWaypoint64K = floodConfig{
	Spec:   "waypoint:n=65536,L=256,r=1,vmin=8,vmax=8,pause=32",
	Rounds: 128, WarmWindows: 2, MinWindows: 4, SetupReps: 3,
}

// runFlood runs a flood workload. Every window is one flood.Run from node
// 0 over the evolving model with a warm scratch, and one throughput
// sample.
func runFlood(b *bench, cfg floodConfig) error {
	s, err := model.Parse(cfg.Spec)
	if err != nil {
		return err
	}
	seed := rng.Seed(b.seed, tagModel)
	opts := flood.Opts{MaxSteps: cfg.Rounds}
	tr := b.tr

	setup := tr.begin("bench.setup", b.root, -1)
	var d dyngraph.Dynamic
	var setupS, buildMS []float64
	for rep := 0; rep < cfg.SetupReps; rep++ {
		// Free the previous repetition's model and hand its memory back to
		// the operating system first, so that every repetition starts from
		// the same resident set and the peak holds one model, as a single
		// set-up does.
		d, opts.Scratch = nil, nil
		debug.FreeOSMemory()
		start := time.Now()
		id := tr.begin("bench.setup_rep", setup, int64(rep))
		bid := tr.begin("model.build", id, int64(rep))
		d, err = model.Build(s, seed)
		tr.end(bid)
		buildMS = append(buildMS, ms(time.Since(start)))
		if err != nil {
			tr.end(id)
			tr.end(setup)
			return err
		}
		opts.Scratch = flood.NewScratch()
		for w := 0; w < cfg.WarmWindows; w++ {
			wid := tr.begin("flood.run", id, int64(w))
			r := flood.Run(d, 0, opts)
			tr.end(wid)
			b.checkRun(d.N(), r.Time, r.Informed, r.Messages, r.Useless, r.Completed)
		}
		tr.end(id)
		setupS = append(setupS, time.Since(start).Seconds())
	}
	tr.end(setup)
	b.e2e("setup_s", median(setupS), "s")
	b.res.Samples["setup_s"] = len(setupS)
	// Traced, a ladder replays each of the first timed windows right after
	// the flood ran it, on a second instance with the same seed, so the
	// two measure the same steps under the same conditions.
	var l *ladder
	if tr != nil {
		_, _, _, warmSteps := opts.Scratch.ChurnTotals()
		id := tr.begin("ladder.setup", b.root, -1)
		l, err = newLadder(s, seed, warmSteps)
		tr.end(id)
		if err != nil {
			return err
		}
	}

	timed := tr.begin("bench.timed", b.root, -1)
	dg := newDigest()
	var windowMS, roundMS []float64
	var cost costs
	n := d.N()
	before := readMem()
	start := time.Now()
	for w := 0; w < cfg.MinWindows || time.Since(start) < b.budget; w++ {
		b0, d0, m0, s0 := opts.Scratch.ChurnTotals()
		t0 := time.Now()
		id := tr.begin("flood.run", timed, int64(w))
		r := flood.Run(d, 0, opts)
		tr.end(id)
		windowMS = append(windowMS, ms(time.Since(t0)))
		b.checkRun(n, r.Time, r.Informed, r.Messages, r.Useless, r.Completed)
		if w < cfg.MinWindows {
			dg.add(r.Time, r.Informed, r.Messages)
		}
		rs := float64(rounds(r.Time, r.Completed, cfg.Rounds))
		roundMS = append(roundMS, windowMS[w]/rs)
		cost.messages += float64(r.Messages)
		cost.useless += float64(r.Useless)
		cost.rounds += rs
		if l != nil && w < cfg.MinWindows {
			b1, d1, m1, s1 := opts.Scratch.ChurnTotals()
			f := churn{b1 - b0, d1 - d0, m1 - m0, s1 - s0}
			c := l.window(tr, timed, int64(w), f.steps)
			b.check("ladder-replays-flood", c == f, "window %d: ladder churn %+v, flood churn %+v", w, c, f)
		}
	}
	after := readMem()
	b.peakRSS()
	tr.end(timed)

	// A window ends early when the flood completes, so its length depends
	// on the seed; the time of one round does not.
	perS := rate(roundMS)
	if tr == nil {
		b.e2e("throughput_per_s", perS, "1/s")
		b.e2e("window_ms_p50", median(windowMS), "ms")
	}
	b.res.Samples["windows"] = len(windowMS)
	b.res.Digest = dg.String()
	if tr == nil {
		return nil
	}

	b.layer("trace.throughput_per_s", perS, "1/s")
	b.runtimeLayers(before, after, cost.rounds)
	cost.layers(b)
	b.layer("flood.scratch_mb", float64(opts.Scratch.Bytes())/mib, "MB")
	b.layer("model.build_ms", median(buildMS), "ms")
	b.layer("flood.run_ms_p50", median(windowMS), "ms")
	b.res.Samples["model.build"] = len(buildMS)
	b.res.Samples["flood.run"] = len(windowMS)
	b.ladderLayers(l, timed, "")
	// flood.self is derived: a window's span minus the model and dyngraph
	// time the ladder measured for the same steps.
	spans := tr.recorded()
	var selfMS []float64
	for _, sp := range spans {
		if sp.Name == "ladder.window" && sp.Parent == timed {
			rung := 0.0
			for _, name := range []string{"model.step", "dyngraph.drain", "dyngraph.apply"} {
				rung += sum(durationsMS(spans, name, sp.ID))
			}
			selfMS = append(selfMS, windowMS[sp.Op]-rung)
		}
	}
	b.layer("flood.self_ms_p50", median(selfMS), "ms")
	b.res.Samples["flood.self"] = len(selfMS)
	return nil
}
