package main

import (
	"fmt"
	"sync/atomic"

	"repro/internal/dyngraph"
	"repro/internal/flood"
	"repro/internal/model"
	"repro/internal/protocol"
	"repro/internal/rng"
	"repro/internal/study"
)

// Stream tags study.Run derives each trial's model and protocol seeds
// with. runStudy repeats study.Run's sequence with spans around the calls;
// a traced and an untraced run of one seed must give the same digest, and
// the farm recheck compares runStudy's records with the farm's, so a
// mirror that drifts from study.Run fails the run.
const (
	modelStream uint64 = 0x4D4F44 // "MOD"
	protoStream uint64 = 0x50524F // "PRO"
)

// Seed tags of the benchmark's own inputs, each derived from -seed.
const (
	tagSweep uint64 = iota + 1
	tagWarm
	tagModel
	tagGrid
	tagRecheck
)

// runStudy runs one study cell and returns its record. Untraced it is
// study.Run. Traced, model and protocol construction and the protocol run
// are only reachable inside study.Run, so it drives the next public entry
// point down the way study.Run does: trial 0 synchronously, then the
// other trials through study.Trials with a timing Factory and a
// protocol.Protocol decorator. Models are never wrapped: wrapping would
// change which engine flood.Run dispatches to.
func (b *bench) runStudy(s study.Study, parent int32, scratchMax *atomic.Int64) (study.CellRecord, error) {
	if b.tr == nil {
		c, err := study.Run(s)
		if err != nil {
			return study.CellRecord{}, err
		}
		return study.Record(s, c), nil
	}
	if s.Trials <= 0 {
		return study.CellRecord{}, fmt.Errorf("study %s × %s: no trials", s.Model, s.Protocol)
	}
	tr := b.tr
	opts := flood.Opts{MaxSteps: s.MaxSteps, KeepTimeline: s.KeepTimeline}
	trial0 := tr.begin("study.trial", parent, 0)
	d0, p0, err := b.buildTrial(s, 0, trial0)
	if err != nil {
		tr.end(trial0)
		return study.CellRecord{}, err
	}
	n := d0.N()
	if s.Source < 0 || s.Source >= n {
		tr.end(trial0)
		return study.CellRecord{}, fmt.Errorf("study: source %d out of range for %s (n = %d)", s.Source, s.Model, n)
	}
	results := make([]flood.Result, 1, s.Trials)
	results[0] = timedProtocol{p0, tr, trial0, 0}.Run(d0, s.Source, opts)
	pool := tr.begin("study.trials", parent, -1)
	rest := study.Trials(func(trial int) (dyngraph.Dynamic, protocol.Protocol, int) {
		trial++ // trial 0 already ran, as in study.Run
		id := tr.begin("study.trial", pool, int64(trial))
		d, p, err := b.buildTrial(s, trial, id)
		if err != nil {
			// Trial 0 built the same specs; study.Run panics here too.
			panic(err)
		}
		return d, timedProtocol{p, tr, id, int64(trial)}, s.Source
	}, s.Trials-1, study.TrialsOpts{Opts: opts, Workers: s.Workers, ScratchBytes: scratchMax})
	tr.end(pool)
	results = append(results, rest...)
	cell := study.Cell{Model: s.Model.String(), Protocol: s.Protocol.String(), N: n, Results: results}
	return study.Record(s, cell), nil
}

// buildTrial builds one trial's model and protocol from study.Run's
// per-trial seeds, with a span around each call.
func (b *bench) buildTrial(s study.Study, trial int, parent int32) (dyngraph.Dynamic, protocol.Protocol, error) {
	id := b.tr.begin("model.build", parent, int64(trial))
	d, err := model.Build(s.Model, rng.Seed(s.Seed, modelStream, uint64(trial)))
	b.tr.end(id)
	if err != nil {
		return nil, nil, err
	}
	id = b.tr.begin("protocol.build", parent, int64(trial))
	p, err := protocol.Build(s.Protocol, rng.Seed(s.Seed, protoStream, uint64(trial)))
	b.tr.end(id)
	return d, p, err
}

// timedProtocol is the protocol.Protocol decorator of traced trials: it
// records a span around Run and then closes the trial's span.
type timedProtocol struct {
	p     protocol.Protocol
	tr    *tracer
	trial int32
	op    int64
}

func (t timedProtocol) Run(d dyngraph.Dynamic, source int, opts flood.Opts) flood.Result {
	id := t.tr.begin("protocol.run", t.trial, t.op)
	r := t.p.Run(d, source, opts)
	t.tr.end(id)
	t.tr.end(t.trial)
	return r
}

// checkRecord checks one cell record: its shape, and the invariants of
// every trial in it.
func (b *bench) checkRecord(rec study.CellRecord) {
	err := rec.Validate()
	if err == nil && !rec.HasCost() {
		err = fmt.Errorf("record %s has no message costs", rec.Key())
	}
	b.check("record-shape", err == nil, "%v", err)
	if err != nil {
		return
	}
	for i := 0; i < rec.Trials; i++ {
		b.checkRun(rec.N, rec.Times[i], rec.Informed[i], rec.Messages[i], rec.Useless[i], rec.Times[i] >= 0)
	}
}

// rounds returns the rounds a run executed: its completion time, or its
// step cap when it did not complete.
func rounds(time int, completed bool, maxSteps int) int {
	if completed {
		return time
	}
	if maxSteps <= 0 {
		return flood.DefaultMaxSteps
	}
	return maxSteps
}

// costs accumulates the message cost of many runs.
type costs struct {
	messages, useless, rounds float64
}

func (c *costs) addRecord(rec study.CellRecord) {
	for i := 0; i < rec.Trials; i++ {
		c.messages += float64(rec.Messages[i])
		c.useless += float64(rec.Useless[i])
		c.rounds += float64(rounds(rec.Times[i], rec.Times[i] >= 0, rec.MaxSteps))
	}
}

// layers records the waste ratio: messages per round executed, and the
// share of messages that informed no one, both over every run added.
func (c costs) layers(b *bench) {
	b.layer("flood.messages_per_round", c.messages/c.rounds, "count")
	b.layer("flood.useless_frac", c.useless/c.messages, "frac")
}

// churn is the model churn over some steps.
type churn struct{ born, died, moved, steps int64 }

// ladder replays a model trajectory on an instance of its own, timing
// Dynamic.Step (rung 1), DeltaBatcher.AppendDeltas (+drain) and
// Adjacency.Apply (+apply) as three spans a step. A flood over the same
// spec and seed makes exactly these model calls, so a ladder isolates the
// model and dyngraph layers of the flood's own steps.
type ladder struct {
	d          dyngraph.Dynamic
	db         dyngraph.DeltaBatcher
	mr         dyngraph.MoveReporter
	adj        dyngraph.Adjacency
	born, died []dyngraph.Edge
	total      churn
}

// newLadder builds the ladder's instance from spec and seed, takes skip
// steps untimed, and seeds its Adjacency from the snapshot.
func newLadder(s model.Spec, seed uint64, skip int64) (*ladder, error) {
	d, err := model.Build(s, seed)
	if err != nil {
		return nil, err
	}
	db, ok := d.(dyngraph.DeltaBatcher)
	if !ok {
		return nil, fmt.Errorf("ladder: %s does not implement dyngraph.DeltaBatcher", s)
	}
	l := &ladder{d: d, db: db}
	l.mr, _ = d.(dyngraph.MoveReporter)
	for i := int64(0); i < skip; i++ {
		d.Step()
	}
	l.adj.Reset(d.N())
	l.adj.AddEdges(dyngraph.AppendEdges(d, nil))
	return l, nil
}

// window times the next steps steps under a ladder.window span and
// returns their churn.
func (l *ladder) window(tr *tracer, parent int32, op, steps int64) churn {
	wid := tr.begin("ladder.window", parent, op)
	var c churn
	for i := int64(0); i < steps; i++ {
		id := tr.begin("model.step", wid, i)
		l.d.Step()
		tr.end(id)
		id = tr.begin("dyngraph.drain", wid, i)
		l.born, l.died = l.db.AppendDeltas(l.born[:0], l.died[:0])
		tr.end(id)
		id = tr.begin("dyngraph.apply", wid, i)
		l.adj.Apply(l.born, l.died)
		tr.end(id)
		c.born += int64(len(l.born))
		c.died += int64(len(l.died))
		if l.mr != nil {
			c.moved += int64(l.mr.MovedLastStep())
		}
		c.steps++
	}
	tr.end(wid)
	l.total.born += c.born
	l.total.died += c.died
	l.total.moved += c.moved
	l.total.steps += c.steps
	return c
}

// ladderLayers records a ladder's metrics, taken from the spans under
// span anc, with suffix appended to each name.
func (b *bench) ladderLayers(l *ladder, anc int32, suffix string) {
	steps := float64(l.total.steps)
	b.layer("dyngraph.born_per_step"+suffix, float64(l.total.born)/steps, "count")
	b.layer("dyngraph.died_per_step"+suffix, float64(l.total.died)/steps, "count")
	b.layer("dyngraph.adjacency_mb"+suffix, float64(l.adj.Bytes())/mib, "MB")
	if l.mr != nil {
		b.layer("mobility.moved_per_step"+suffix, float64(l.total.moved)/steps, "count")
	}
	spans := b.tr.recorded()
	step := durationsMS(spans, "model.step", anc)
	b.layer("model.step_us_p50"+suffix, 1e3*median(step), "us")
	b.layer("model.step_us_p99"+suffix, 1e3*quantile(step, 0.99), "us")
	b.layer("dyngraph.drain_us_p50"+suffix, 1e3*median(durationsMS(spans, "dyngraph.drain", anc)), "us")
	b.layer("dyngraph.apply_us_p50"+suffix, 1e3*median(durationsMS(spans, "dyngraph.apply", anc)), "us")
	b.res.Samples["model.step"+suffix] = len(step)
}

// runLadder times steps steps of spec/seed from its first step, in two
// windows under a bench.ladder span, and records the ladder's metrics.
func (b *bench) runLadder(s model.Spec, seed uint64, steps int64, op int64, suffix string) error {
	l, err := newLadder(s, seed, 0)
	if err != nil {
		return err
	}
	id := b.tr.begin("bench.ladder", b.root, op)
	l.window(b.tr, id, 0, steps/2)
	l.window(b.tr, id, 1, steps-steps/2)
	b.tr.end(id)
	b.ladderLayers(l, id, suffix)
	return nil
}
