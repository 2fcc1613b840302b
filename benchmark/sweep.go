package main

import (
	"bytes"
	"os"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/rng"
	"repro/internal/spec"
	"repro/internal/study"
)

// sweepConfig sizes the sweep workload.
type sweepConfig struct {
	// Models are the slow-churn and the fast-churn model, named in metric
	// names by churnLabels.
	Models [2]string
	// Trials is the per-cell trial count of one timed sweep; the timed
	// phase runs sweeps with fresh seeds until the time is up. The set-up
	// sweep runs one trial a cell.
	Trials int
	// SetupReps is how many times set-up runs; setup_s is the median.
	SetupReps int
	// LadderSteps is how many steps of each model the traced ladder times.
	LadderSteps int64
}

// sweepDense512 is the everyday job of the repository's users: a local
// sweep of the paper's protocol family over two dense edge-MEGs at degree
// ≈ 20, one whose edges live ~10 steps and one that replaces almost every
// edge each step, checkpointed with fsync after every cell.
var sweepDense512 = sweepConfig{
	Models:      [2]string{"edgemeg:n=512,p=0.004,q=0.096", "edgemeg:n=512,p=0.04,q=0.96"},
	Trials:      50,
	SetupReps:   11,
	LadderSteps: 256,
}

// churnLabels name the sweep's two models in metric names.
var churnLabels = [2]string{"slow", "fast"}

// sweepProtocols are the protocols of every sweep: the paper's flooding
// and the gossip family the repository compares it with.
var sweepProtocols = []string{"flood", "push:k=2", "pull", "pushpull:k=1", "parsimonious:active=32", "async:rate=1"}

func parseSpecs(texts []string) ([]spec.Spec, error) {
	out := make([]spec.Spec, len(texts))
	for i, t := range texts {
		s, err := spec.Parse(t)
		if err != nil {
			return nil, err
		}
		out[i] = s
	}
	return out, nil
}

// runSweep runs the sweep workload. Set-up validates and runs a one-trial
// sweep into a fresh checkpoint; the timed phase runs whole sweeps through
// study.RunSweepOpts, each with a seed of its own, and one sweep is one
// throughput sample.
func runSweep(b *bench, cfg sweepConfig) error {
	models, err := parseSpecs(cfg.Models[:])
	if err != nil {
		return err
	}
	protocols, err := parseSpecs(sweepProtocols)
	if err != nil {
		return err
	}
	mkSweep := func(seed uint64, trials int) study.Sweep {
		return study.Sweep{Models: models, Protocols: protocols, Trials: trials, Seed: seed, Workers: workers}
	}
	tr := b.tr
	var scratchMax atomic.Int64

	setup := tr.begin("bench.setup", b.root, -1)
	var ck *checkpointFile
	var records []study.CellRecord
	var setupS []float64
	for rep := 0; rep < cfg.SetupReps; rep++ {
		if ck != nil {
			ck.remove()
		}
		runtime.GC() // each repetition starts from a collected heap
		start := time.Now()
		id := tr.begin("bench.setup_rep", setup, int64(rep))
		ck, err = newCheckpointFile()
		if err != nil {
			tr.end(id)
			tr.end(setup)
			return err
		}
		records, err = b.sweepOnce(mkSweep(rng.Seed(b.seed, tagWarm), 1), ck, id, -1, &scratchMax)
		tr.end(id)
		setupS = append(setupS, time.Since(start).Seconds())
		if err != nil {
			tr.end(setup)
			ck.remove()
			return err
		}
	}
	defer ck.remove()
	tr.end(setup)
	b.e2e("setup_s", median(setupS), "s")
	b.res.Samples["setup_s"] = len(setupS)

	timed := tr.begin("bench.timed", b.root, -1)
	dg := newDigest()
	var trialMS []float64 // a sweep's time over its trials
	var cost costs
	trials := 0
	before := readMem()
	start := time.Now()
	for round := 0; round == 0 || time.Since(start) < b.budget; round++ {
		t0 := time.Now()
		recs, err := b.sweepOnce(mkSweep(rng.Seed(b.seed, tagSweep, uint64(round)), cfg.Trials), ck, timed, int64(round), &scratchMax)
		if err != nil {
			tr.end(timed)
			return err
		}
		trialMS = append(trialMS, ms(time.Since(t0))/float64(len(recs)*cfg.Trials))
		for _, rec := range recs {
			trials += rec.Trials
			cost.addRecord(rec)
			if round == 0 {
				for i := 0; i < rec.Trials; i++ {
					dg.add(rec.Times[i], rec.Informed[i], rec.Messages[i])
				}
			}
		}
		records = append(records, recs...)
	}
	after := readMem()
	b.peakRSS()
	tr.end(timed)

	perS := rate(trialMS)
	if tr == nil {
		b.e2e("throughput_per_s", perS, "1/s")
	}
	b.res.Samples["sweeps"] = len(trialMS)
	b.res.Samples["trials"] = trials
	b.res.Digest = dg.String()

	for _, rec := range records {
		b.checkRecord(rec)
	}
	b.checkReport(ck, records)

	if tr == nil {
		return nil
	}
	b.layer("trace.throughput_per_s", perS, "1/s")
	b.runtimeLayers(before, after, float64(trials))
	cost.layers(b)
	b.layer("flood.scratch_mb", float64(scratchMax.Load())/mib, "MB")
	b.sweepLayers(cfg, timed, records, ck)
	for i, m := range models {
		suffix := ""
		if i > 0 {
			suffix = "." + churnLabels[i]
		}
		if err := b.runLadder(m, rng.Seed(b.seed, tagModel, uint64(i)), cfg.LadderSteps, int64(i), suffix); err != nil {
			return err
		}
	}
	return nil
}

// sweepOnce runs one sweep into the checkpoint and returns its records.
// Untraced it is study.RunSweepOpts with a WriteCheckpoint-and-fsync sink.
// Traced it is RunSweepOpts's own loop — validate, then every cell in grid
// order followed by its checkpoint write — with each cell run by runStudy.
func (b *bench) sweepOnce(sw study.Sweep, ck *checkpointFile, parent int32, op int64, scratchMax *atomic.Int64) ([]study.CellRecord, error) {
	tr := b.tr
	if tr == nil {
		return study.RunSweepOpts(sw, study.SweepOpts{Sink: ck.write})
	}
	id := tr.begin("study.sweep", parent, op)
	defer tr.end(id)
	v := tr.begin("study.validate", id, op)
	err := sw.Validate()
	tr.end(v)
	if err != nil {
		return nil, err
	}
	var records []study.CellRecord
	for _, m := range sw.Models {
		for _, p := range sw.Protocols {
			s := study.Study{Model: m, Protocol: p, Source: sw.Source, Trials: sw.Trials,
				Seed: sw.Seed, Workers: sw.Workers, MaxSteps: sw.MaxSteps}
			cell := tr.begin("study.cell", id, int64(len(records)))
			start := time.Now()
			rec, err := b.runStudy(s, cell, scratchMax)
			rec.WallMS = time.Since(start).Milliseconds()
			tr.end(cell)
			if err != nil {
				return records, err
			}
			c := tr.begin("study.checkpoint", id, int64(len(records)))
			err = ck.write(rec)
			tr.end(c)
			if err != nil {
				return records, err
			}
			records = append(records, rec)
		}
	}
	return records, nil
}

// sweepLayers derives the study and protocol layer metrics from the spans
// of the timed sweeps.
func (b *bench) sweepLayers(cfg sweepConfig, timed int32, records []study.CellRecord, ck *checkpointFile) {
	spans := b.tr.recorded()
	np := len(sweepProtocols)
	protoName := make([]string, np)
	for i, t := range sweepProtocols {
		s, _ := spec.Parse(t) // parsed once already by runSweep
		protoName[i] = s.Name
	}
	// cellOf maps a span to the grid index of the study.cell above it.
	cellOf := func(id int32) int64 {
		for ; id >= 0; id = spans[id].Parent {
			if spans[id].Name == "study.cell" {
				return spans[id].Op
			}
		}
		return -1
	}
	runs := map[string][]float64{}
	builds := map[string][]float64{}
	var slowBuilds, floodRuns, protoBuilds, busy, cellWall []float64
	for _, s := range spans {
		if !descends(spans, s.ID, timed) {
			continue
		}
		d := float64(s.End-s.Start) / 1e6
		switch s.Name {
		case "study.cell":
			cellWall = append(cellWall, d)
			continue
		case "study.trial":
			busy = append(busy, d)
			continue
		case "protocol.build":
			protoBuilds = append(protoBuilds, d)
			continue
		case "model.build", "protocol.run":
		default:
			continue
		}
		c := cellOf(s.ID)
		if c < 0 {
			continue
		}
		// Unsuffixed metrics are those of the slow-churn model, whose steps
		// the unsuffixed ladder metrics time.
		model, proto := churnLabels[int(c)/np], protoName[int(c)%np]
		if s.Name == "model.build" {
			builds[model] = append(builds[model], d)
			if model == churnLabels[0] {
				slowBuilds = append(slowBuilds, d)
			}
			continue
		}
		runs[proto+"."+model] = append(runs[proto+"."+model], d)
		if proto == "flood" && model == churnLabels[0] {
			floodRuns = append(floodRuns, d)
		}
	}
	b.layer("model.build_ms", median(slowBuilds), "ms")
	for label, xs := range builds {
		b.layer("model.build_us_p50."+label, 1e3*median(xs), "us")
	}
	b.layer("protocol.build_us_p50", 1e3*median(protoBuilds), "us")
	for k, xs := range runs {
		b.layer("protocol.run_ms_p50."+k, median(xs), "ms")
	}
	b.layer("flood.run_ms_p50", median(floodRuns), "ms")
	b.res.Samples["model.build"] = len(slowBuilds)
	b.res.Samples["flood.run"] = len(floodRuns)
	b.layer("study.worker_idle_frac", 1-sum(busy)/(workers*sum(cellWall)), "frac")

	checkpoints := durationsMS(spans, "study.checkpoint", timed)
	b.layer("study.checkpoint_ms_p50", median(checkpoints), "ms")
	b.res.Samples["study.checkpoint"] = len(checkpoints)
	if fi, err := os.Stat(ck.path); err == nil {
		b.layer("study.checkpoint_bytes_per_cell", float64(fi.Size())/float64(len(records)), "B")
	}

	// Records are in grid order, the set-up sweep's first.
	cells := len(cfg.Models) * np
	waste := make([]costs, cells)
	for i, rec := range records[cells:] {
		waste[i%cells].addRecord(rec)
	}
	for c, w := range waste {
		b.layer("flood.useless_frac."+protoName[c%np]+"."+churnLabels[c/np], w.useless/w.messages, "frac")
	}
}

// checkReport rebuilds the report from the fsync'd checkpoint file and
// checks that it is byte-identical to the report of the in-memory records.
func (b *bench) checkReport(ck *checkpointFile, records []study.CellRecord) {
	data, err := os.ReadFile(ck.path)
	if err != nil {
		b.fail("checkpoint-report", err)
		return
	}
	fromFile, err := study.ReadCheckpoint(bytes.NewReader(data))
	if err != nil {
		b.fail("checkpoint-report", err)
		return
	}
	var want, got bytes.Buffer
	err1 := study.WriteCSV(&want, study.Report(records))
	err2 := study.WriteCSV(&got, study.Report(fromFile))
	b.check("checkpoint-report", err1 == nil && err2 == nil && len(fromFile) == len(records) && bytes.Equal(want.Bytes(), got.Bytes()),
		"report from %d checkpointed records differs from the report of %d in-memory records (%v, %v)",
		len(fromFile), len(records), err1, err2)
}

// checkpointFile is a sweep checkpoint in a temporary directory of its own.
type checkpointFile struct {
	dir, path string
	f         *os.File
}

func newCheckpointFile() (*checkpointFile, error) {
	dir, err := os.MkdirTemp("", "bench-sweep-")
	if err != nil {
		return nil, err
	}
	path := filepath.Join(dir, "sweep.ckpt.jsonl")
	f, err := os.Create(path)
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	return &checkpointFile{dir: dir, path: path, f: f}, nil
}

// write is the sweep's sink: the record is durable before the next cell
// starts, as with cmd/sweep -checkpoint.
func (c *checkpointFile) write(rec study.CellRecord) error {
	if err := study.WriteCheckpoint(c.f, rec); err != nil {
		return err
	}
	return c.f.Sync()
}

func (c *checkpointFile) remove() {
	c.f.Close() // a second Close only returns an error
	os.RemoveAll(c.dir)
}
