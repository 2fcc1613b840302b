package study_test

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/model"
	_ "repro/internal/model/all"
	"repro/internal/protocol"
	"repro/internal/spec"
	"repro/internal/study"
	"repro/internal/telemetry"
)

func baseSweep() study.Sweep {
	return study.Sweep{
		Models: []spec.Spec{
			model.New("edgemeg").WithInt("n", 64).WithFloat("p", 0.03).WithFloat("q", 0.27),
			model.New("static").With("topology", "torus").WithInt("m", 8),
		},
		Protocols: []spec.Spec{
			protocol.New("flood"),
			protocol.New("push").WithInt("k", 2),
			protocol.New("pushpull").WithInt("k", 1),
		},
		Trials:   6,
		Seed:     42,
		MaxSteps: 1 << 14,
	}
}

func TestParseSweepStringsAndObjects(t *testing.T) {
	data := []byte(`{
		"models": [
			"edgemeg:n=64,p=0.03,q=0.27",
			{"name": "static", "params": {"topology": "torus", "m": 8}}
		],
		"protocols": ["flood", {"name": "push", "params": {"k": 2}}],
		"trials": 6,
		"seed": 42,
		"max_steps": 16384
	}`)
	sw, err := study.ParseSweep(data)
	if err != nil {
		t.Fatal(err)
	}
	want := baseSweep()
	want.Protocols = want.Protocols[:2]
	if !reflect.DeepEqual(sw.Keys(), want.Keys()) {
		t.Fatalf("parsed keys = %v, want %v", sw.Keys(), want.Keys())
	}
	// The Sweep round-trips through its own JSON marshalling.
	out, err := json.Marshal(sw)
	if err != nil {
		t.Fatal(err)
	}
	sw2, err := study.ParseSweep(out)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sw, sw2) {
		t.Fatalf("sweep does not round-trip:\n%+v\nvs\n%+v", sw, sw2)
	}
	// A JSON number reaches the spec as %g text, so n = 10⁶ arrives as
	// "1e+06": it parses as an integer, and the cell key keeps the text.
	big, err := study.ParseSweep([]byte(`{"models": [{"name": "edgemeg", "params": {"n": 1000000}}], "protocols": ["flood"], "trials": 1}`))
	if err != nil {
		t.Fatal(err)
	}
	if got := big.Keys()[0].Model; got != "edgemeg:n=1e+06" {
		t.Fatalf("big-n key model = %q, want %q", got, "edgemeg:n=1e+06")
	}
	_, args, err := model.Resolve(big.Models[0])
	if err != nil {
		t.Fatal(err)
	}
	if n := args.Int("n"); n != 1000000 {
		t.Fatalf("big-n spec resolves to n = %d, want 1000000", n)
	}
}

func TestParseSweepRejectsBadInput(t *testing.T) {
	bad := []string{
		`{"models": ["no-such-model"], "protocols": ["flood"], "trials": 3}`,
		`{"models": ["edgemeg"], "protocols": ["no-such-protocol"], "trials": 3}`,
		`{"models": ["edgemeg"], "protocols": ["flood"], "trials": 0}`,
		`{"models": [], "protocols": ["flood"], "trials": 3}`,
		`{"models": ["edgemeg"], "protocols": [], "trials": 3}`,
		`{"models": ["edgemeg:n=:="], "protocols": ["flood"], "trials": 3}`,
		`{"models": [42], "protocols": ["flood"], "trials": 3}`,
		`{"models": ["edgemeg:n=64", {"name": "edgemeg", "params": {"n": 64}}], "protocols": ["flood"], "trials": 3}`,
		`{"models": ["edgemeg"], "protocols": ["flood", "flood"], "trials": 3}`,
		// A non-finite float never reaches Build (waypoint's steady-state
		// sampler would spin forever on L = nan or inf).
		`{"models": ["waypoint:n=64,L=nan"], "protocols": ["flood"], "trials": 3}`,
		`{"models": ["waypoint:n=64,L=inf"], "protocols": ["flood"], "trials": 3}`,
	}
	for _, data := range bad {
		if _, err := study.ParseSweep([]byte(data)); err == nil {
			t.Errorf("ParseSweep(%s) succeeded, want error", data)
		}
	}
}

// TestRunSweepMatchesGrid pins the re-plumbing contract: the declarative
// sweep path produces exactly the per-trial numbers of the study.Grid call
// it subsumes (the E18 acceptance criterion, in miniature).
func TestRunSweepMatchesGrid(t *testing.T) {
	sw := baseSweep()
	records, err := study.RunSweep(sw, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	cells, err := study.Grid(study.Study{
		Trials:   sw.Trials,
		Seed:     sw.Seed,
		MaxSteps: sw.MaxSteps,
	}, sw.Models, sw.Protocols)
	if err != nil {
		t.Fatal(err)
	}
	if len(records) != len(cells) {
		t.Fatalf("sweep ran %d cells, grid %d", len(records), len(cells))
	}
	for i, rec := range records {
		cell := cells[i]
		if rec.Model != cell.Model || rec.Protocol != cell.Protocol || rec.N != cell.N {
			t.Fatalf("cell %d identity mismatch: %+v vs %+v", i, rec.Key(), cell)
		}
		for trial, res := range cell.Results {
			if rec.Times[trial] != res.Time || rec.HalfTimes[trial] != res.HalfTime || rec.Informed[trial] != res.Informed {
				t.Fatalf("cell %d trial %d: record (%d, %d, %d) vs result %+v",
					i, trial, rec.Times[trial], rec.HalfTimes[trial], rec.Informed[trial], res)
			}
		}
	}
}

// renderReports aggregates records and renders both report forms.
func renderReports(t *testing.T, records []study.CellRecord) (csv, md string) {
	t.Helper()
	rows := study.Report(records)
	var csvBuf, mdBuf bytes.Buffer
	if err := study.WriteCSV(&csvBuf, rows); err != nil {
		t.Fatal(err)
	}
	if err := study.WriteMarkdown(&mdBuf, rows); err != nil {
		t.Fatal(err)
	}
	return csvBuf.String(), mdBuf.String()
}

// TestSweepResumeByteIdentical is the checkpoint/resume contract: a sweep
// killed after any prefix of its cells and resumed — with a different
// Workers value, from a checkpoint whose trailing line was truncated
// mid-write — aggregates to byte-identical CSV and markdown reports.
func TestSweepResumeByteIdentical(t *testing.T) {
	sw := baseSweep()
	sw.Workers = 3

	// The uninterrupted run, checkpointing every cell.
	var full bytes.Buffer
	fullRecords, err := study.RunSweep(sw, nil, func(rec study.CellRecord) error {
		return study.WriteCheckpoint(&full, rec)
	})
	if err != nil {
		t.Fatal(err)
	}
	wantCSV, wantMD := renderReports(t, fullRecords)

	lines := strings.SplitAfter(strings.TrimSuffix(full.String(), "\n"), "\n")
	if len(lines) != len(sw.Keys()) {
		t.Fatalf("checkpoint has %d lines, want %d", len(lines), len(sw.Keys()))
	}
	for kill := 0; kill <= len(lines); kill++ {
		// A run killed after `kill` completed cells: the checkpoint holds
		// the first `kill` records plus, when a cell was in flight, a
		// truncated half-written line.
		ckpt := strings.Join(lines[:kill], "")
		if kill < len(lines) {
			ckpt += lines[kill][:len(lines[kill])/2]
		}
		records, err := study.ReadCheckpoint(strings.NewReader(ckpt))
		if err != nil {
			t.Fatalf("kill=%d: reading truncated checkpoint: %v", kill, err)
		}
		if len(records) != kill {
			t.Fatalf("kill=%d: checkpoint recovered %d records", kill, len(records))
		}

		// Resume with a different Workers value; only the missing cells
		// may run.
		resumed := sw
		resumed.Workers = 1
		ran := 0
		mergedRecords, err := study.RunSweep(resumed, study.Index(records), func(study.CellRecord) error {
			ran++
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if ran != len(lines)-kill {
			t.Fatalf("kill=%d: resume ran %d cells, want %d", kill, ran, len(lines)-kill)
		}
		gotCSV, gotMD := renderReports(t, mergedRecords)
		if gotCSV != wantCSV {
			t.Fatalf("kill=%d: resumed CSV differs:\n%s\nvs\n%s", kill, gotCSV, wantCSV)
		}
		if gotMD != wantMD {
			t.Fatalf("kill=%d: resumed markdown differs:\n%s\nvs\n%s", kill, gotMD, wantMD)
		}
	}
}

func TestReadCheckpointRejectsMidFileCorruption(t *testing.T) {
	var buf bytes.Buffer
	rec := study.CellRecord{
		Model: "m", Protocol: "p", Trials: 1, Seed: 1, N: 4,
		Times: []int{3}, HalfTimes: []int{2}, Informed: []int{4},
	}
	if err := study.WriteCheckpoint(&buf, rec); err != nil {
		t.Fatal(err)
	}
	good := buf.String()

	// Garbage in the middle is corruption, not a crash artifact.
	if _, err := study.ReadCheckpoint(strings.NewReader("{garbage\n" + good)); err == nil {
		t.Fatal("mid-file corruption not rejected")
	}
	// A final line whose slices disagree with its trial count is dropped
	// like any other truncated tail...
	short := `{"model":"m","protocol":"p","trials":3,"times":[1],"half_times":[1],"informed":[1]}`
	records, err := study.ReadCheckpoint(strings.NewReader(good + short + "\n"))
	if err != nil || len(records) != 1 {
		t.Fatalf("inconsistent tail: records=%d err=%v", len(records), err)
	}
	// ...but mid-file it is corruption.
	if _, err := study.ReadCheckpoint(strings.NewReader(short + "\n" + good)); err == nil {
		t.Fatal("mid-file inconsistent record not rejected")
	}
	// Duplicate keys: the later record wins in the index.
	rec2 := rec
	rec2.Times = []int{7}
	var dup bytes.Buffer
	_ = study.WriteCheckpoint(&dup, rec)
	_ = study.WriteCheckpoint(&dup, rec2)
	records, err = study.ReadCheckpoint(&dup)
	if err != nil {
		t.Fatal(err)
	}
	idx := study.Index(records)
	if len(idx) != 1 || idx[rec.Key()].Times[0] != 7 {
		t.Fatalf("duplicate key resolution wrong: %+v", idx)
	}
}

func TestReportAggregates(t *testing.T) {
	records := []study.CellRecord{
		{
			Model: "zzz", Protocol: "flood", Trials: 4, Seed: 1, N: 10,
			Times:     []int{4, 2, -1, 6},
			HalfTimes: []int{2, 1, -1, 3},
			Informed:  []int{10, 10, 5, 10},
		},
		{
			Model: "aaa", Protocol: "flood", Trials: 2, Seed: 1, N: 10,
			Times:     []int{-1, -1},
			HalfTimes: []int{-1, -1},
			Informed:  []int{1, 1},
		},
	}
	rows := study.Report(records)
	if len(rows) != 2 || rows[0].Model != "aaa" || rows[1].Model != "zzz" {
		t.Fatalf("rows not sorted by model: %+v", rows)
	}
	r := rows[1]
	if r.Completed != 3 || r.MedianTime != 4 || r.MeanTime != 4 || r.MedianHalf != 2 {
		t.Fatalf("aggregates wrong: %+v", r)
	}
	if math.Abs(r.InformedFrac-0.875) > 1e-12 {
		t.Fatalf("informed fraction = %v, want 0.875", r.InformedFrac)
	}
	// No completed trials: NaN stats, CSV and markdown still render.
	if !math.IsNaN(rows[0].MedianTime) || rows[0].Completed != 0 {
		t.Fatalf("empty-cell row wrong: %+v", rows[0])
	}
	csv, md := renderReports(t, records)
	if !strings.Contains(csv, "aaa,flood,2,1,0,NaN") {
		t.Fatalf("CSV NaN rendering wrong:\n%s", csv)
	}
	if !strings.Contains(md, "| -") {
		t.Fatalf("markdown NaN rendering wrong:\n%s", md)
	}
	// Spec strings with commas must be quoted in CSV.
	records[0].Model = "edgemeg:n=10,p=0.1"
	csv, _ = renderReports(t, records)
	if !strings.Contains(csv, `"edgemeg:n=10,p=0.1"`) {
		t.Fatalf("CSV comma quoting missing:\n%s", csv)
	}
}

// TestReportCostColumnsGated pins the cost-column gate: the report renders
// median_messages/mean_messages/useless_frac exactly when EVERY record
// carries per-trial costs, so a checkpoint written before cost accounting
// existed — or a resumed mix of old and new records — keeps producing the
// byte stream it always did.
func TestReportCostColumnsGated(t *testing.T) {
	old := study.CellRecord{
		Model: "aaa", Protocol: "flood", Trials: 2, Seed: 1, N: 10,
		Times:     []int{4, 2},
		HalfTimes: []int{2, 1},
		Informed:  []int{10, 10},
	}
	costed := study.CellRecord{
		Model: "zzz", Protocol: "flood", Trials: 2, Seed: 1, N: 10,
		Times:     []int{4, 2},
		HalfTimes: []int{2, 1},
		Informed:  []int{10, 10},
		Messages:  []int64{30, 20},
		Useless:   []int64{21, 11},
	}
	legacyCSV, legacyMD := renderReports(t, []study.CellRecord{old})
	if strings.Contains(legacyCSV, "median_messages") || strings.Contains(legacyMD, "median_messages") {
		t.Fatalf("pre-cost record rendered cost columns:\n%s", legacyCSV)
	}
	mixedCSV, _ := renderReports(t, []study.CellRecord{old, costed})
	if strings.Contains(mixedCSV, "median_messages") {
		t.Fatalf("mixed records rendered cost columns:\n%s", mixedCSV)
	}
	// The legacy record renders the identical line whether or not a costed
	// record sits beside it.
	for _, line := range strings.Split(legacyCSV, "\n")[1:] {
		if line != "" && !strings.Contains(mixedCSV, line) {
			t.Fatalf("legacy row changed in mixed report: %q missing from\n%s", line, mixedCSV)
		}
	}
	csv, md := renderReports(t, []study.CellRecord{costed})
	if !strings.HasPrefix(csv, "model,protocol,trials,seed,completed,median_time,mean_time,p95_time,median_half,informed_frac,median_messages,mean_messages,useless_frac\n") {
		t.Fatalf("all-cost CSV header wrong:\n%s", csv)
	}
	// 50 messages total, 32 useless: median 25, mean 25, frac 0.64.
	if !strings.Contains(csv, ",25,25,0.64") {
		t.Fatalf("cost cells wrong:\n%s", csv)
	}
	if !strings.Contains(md, "| 0.640") {
		t.Fatalf("markdown useless_frac wrong:\n%s", md)
	}
	// Zero messages: useless_frac is NaN, rendered not crashed.
	zero := costed
	zero.Messages = []int64{0, 0}
	zero.Useless = []int64{0, 0}
	csv, md = renderReports(t, []study.CellRecord{zero})
	if !strings.Contains(csv, ",0,0,NaN") || !strings.Contains(md, "| - ") {
		t.Fatalf("0/0 useless_frac rendering wrong:\ncsv: %s\nmd: %s", csv, md)
	}
}

// TestValidateCostPairs pins that a record with half its cost data is
// damage, not a pre-cost record.
func TestValidateCostPairs(t *testing.T) {
	base := study.CellRecord{
		Model: "m", Protocol: "p", Trials: 2, Seed: 1, N: 4,
		Times: []int{1, 2}, HalfTimes: []int{1, 1}, Informed: []int{4, 4},
	}
	if err := base.Validate(); err != nil {
		t.Fatalf("pre-cost record must validate: %v", err)
	}
	lone := base
	lone.Messages = []int64{3, 4}
	if err := lone.Validate(); err == nil {
		t.Fatal("record with Messages but no Useless must not validate")
	}
	short := base
	short.Messages = []int64{3}
	short.Useless = []int64{1}
	if err := short.Validate(); err == nil {
		t.Fatal("record with short cost arrays must not validate")
	}
	full := base
	full.Messages = []int64{3, 4}
	full.Useless = []int64{0, 1}
	if err := full.Validate(); err != nil {
		t.Fatalf("costed record must validate: %v", err)
	}
}

// TestOpenCheckpointHealsSeveredTail pins the resume-append contract: a
// checkpoint ending in a kill-severed partial line must be truncated back
// to its last intact record before appending, so the next record starts on
// a fresh line instead of gluing onto the fragment (which would corrupt
// every later load).
func TestOpenCheckpointHealsSeveredTail(t *testing.T) {
	recA := study.CellRecord{
		Model: "a", Protocol: "p", Trials: 1, Seed: 1, N: 4,
		Times: []int{3}, HalfTimes: []int{2}, Informed: []int{4},
	}
	recB := recA
	recB.Model = "b"
	var buf bytes.Buffer
	if err := study.WriteCheckpoint(&buf, recA); err != nil {
		t.Fatal(err)
	}
	full := buf.String()

	path := t.TempDir() + "/ck.jsonl"
	if err := os.WriteFile(path, []byte(full+full[:len(full)/2]), 0o644); err != nil {
		t.Fatal(err)
	}
	f, done, err := study.OpenCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(done) != 1 {
		t.Fatalf("severed checkpoint loaded %d records, want 1", len(done))
	}
	if err := study.WriteCheckpoint(f, recB); err != nil {
		t.Fatal(err)
	}
	f.Close()

	// The healed file must hold exactly both records — severed tail gone,
	// appended record intact — and keep loading cleanly.
	records, err := study.ReadCheckpoint(strings.NewReader(readFile(t, path)))
	if err != nil {
		t.Fatal(err)
	}
	if len(records) != 2 || records[0].Model != "a" || records[1].Model != "b" {
		t.Fatalf("healed checkpoint wrong: %+v", records)
	}
	if _, done, err = study.OpenCheckpoint(path); err != nil || len(done) != 2 {
		t.Fatalf("reopen: done=%d err=%v", len(done), err)
	}

	// The nastiest cut: the kill severed exactly the trailing newline, so
	// the final record is complete JSON. It must be kept AND the next
	// append must not glue onto it.
	if err := os.WriteFile(path, []byte(full+strings.TrimSuffix(full, "\n")), 0o644); err != nil {
		t.Fatal(err)
	}
	f, done, err = study.OpenCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(done) != 1 { // recA twice — one key
		t.Fatalf("newline-less checkpoint loaded %d keys, want 1", len(done))
	}
	if err := study.WriteCheckpoint(f, recB); err != nil {
		t.Fatal(err)
	}
	f.Close()
	records, err = study.ReadCheckpoint(strings.NewReader(readFile(t, path)))
	if err != nil || len(records) != 3 || records[2].Model != "b" {
		t.Fatalf("newline repair failed: records=%+v err=%v\nfile:\n%s", records, err, readFile(t, path))
	}
}

// TestRunSweepRejectsMismatchedCheckpoint: the resume key omits Source and
// MaxSteps, so RunSweep must refuse a checkpointed cell recorded under
// different values rather than silently reuse it.
func TestRunSweepRejectsMismatchedCheckpoint(t *testing.T) {
	sw := baseSweep()
	records, err := study.RunSweep(sw, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, edit := range []func(*study.Sweep){
		func(s *study.Sweep) { s.MaxSteps = 1 << 10 },
		func(s *study.Sweep) { s.Source = 1 },
	} {
		changed := sw
		edit(&changed)
		if _, err := study.RunSweep(changed, study.Index(records), nil); err == nil {
			t.Fatalf("RunSweep reused a checkpoint recorded under different source/max_steps")
		}
	}
}

func readFile(t *testing.T, path string) string {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// captureSink collects telemetry samples in memory.
type captureSink struct {
	mu      sync.Mutex
	samples []telemetry.Sample
}

func (c *captureSink) Append(s telemetry.Sample) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.samples = append(c.samples, s)
	return nil
}

// TestRunSweepTelemetry wires a collector through a small sweep and checks
// the counters a capture would record: cells/trials/steps totals, a
// positive scratch footprint, and one per-cell sample from SampleNow.
func TestRunSweepTelemetry(t *testing.T) {
	sw := baseSweep()
	// Walkers on a bipartite grid that meet only at the same point keep
	// their parity classes apart, so every trial of this cell is cut off
	// at MaxSteps while the graph still churns. The base cells finish far
	// below the lower cap.
	sw.Models = append(sw.Models, model.New("paths").WithInt("n", 24).WithInt("m", 4).With("family", "edges").WithInt("hop", 0))
	sw.MaxSteps = 1 << 10
	col := telemetry.New(telemetry.Options{NoRuntime: true})
	sink := &captureSink{}
	col.Start(sink)
	half := sw.Keys()[:3]
	done := map[study.Key]study.CellRecord{}
	records, err := study.RunSweep(sw, nil, func(rec study.CellRecord) error {
		if len(done) < len(half) {
			done[rec.Key()] = rec
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	_, err = study.RunSweepOpts(sw, study.SweepOpts{Done: done, Telemetry: col})
	if err != nil {
		t.Fatal(err)
	}
	if err := col.Stop(); err != nil {
		t.Fatal(err)
	}
	s := col.Snapshot()
	total := int64(len(sw.Keys()))
	resumed := int64(len(done))
	if got := s.Values["sweep_cells_total"]; got != total-resumed {
		t.Fatalf("sweep_cells_total = %d, want %d", got, total-resumed)
	}
	if got := s.Values["sweep_cells_resumed_total"]; got != resumed {
		t.Fatalf("sweep_cells_resumed_total = %d, want %d", got, resumed)
	}
	if got := s.Values["sweep_trials_total"]; got != (total-resumed)*int64(sw.Trials) {
		t.Fatalf("sweep_trials_total = %d, want %d", got, (total-resumed)*int64(sw.Trials))
	}
	// Steps count completed trials only; a cut-off trial's Time is -1.
	var wantSteps, cutOff int64
	for _, rec := range records[len(half):] {
		for _, steps := range rec.Times {
			if steps < 0 {
				cutOff++
				continue
			}
			wantSteps += int64(steps)
		}
	}
	if cutOff == 0 {
		t.Fatal("the sweep has no cut-off trial")
	}
	if got := s.Values["sweep_steps_total"]; got != wantSteps {
		t.Fatalf("sweep_steps_total = %d, want %d", got, wantSteps)
	}
	if got := s.Values["scratch_bytes"]; got <= 0 {
		t.Fatalf("scratch_bytes = %d, want > 0", got)
	}
	// The sweep's edgemeg cells ran through the delta flooding engine, so
	// the churn gauges must report its per-step edge turnover. At n = 64,
	// p = 0.03, q = 0.27 the stationary churn is ≈ 54 edges/step in each
	// direction; the gauges aggregate process-wide, so assert positivity
	// and sanity (bounded by the pair count), not an exact value.
	for _, g := range []string{"born_per_step", "died_per_step"} {
		if got := s.Values[g]; got <= 0 || got > 64*63/2 {
			t.Fatalf("%s = %d, want in (0, pairs]", g, got)
		}
	}
	// SampleNow fires once per fresh cell; Stop appends one more.
	sink.mu.Lock()
	n := len(sink.samples)
	sink.mu.Unlock()
	if n < int(total-resumed)+1 {
		t.Fatalf("got %d samples, want >= %d (per-cell + final)", n, int(total-resumed)+1)
	}
}

// TestRunSweepMovedGauge runs a mobility cell — a model that reports node
// motion through dyngraph.MoveReporter — and checks that the
// moved_per_step gauge is registered and sampled alongside
// born_per_step/died_per_step. The gauges aggregate process-wide (every
// delta-engine step this test binary ran divides the ratio), so the moved
// value itself may round to zero under the full suite; the deterministic
// per-run moved count is pinned at the flood layer
// (TestChurnTotalsCountMovedNodes), and the churn gauges must at least
// report the waypoint cells' edge turnover.
func TestRunSweepMovedGauge(t *testing.T) {
	sw := study.Sweep{
		Models: []spec.Spec{
			model.New("waypoint").WithInt("n", 48).WithFloat("L", 10).
				WithFloat("r", 1.5).WithFloat("vmin", 1),
		},
		Protocols: []spec.Spec{protocol.New("flood")},
		Trials:    4,
		Seed:      11,
		MaxSteps:  1 << 12,
	}
	col := telemetry.New(telemetry.Options{NoRuntime: true})
	col.Start(&captureSink{})
	if _, err := study.RunSweepOpts(sw, study.SweepOpts{Telemetry: col}); err != nil {
		t.Fatal(err)
	}
	if err := col.Stop(); err != nil {
		t.Fatal(err)
	}
	s := col.Snapshot()
	if _, ok := s.Values["moved_per_step"]; !ok {
		t.Fatal("moved_per_step gauge not registered")
	}
	if got := s.Values["moved_per_step"]; got < 0 || got > 48*47/2 {
		t.Fatalf("moved_per_step = %d, want in [0, pairs]", got)
	}
	for _, g := range []string{"born_per_step", "died_per_step"} {
		if got := s.Values[g]; got <= 0 || got > 48*47/2 {
			t.Fatalf("%s = %d, want in (0, pairs]", g, got)
		}
	}
}
