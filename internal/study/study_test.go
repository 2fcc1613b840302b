package study_test

import (
	"bufio"
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"repro/internal/dyngraph"
	"repro/internal/flood"
	"repro/internal/graph"
	"repro/internal/model"
	_ "repro/internal/model/all"
	"repro/internal/protocol"
	"repro/internal/rng"
	"repro/internal/spec"
	"repro/internal/study"
)

func baseStudy() study.Study {
	return study.Study{
		Model:    model.New("edgemeg").WithInt("n", 96).WithFloat("p", 0.02).WithFloat("q", 0.2),
		Protocol: protocol.New("pushpull").WithInt("k", 1),
		Trials:   8,
		Seed:     42,
		MaxSteps: 1 << 14,
	}
}

// TestRunDeterministicAcrossWorkers pins the reproducibility contract for
// every registered protocol: the same Study yields identical per-trial
// results and summaries for any Workers value. Since each worker reuses
// one flood.Scratch across all its trials, this also pins that results
// never depend on how trials are packed onto warm scratches.
func TestRunDeterministicAcrossWorkers(t *testing.T) {
	for _, ptext := range []string{"flood", "push:k=1", "push:k=2", "pull", "pushpull:k=1", "pushpull:k=2", "parsimonious:active=8", "async:rate=1"} {
		pspec, err := protocol.Parse(ptext)
		if err != nil {
			t.Fatal(err)
		}
		var cells []study.Cell
		for _, workers := range []int{1, 2, 7} {
			s := baseStudy()
			s.Protocol = pspec
			s.Workers = workers
			cell, err := study.Run(s)
			if err != nil {
				t.Fatal(err)
			}
			cells = append(cells, cell)
		}
		for i := 1; i < len(cells); i++ {
			if !reflect.DeepEqual(cells[0], cells[i]) {
				t.Fatalf("%s: cells differ across worker counts:\n%+v\nvs\n%+v", ptext, cells[0], cells[i])
			}
		}
		if cells[0].Times.N+cells[0].Incomplete != 8 {
			t.Fatalf("%s: summary does not account for all trials: %+v", ptext, cells[0])
		}
	}
}

func TestRunValidatesSpecs(t *testing.T) {
	bad := []study.Study{
		func() study.Study { s := baseStudy(); s.Model = spec.New("no-such-model"); return s }(),
		func() study.Study { s := baseStudy(); s.Protocol = spec.New("no-such-protocol"); return s }(),
		func() study.Study { s := baseStudy(); s.Protocol = protocol.New("push").WithInt("k", 0); return s }(),
		func() study.Study { s := baseStudy(); s.Model = s.Model.WithInt("n", 1); return s }(),
		func() study.Study { s := baseStudy(); s.Source = 500; return s }(),
		func() study.Study { s := baseStudy(); s.Source = -1; return s }(),
	}
	for _, s := range bad {
		if _, err := study.Run(s); err == nil {
			t.Errorf("Run(%s × %s) succeeded, want error", s.Model, s.Protocol)
		}
	}
}

func TestGridCrossesModelsAndProtocols(t *testing.T) {
	base := baseStudy()
	base.Trials = 3
	models := []spec.Spec{
		model.New("edgemeg").WithInt("n", 64).WithFloat("p", 0.03).WithFloat("q", 0.27),
		model.New("static").With("topology", "torus").WithInt("m", 8),
	}
	protocols := []spec.Spec{
		protocol.New("flood"),
		protocol.New("pull"),
	}
	cells, err := study.Grid(base, models, protocols)
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 4 {
		t.Fatalf("grid size = %d, want 4", len(cells))
	}
	// Models outer, protocols inner.
	if cells[0].Protocol != "flood" || cells[1].Protocol != "pull" {
		t.Fatalf("grid order wrong: %s, %s", cells[0].Protocol, cells[1].Protocol)
	}
	if cells[0].Model != cells[1].Model || cells[0].Model == cells[2].Model {
		t.Fatalf("grid model layout wrong: %s, %s, %s", cells[0].Model, cells[1].Model, cells[2].Model)
	}
	for _, c := range cells {
		if len(c.Results) != 3 {
			t.Fatalf("cell %s × %s has %d results", c.Model, c.Protocol, len(c.Results))
		}
	}
}

func TestTrialsFactoryLevel(t *testing.T) {
	if study.Trials(nil, 0, study.TrialsOpts{}) != nil {
		t.Fatal("zero trials should be nil")
	}
	factory := func(trial int) (dyngraph.Dynamic, protocol.Protocol, int) {
		g := graph.Gnp(40, 0.08, rng.New(rng.Seed(99, uint64(trial))))
		return dyngraph.NewStatic(g), protocol.Flooding(), 0
	}
	a := study.Trials(factory, 8, study.TrialsOpts{Opts: floodOpts(200), Workers: 4})
	b := study.Trials(factory, 8, study.TrialsOpts{Opts: floodOpts(200), Workers: 2})
	if !reflect.DeepEqual(a, b) {
		t.Fatal("factory trials differ across worker counts")
	}
	if len(a) != 8 {
		t.Fatalf("got %d results", len(a))
	}
}

func TestTimesOfCountsIncomplete(t *testing.T) {
	results := study.MustRun(func() study.Study {
		s := baseStudy()
		s.Trials = 4
		return s
	}()).Results
	times, inc := study.TimesOf(results)
	if len(times)+inc != 4 {
		t.Fatalf("TimesOf loses trials: %d + %d", len(times), inc)
	}
}

func TestWorstSourcePathEndpoints(t *testing.T) {
	// On a static path, flooding from an endpoint takes n-1 steps, from
	// the middle ⌈(n-1)/2⌉: the endpoint must be the worst source.
	n := 9
	factory := func(trial, source int) (dyngraph.Dynamic, protocol.Protocol) {
		return dyngraph.NewStatic(graph.Path(n)), protocol.Flooding()
	}
	sources := []int{0, n / 2, n - 1}
	medians, worst := study.WorstSource(factory, sources, 3, study.TrialsOpts{Opts: floodOpts(100)})
	if medians[0] != float64(n-1) || medians[2] != float64(n-1) {
		t.Fatalf("endpoint medians = %v", medians)
	}
	if medians[1] != float64(n/2) {
		t.Fatalf("middle median = %v, want %d", medians[1], n/2)
	}
	if worst != 0 && worst != 2 {
		t.Fatalf("worst source index = %d, want an endpoint", worst)
	}
}

func TestWorstSourceAllFailing(t *testing.T) {
	b := graph.NewBuilder(4)
	b.AddEdge(0, 1)
	g := b.Build()
	factory := func(trial, source int) (dyngraph.Dynamic, protocol.Protocol) {
		return dyngraph.NewStatic(g), protocol.Flooding()
	}
	medians, worst := study.WorstSource(factory, []int{0, 2}, 2, study.TrialsOpts{Opts: floodOpts(20)})
	if len(medians) != 2 {
		t.Fatal("medians length wrong")
	}
	// Both sources fail on the disconnected graph; worst must point at a
	// failing source.
	if worst != 0 && worst != 1 {
		t.Fatalf("worst = %d", worst)
	}
}

func TestWriteJSONL(t *testing.T) {
	s := baseStudy()
	s.Trials = 5
	s.KeepTimeline = true
	cell := study.MustRun(s)
	var buf bytes.Buffer
	if err := cell.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	scanner := bufio.NewScanner(&buf)
	trial := 0
	for scanner.Scan() {
		var rec struct {
			Model     string `json:"model"`
			Protocol  string `json:"protocol"`
			Trial     int    `json:"trial"`
			Time      int    `json:"time"`
			Informed  int    `json:"informed"`
			Completed bool   `json:"completed"`
			Timeline  []int  `json:"timeline"`
		}
		if err := json.Unmarshal(scanner.Bytes(), &rec); err != nil {
			t.Fatalf("line %d: %v", trial, err)
		}
		if rec.Trial != trial || rec.Model != cell.Model || rec.Protocol != cell.Protocol {
			t.Fatalf("line %d header wrong: %+v", trial, rec)
		}
		want := cell.Results[trial]
		if rec.Time != want.Time || rec.Informed != want.Informed || rec.Completed != want.Completed ||
			!reflect.DeepEqual(rec.Timeline, want.Timeline) {
			t.Fatalf("line %d payload wrong: %+v vs %+v", trial, rec, want)
		}
		trial++
	}
	if trial != 5 {
		t.Fatalf("emitted %d lines, want 5", trial)
	}
}

func floodOpts(maxSteps int) flood.Opts {
	return flood.Opts{MaxSteps: maxSteps}
}
