package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"
)

// Toy sizes of the four workloads: the same code paths in a fraction of a
// second.
var toyWorkloads = []workload{
	{"sweep-dense512", func(b *bench) error {
		return runSweep(b, sweepConfig{
			Models:      [2]string{"edgemeg:n=48,p=0.02,q=0.2", "edgemeg:n=48,p=0.2,q=0.8"},
			Trials:      3,
			SetupReps:   2,
			LadderSteps: 8,
		})
	}},
	{"flood-meg-1m", func(b *bench) error {
		return runFlood(b, floodConfig{Spec: "edgemeg:n=4000,p=5e-6,q=0.01,stream=v2",
			Rounds: 8, WarmWindows: 1, MinWindows: 2, SetupReps: 2})
	}},
	{"flood-waypoint-64k", func(b *bench) error {
		return runFlood(b, floodConfig{Spec: "waypoint:n=256,L=16,r=1,vmin=1,vmax=2,pause=2",
			Rounds: 8, WarmWindows: 1, MinWindows: 2, SetupReps: 2})
	}},
	{"farm-loopback", func(b *bench) error {
		return runFarm(b, farmConfig{Models: 12, MinN: 12, MaxN: 20, SetupReps: 2, LadderSteps: 8})
	}},
}

// runToy runs a toy workload for no time at all, so that every loop runs
// its minimum.
func runToy(t *testing.T, w workload, traced bool) *result {
	t.Helper()
	spans := ""
	if traced {
		spans = filepath.Join(t.TempDir(), "spans.jsonl")
	}
	r := runWorkload(w, 1, 0, traced, spans)
	for _, c := range r.Checks {
		if c.Failed > 0 {
			t.Errorf("%s traced=%v: check %s failed %d of %d: %s", w.name, traced, c.Name, c.Failed, c.Attempted, c.First)
		}
	}
	return r
}

// TestWorkloads runs every workload at toy size, untraced and traced, and
// checks that each reports every metric the summary needs with its unit,
// that every correctness check passes, and that tracing leaves the
// outputs unchanged.
func TestWorkloads(t *testing.T) {
	t.Setenv("TMPDIR", t.TempDir())
	for _, w := range toyWorkloads {
		t.Run(w.name, func(t *testing.T) {
			plain := runToy(t, w, false)
			traced := runToy(t, w, true)
			for _, m := range endToEnd {
				if got, ok := plain.EndToEnd[m.name]; !ok || got.Unit != m.unit || !(got.Value > 0) {
					t.Errorf("end-to-end %s = %+v, want a positive value in %s", m.name, got, m.unit)
				}
			}
			for _, m := range perLayer {
				if got, ok := traced.PerLayer[m.name]; !ok || got.Unit != m.unit {
					t.Errorf("per-layer %s = %+v, want a value in %s", m.name, got, m.unit)
				}
			}
			if !plain.Correct || !traced.Correct || plain.Attempted == 0 {
				t.Errorf("correct = %v/%v after %d checked items", plain.Correct, traced.Correct, plain.Attempted)
			}
			if plain.Digest == "" || plain.Digest != traced.Digest {
				t.Errorf("digest untraced %q, traced %q", plain.Digest, traced.Digest)
			}
			if traced.Spans == "" {
				t.Fatal("traced run wrote no span file")
			}
			checkSpanFile(t, traced.Spans)
		})
	}
}

// checkSpanFile checks that no span has negative self time and that self
// times sum to the root span's duration.
func checkSpanFile(t *testing.T, path string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var total float64
	var root int64 = -1
	n := 0
	dec := json.NewDecoder(bytes.NewReader(data))
	for dec.More() {
		var s struct {
			span
			SelfNS int64 `json:"self_ns"`
		}
		if err := dec.Decode(&s); err != nil {
			t.Fatal(err)
		}
		if s.SelfNS < 0 {
			t.Errorf("span %d (%s) has self time %d", s.ID, s.Name, s.SelfNS)
		}
		if s.Parent < 0 {
			if root >= 0 {
				t.Errorf("second root span %d (%s)", s.ID, s.Name)
			}
			root = s.End - s.Start
		}
		total += float64(s.SelfNS)
		n++
	}
	// Self times are written truncated to whole nanoseconds.
	if root < 0 || math.Abs(total-float64(root)) > float64(n) {
		t.Errorf("self times sum to %.0f ns, root span lasts %d ns", total, root)
	}
}

func TestSelfTimesShareOverlap(t *testing.T) {
	spans := []span{
		{Name: "root", ID: 0, Parent: -1, Start: 0, End: 100},
		{Name: "a", ID: 1, Parent: 0, Start: 10, End: 60},
		{Name: "b", ID: 2, Parent: 0, Start: 20, End: 80},
		{Name: "a1", ID: 3, Parent: 1, Start: 30, End: 40},
		{Name: "empty", ID: 4, Parent: 2, Start: 80, End: 80},
	}
	self, err := selfTimes(spans)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{30, 25, 40, 5, 0}
	for i := range want {
		if math.Abs(self[i]-want[i]) > 1e-9 {
			t.Errorf("self[%s] = %v, want %v", spans[i].Name, self[i], want[i])
		}
	}
	spans[3].End = 70 // a1 outlives its parent
	if _, err := selfTimes(spans); err == nil {
		t.Error("selfTimes accepted a child outside its parent")
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if got := quartiles(xs); got != [3]float64{2.75, 5.5, 8.25} {
		t.Errorf("quartiles = %v", got)
	}
	// statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
	if got := quartiles([]float64{1, 2, 3, 4}); got != [3]float64{1.25, 2.5, 3.75} {
		t.Errorf("quartiles = %v", got)
	}
}

func TestVerdict(t *testing.T) {
	lower := boundDef{Name: "setup_s", Better: "lower", Bound: 0.1}
	a := []float64{100, 101, 99, 100, 102}
	for _, tc := range []struct {
		b    []float64
		def  boundDef
		want string
	}{
		{[]float64{104, 105, 103, 104, 106}, lower, "pass"},
		{[]float64{120, 121, 119, 120, 122}, lower, "regressed"},
		{[]float64{60, 100, 140, 90, 120}, lower, "unresolved"},
		{[]float64{80, 81, 79, 80, 82}, boundDef{Better: "higher", Bound: 0.1}, "regressed"},
		{[]float64{50, 60, 70, 80, 90}, lower, "pass"}, // wide, but every run better
	} {
		if got := verdict(a, tc.b, tc.def); got != tc.want {
			t.Errorf("verdict(%v, %v) = %s, want %s", tc.b, tc.def.Better, got, tc.want)
		}
	}
}

// TestBenchmarkJSONMatchesTables pins BENCHMARK.json's metric lists to
// the ones the benchmark reports.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []boundDef `json:"end_to_end"`
		PerLayer []boundDef `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	same := func(kind string, got []boundDef, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the benchmark %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d] = %s %s, want %s %s", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", doc.EndToEnd, endToEnd)
	same("per_layer", doc.PerLayer, perLayer)
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark %d", len(doc.Workloads), len(workloads))
	}
	for i, w := range doc.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d = %s, want %s", i, w.Name, workloads[i].name)
		}
	}
}
