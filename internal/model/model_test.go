package model_test

import (
	"encoding/json"
	"reflect"
	"testing"

	"repro/internal/model"
	_ "repro/internal/model/all"
)

func TestParseString(t *testing.T) {
	cases := []struct {
		in   string
		want model.Spec
	}{
		{"edgemeg", model.Spec{Name: "edgemeg"}},
		{"edgemeg:n=512,p=0.004", model.New("edgemeg").With("n", "512").With("p", "0.004")},
		{" walk : m = 8 , stay = 0.5 ", model.New("walk").With("m", "8").With("stay", "0.5")},
	}
	for _, c := range cases {
		got, err := model.Parse(c.in)
		if err != nil {
			t.Fatalf("Parse(%q): %v", c.in, err)
		}
		if got.Name != c.want.Name || !reflect.DeepEqual(got.Params, c.want.Params) {
			t.Errorf("Parse(%q) = %+v, want %+v", c.in, got, c.want)
		}
		// String must re-parse to the same spec.
		back, err := model.Parse(got.String())
		if err != nil {
			t.Fatalf("Parse(String(%q)): %v", c.in, err)
		}
		if back.Name != got.Name || !reflect.DeepEqual(back.Params, got.Params) {
			t.Errorf("String round-trip of %q: got %+v", c.in, back)
		}
	}
}

func TestParseErrors(t *testing.T) {
	for _, in := range []string{"", "  ", "edgemeg:n", "edgemeg:=3", "edgemeg:n=1,n=2"} {
		if _, err := model.Parse(in); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", in)
		}
	}
}

func TestJSONRoundTrip(t *testing.T) {
	spec := model.New("edgemeg").WithInt("n", 512).WithFloat("p", 0.004).WithBool("dense", true)
	data, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	var back model.Spec
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Name != spec.Name || !reflect.DeepEqual(back.Params, spec.Params) {
		t.Errorf("JSON round-trip: got %+v, want %+v", back, spec)
	}
}

func TestJSONAcceptsScalars(t *testing.T) {
	raw := `{"model": "edgemeg", "params": {"n": 512, "p": 0.004, "dense": true, "init": "empty"}}`
	var spec model.Spec
	if err := json.Unmarshal([]byte(raw), &spec); err != nil {
		t.Fatal(err)
	}
	want := model.New("edgemeg").With("n", "512").With("p", "0.004").
		With("dense", "true").With("init", "empty")
	if !reflect.DeepEqual(spec.Params, want.Params) {
		t.Errorf("got params %v, want %v", spec.Params, want.Params)
	}
	if _, err := model.Build(spec, 1); err != nil {
		t.Errorf("building JSON-decoded spec: %v", err)
	}
}

func TestBuildErrors(t *testing.T) {
	cases := []model.Spec{
		model.New("no-such-model"),
		model.New("edgemeg").With("bogus", "1"),    // undeclared parameter
		model.New("edgemeg").With("n", "many"),     // type mismatch
		model.New("edgemeg").With("n", "1"),        // model validation (n >= 2)
		model.New("edgemeg").With("init", "warm"),  // bad enum
		model.New("static").With("topology", "?!"), // bad topology
		// Rates whose complement rounds to 1: the geometric samplers would
		// draw every gap as 0 and turn them into certainties.
		model.New("edgemeg").With("p", "1e-17").With("init", "empty"),
		model.New("edgemeg").With("p", "1e-17").With("stream", "v2"),
		model.New("edgemeg").With("q", "1e-17").With("stream", "v2"),
		model.New("edgemeg").With("p", "1e-17").With("dense", "true"),
	}
	for _, spec := range cases {
		if _, err := model.Build(spec, 1); err == nil {
			t.Errorf("Build(%v) succeeded, want error", spec)
		}
	}
}

// TestFlagsToBuildRoundTrip exercises the full CLI path: a flag-style
// string parses to a Spec, the Spec renders canonically, and both the
// original and re-parsed specs build the same deterministic model.
func TestFlagsToBuildRoundTrip(t *testing.T) {
	for _, text := range []string{
		"edgemeg:n=64,p=0.05,q=0.3",
		"edgemeg4:n=32",
		"waypoint:n=50,L=10,r=1.5,vmin=1",
		"direction:n=50,L=10,r=1.5",
		"walk:n=30,m=8",
		"dwaypoint:n=10,m=4",
		"paths:n=16,m=6,family=l",
		"static:topology=gnp,n=40,p=0.2",
	} {
		spec, err := model.Parse(text)
		if err != nil {
			t.Fatalf("Parse(%q): %v", text, err)
		}
		reparsed, err := model.Parse(spec.String())
		if err != nil {
			t.Fatalf("Parse(String) of %q: %v", text, err)
		}
		a, err := model.Build(spec, 7)
		if err != nil {
			t.Fatalf("Build(%q): %v", text, err)
		}
		b, err := model.Build(reparsed, 7)
		if err != nil {
			t.Fatalf("Build(reparsed %q): %v", text, err)
		}
		if a.N() != b.N() {
			t.Fatalf("%q: node counts differ after round trip", text)
		}
		// Equal (spec, seed) must produce identical trajectories.
		for step := 0; step < 3; step++ {
			ea, eb := edgeSet(a), edgeSet(b)
			if !reflect.DeepEqual(ea, eb) {
				t.Fatalf("%q: snapshots diverge at step %d", text, step)
			}
			a.Step()
			b.Step()
		}
	}
}
