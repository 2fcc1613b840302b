// Package bench is the experiment harness that regenerates every
// quantitative claim of the paper as a table: the experiment registry
// (E1–E18, listed by `benchtab -list` and mapped to the paper in
// docs/PAPER_MAP.md), parameter sweeps, and the shared configuration used
// by cmd/benchtab and the root bench_test.go.
package bench

import (
	"fmt"
	"io"
	"sort"

	"repro/internal/dyngraph"
	"repro/internal/flood"
	"repro/internal/model"
	"repro/internal/protocol"
	"repro/internal/rng"
	"repro/internal/stats"
	"repro/internal/study"
)

// Config selects the scale of an experiment run.
type Config struct {
	// Quick selects reduced sizes/trials for CI and testing.B usage;
	// the full configuration runs the paper-scale tables.
	Quick bool
	// Seed is the master seed; every experiment derives all randomness
	// from it, so equal (Config, experiment) pairs print identical tables.
	Seed uint64
	// Workers bounds trial parallelism (0 = GOMAXPROCS).
	Workers int
}

// Experiment is one reproducible experiment.
type Experiment struct {
	// ID is the stable identifier (e.g. "E4") used by `benchtab -exp`,
	// docs/PAPER_MAP.md and bench_test.go.
	ID string
	// Title is a one-line description.
	Title string
	// Claim cites the paper statement the experiment checks.
	Claim string
	// Run executes the experiment, writing its table to w.
	Run func(cfg Config, w io.Writer) error
}

var registry = map[string]Experiment{}

// register adds an experiment; duplicate IDs are a programming error.
func register(e Experiment) {
	if _, dup := registry[e.ID]; dup {
		panic("bench: duplicate experiment " + e.ID)
	}
	registry[e.ID] = e
}

// Get returns the experiment with the given ID.
func Get(id string) (Experiment, bool) {
	e, ok := registry[id]
	return e, ok
}

// All returns every experiment ordered by ID (E1, E2, ..., E18).
func All() []Experiment {
	out := make([]Experiment, 0, len(registry))
	for _, e := range registry {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool {
		// Numeric-aware ordering of "E<k>".
		return idNum(out[i].ID) < idNum(out[j].ID)
	})
	return out
}

func idNum(id string) int {
	n := 0
	for _, c := range id {
		if c >= '0' && c <= '9' {
			n = n*10 + int(c-'0')
		}
	}
	return n
}

// RunOne executes experiment id with a standard header.
func RunOne(id string, cfg Config, w io.Writer) error {
	e, ok := Get(id)
	if !ok {
		return fmt.Errorf("bench: unknown experiment %q", id)
	}
	fmt.Fprintf(w, "== %s: %s\n", e.ID, e.Title)
	fmt.Fprintf(w, "   claim: %s\n", e.Claim)
	if err := e.Run(cfg, w); err != nil {
		return fmt.Errorf("bench: %s failed: %w", e.ID, err)
	}
	fmt.Fprintln(w)
	return nil
}

// RunAll executes every experiment in order.
func RunAll(cfg Config, w io.Writer) error {
	for _, e := range All() {
		if err := RunOne(e.ID, cfg, w); err != nil {
			return err
		}
	}
	return nil
}

// buildModel constructs a registered model from its spec with the trial
// seed derived from the given seed words. Experiment specs are static
// program text, so spec errors are programming errors and panic.
func buildModel(spec model.Spec, base uint64, tags ...uint64) dyngraph.Dynamic {
	return model.MustBuild(spec, rng.Seed(base, tags...))
}

// edgemegSpec is the spec of a stationary two-state edge-MEG, the
// workhorse model of the Appendix A experiments.
func edgemegSpec(n int, p, q float64) model.Spec {
	return model.New("edgemeg").WithInt("n", n).WithFloat("p", p).WithFloat("q", q)
}

// waypointSpec is the spec of a steady-state random waypoint model with
// fixed speed v.
func waypointSpec(n int, l, r, v float64) model.Spec {
	return model.New("waypoint").WithInt("n", n).WithFloat("L", l).WithFloat("r", r).WithFloat("vmin", v)
}

// modelFactory builds the (graph, source) pair for one trial of a
// flooding grid; experiments that wrap or hand-build models use it with
// medianFlood instead of a registered spec.
type modelFactory func(trial int) (d dyngraph.Dynamic, source int)

// medianFlood runs trials floods through the study engine and returns the
// median completed time, the count of incomplete runs, and the full
// summary. Flooding is deterministic, so the shared protocol.Flooding()
// instance serves every trial.
func medianFlood(factory modelFactory, trials, maxSteps, workers int) (median float64, incomplete int, sum stats.Summary) {
	results := study.Trials(func(trial int) (dyngraph.Dynamic, protocol.Protocol, int) {
		d, source := factory(trial)
		return d, protocol.Flooding(), source
	}, trials, study.TrialsOpts{
		Opts:    flood.Opts{MaxSteps: maxSteps},
		Workers: workers,
	})
	times, inc := study.TimesOf(results)
	return stats.Median(times), inc, stats.Summarize(times)
}

// cellStats extracts the (median, incomplete) table cells of a study cell.
func cellStats(c study.Cell) (median float64, incomplete int) {
	return c.Times.Median, c.Incomplete
}
