// Package study is the experiment engine of the simulation API: it runs
// (model, protocol) pairs — both selected by spec strings against their
// registries — for many independent trials on a bounded worker pool, and
// reports per-cell statistics. It subsumes the old flood.Trials/Factory
// runner: every grid-style experiment (bench experiments, examples, CLIs)
// goes through this package, so trial seeding, parallelism, and result
// summarization are implemented once.
//
// Reproducibility contract: a Study derives one model seed and one
// protocol seed per trial from its master Seed via rng.Seed, builds a
// fresh model and a fresh protocol instance for every trial, and returns
// results in trial order — so equal Studies yield identical Cells for any
// Workers value. Buffers are another matter: each worker owns one
// flood.Scratch reused by every trial it runs, so a 10k-trial cell pays
// the engine's allocation cost once per worker, not once per trial.
//
// On top of the single-cell engine sits the declarative sweep layer
// (sweep.go, checkpoint.go, report.go): a Sweep declares a whole
// model×protocol grid, RunSweep executes it with JSONL checkpointing and
// crash-safe resume keyed by (model, protocol, trials, seed), and Report/
// WriteCSV/WriteMarkdown aggregate checkpoint records into the tables the
// paper reports. cmd/sweep is the CLI front end.
package study

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/dyngraph"
	"repro/internal/flood"
	"repro/internal/model"
	"repro/internal/protocol"
	"repro/internal/rng"
	"repro/internal/spec"
	"repro/internal/stats"
)

// Stream tags separating the per-trial model and protocol RNG streams
// derived from a Study's master seed.
const (
	modelStream uint64 = 0x4D4F44 // "MOD"
	protoStream uint64 = 0x50524F // "PRO"
)

// Study describes one grid cell: a registered model spec crossed with a
// registered protocol spec, run for Trials independent trials.
type Study struct {
	// Model and Protocol name registered definitions, with parameters.
	Model    spec.Spec
	Protocol spec.Spec
	// Source is the initially informed node (the paper's s).
	Source int
	// Trials is the number of independent executions; each builds a fresh
	// model and protocol from per-trial seeds.
	Trials int
	// Seed is the master seed; every trial's model and protocol streams
	// derive from it via rng.Seed.
	Seed uint64
	// Workers bounds trial parallelism; 0 means GOMAXPROCS.
	Workers int
	// MaxSteps caps each run (0 = flood.DefaultMaxSteps); KeepTimeline
	// records the full |I_t| series per trial.
	MaxSteps     int
	KeepTimeline bool
}

// Cell is the outcome of one Study: per-trial results in trial order plus
// the completed-time summary.
type Cell struct {
	// Model and Protocol are the canonical spec strings of the cell.
	Model    string
	Protocol string
	// N is the node count of the built model (0 when the study ran zero
	// trials and so never built one).
	N int
	// Results holds one entry per trial, in trial order.
	Results []flood.Result
	// Times summarizes the completion times of completed trials.
	Times stats.Summary
	// Messages and Useless summarize the per-trial message costs
	// (flood.Result.Messages/Useless) over ALL trials, completed or not —
	// an incomplete run's cost is real spend, not a missing value.
	Messages stats.Summary
	Useless  stats.Summary
	// Incomplete counts trials that hit MaxSteps (or died) uninformed.
	Incomplete int
}

// Run executes the study and returns its cell. Specs are validated before
// any trial runs; an unknown name or bad parameter fails fast.
func Run(s Study) (Cell, error) {
	if _, _, err := model.Resolve(s.Model); err != nil {
		return Cell{}, err
	}
	if _, _, err := protocol.Resolve(s.Protocol); err != nil {
		return Cell{}, err
	}
	var results []flood.Result
	var n int
	if s.Trials > 0 {
		// Model and protocol constructor errors (parameter validation
		// beyond spec types) do not depend on the seed: run trial 0
		// synchronously so they surface as errors, not worker panics; the
		// pool then covers the remaining trials with MustBuild.
		d0, err := model.Build(s.Model, rng.Seed(s.Seed, modelStream, 0))
		if err != nil {
			return Cell{}, err
		}
		n = d0.N()
		if s.Source < 0 || s.Source >= n {
			return Cell{}, fmt.Errorf("study: source %d out of range for %s (n = %d)", s.Source, s.Model, n)
		}
		p0, err := protocol.Build(s.Protocol, rng.Seed(s.Seed, protoStream, 0))
		if err != nil {
			return Cell{}, err
		}
		opts := flood.Opts{MaxSteps: s.MaxSteps, KeepTimeline: s.KeepTimeline}
		results = make([]flood.Result, 1, s.Trials)
		results[0] = p0.Run(d0, s.Source, opts)
		results = append(results, Trials(func(trial int) (dyngraph.Dynamic, protocol.Protocol, int) {
			trial++ // trial 0 already ran; the pool covers 1..Trials-1
			d := model.MustBuild(s.Model, rng.Seed(s.Seed, modelStream, uint64(trial)))
			p := protocol.MustBuild(s.Protocol, rng.Seed(s.Seed, protoStream, uint64(trial)))
			return d, p, s.Source
		}, s.Trials-1, TrialsOpts{Opts: opts, Workers: s.Workers, ScratchBytes: &scratchHighWater})...)
	}
	cell := Cell{
		Model:    s.Model.String(),
		Protocol: s.Protocol.String(),
		N:        n,
		Results:  results,
	}
	times, incomplete := TimesOf(results)
	cell.Times = stats.Summarize(times)
	cell.Incomplete = incomplete
	msgs, useless := CostsOf(results)
	cell.Messages = stats.Summarize(msgs)
	cell.Useless = stats.Summarize(useless)
	return cell, nil
}

// MustRun is Run for studies whose specs are static program text; it
// panics on error.
func MustRun(s Study) Cell {
	cell, err := Run(s)
	if err != nil {
		panic(err)
	}
	return cell
}

// Grid runs base once per (model, protocol) pair, in the given order
// (models outer, protocols inner), and returns the cells. All cells share
// base's trials/seed/workers/options, so a protocol comparison across
// models is one call.
func Grid(base Study, models, protocols []spec.Spec) ([]Cell, error) {
	cells := make([]Cell, 0, len(models)*len(protocols))
	for _, m := range models {
		for _, p := range protocols {
			s := base
			s.Model, s.Protocol = m, p
			cell, err := Run(s)
			if err != nil {
				return nil, err
			}
			cells = append(cells, cell)
		}
	}
	return cells, nil
}

// Factory builds the per-trial ingredients of one execution: a fresh
// dynamic graph, a fresh protocol instance, and the source node.
// Implementations must derive both from the trial index (rng.Seed) so
// trials are independent and the whole run is reproducible; randomized
// protocols must not be shared across trials.
type Factory func(trial int) (d dyngraph.Dynamic, p protocol.Protocol, source int)

// TrialsOpts configures a factory-level trial run.
type TrialsOpts struct {
	// Opts configures each execution. Trials gives every worker a private
	// flood.Scratch, overriding Opts.Scratch: one worker's buffers serve
	// all its trials instead of being reallocated per trial, and a
	// caller-supplied scratch shared across workers would race.
	Opts flood.Opts
	// Workers bounds the number of concurrent trials; 0 means GOMAXPROCS.
	Workers int
	// ScratchBytes, when non-nil, receives (atomic max) the largest
	// per-worker scratch footprint after each worker drains its trials —
	// one flood.Scratch.Bytes call per worker, entirely off the trial hot
	// path, feeding the telemetry scratch_bytes gauge.
	ScratchBytes *atomic.Int64
}

// Trials runs `trials` independent executions in a bounded worker pool and
// returns per-trial results in trial order. It is the factory-level core
// under Run, for experiments whose models are built by hand rather than
// registered (custom chains, wrapped instances). Results are identical for
// any Workers value: engines guarantee results never depend on the scratch
// state each worker carries across its trials.
func Trials(factory Factory, trials int, opts TrialsOpts) []flood.Result {
	if trials <= 0 {
		return nil
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > trials {
		workers = trials
	}

	results := make([]flood.Result, trials)
	var wg sync.WaitGroup
	work := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			wopts := opts.Opts
			wopts.Scratch = flood.NewScratch()
			for trial := range work {
				d, p, source := factory(trial)
				results[trial] = p.Run(d, source, wopts)
			}
			if opts.ScratchBytes != nil {
				atomicMax(opts.ScratchBytes, wopts.Scratch.Bytes())
			}
			// Harvest the engines' churn stream — one read per worker drain,
			// off the trial hot path, like the scratch footprint.
			if b, d, m, s := wopts.Scratch.ChurnTotals(); s > 0 {
				churnBorn.Add(b)
				churnDied.Add(d)
				churnMoved.Add(m)
				churnSteps.Add(s)
			}
		}()
	}
	for trial := 0; trial < trials; trial++ {
		work <- trial
	}
	close(work)
	wg.Wait()
	return results
}

// scratchHighWater tracks the largest per-worker flood.Scratch footprint
// observed by any study run in this process. It is deliberately NOT part
// of Cell: scratch capacities depend on how trials were packed onto
// workers, and a Cell must stay a pure function of the Study for any
// Workers value. A process-wide high-water mark is exactly what the
// telemetry scratch_bytes gauge wants anyway.
var scratchHighWater atomic.Int64

// ScratchHighWater returns the largest per-worker scratch footprint
// (flood.Scratch.Bytes) observed by any study run so far in this process
// — the telemetry scratch_bytes gauge source. Zero until a run with at
// least two trials completes (trial 0 runs without a pooled scratch).
func ScratchHighWater() int64 { return scratchHighWater.Load() }

// churnBorn/churnDied/churnMoved/churnSteps accumulate, process-wide, the
// churn the delta flooding engines streamed through study workers: edges
// born, edges died, nodes moved (models with dyngraph.MoveReporter), and
// model steps consumed. Like scratchHighWater they are deliberately NOT
// part of Cell — they aggregate over whatever mix of runs the process
// performed, which is exactly the shape of a telemetry gauge and nothing
// else.
var churnBorn, churnDied, churnMoved, churnSteps atomic.Int64

// ChurnBornPerStep returns the mean number of edges born per model step
// across every pooled trial the process has run, whatever its protocol
// (rounded to the nearest integer) — the born_per_step telemetry gauge
// source. Zero until a pooled trial completes, like ScratchHighWater.
func ChurnBornPerStep() int64 { return ratioRounded(&churnBorn) }

// ChurnDiedPerStep is ChurnBornPerStep for edge deaths (died_per_step).
func ChurnDiedPerStep() int64 { return ratioRounded(&churnDied) }

// ChurnMovedPerStep is ChurnBornPerStep for node motion (moved_per_step):
// the mean number of nodes that changed position or state per model step,
// reported only by models exposing dyngraph.MoveReporter (the geometric
// mobility family and the node-MEGs).
func ChurnMovedPerStep() int64 { return ratioRounded(&churnMoved) }

// ratioRounded divides a churn total by the step total, rounding half up.
func ratioRounded(total *atomic.Int64) int64 {
	steps := churnSteps.Load()
	if steps == 0 {
		return 0
	}
	return (total.Load() + steps/2) / steps
}

// atomicMax raises *a to v if v is larger, preserving concurrent raises.
func atomicMax(a *atomic.Int64, v int64) {
	for {
		cur := a.Load()
		if v <= cur || a.CompareAndSwap(cur, v) {
			return
		}
	}
}

// TimesOf extracts the completion times of completed runs and the count of
// incomplete ones.
func TimesOf(results []flood.Result) (times []float64, incomplete int) {
	times = make([]float64, 0, len(results))
	for _, r := range results {
		if r.Completed {
			times = append(times, float64(r.Time))
		} else {
			incomplete++
		}
	}
	return times, incomplete
}

// CostsOf extracts the per-trial message costs, over all trials.
func CostsOf(results []flood.Result) (msgs, useless []float64) {
	msgs = make([]float64, len(results))
	useless = make([]float64, len(results))
	for i, r := range results {
		msgs[i] = float64(r.Messages)
		useless[i] = float64(r.Useless)
	}
	return msgs, useless
}

// trialJSON is the JSON-lines record of one trial.
type trialJSON struct {
	Model        string  `json:"model"`
	Protocol     string  `json:"protocol"`
	Trial        int     `json:"trial"`
	Time         int     `json:"time"`
	HalfTime     int     `json:"half_time"`
	Informed     int     `json:"informed"`
	Completed    bool    `json:"completed"`
	Messages     int64   `json:"messages"`
	Useless      int64   `json:"useless"`
	Timeline     []int   `json:"timeline,omitempty"`
	CostTimeline []int64 `json:"cost_timeline,omitempty"`
}

// WriteJSONL emits one JSON object per trial, in trial order — the
// machine-readable form of the cell for downstream tooling. Timelines are
// included when the study recorded them.
func (c Cell) WriteJSONL(w io.Writer) error {
	enc := json.NewEncoder(w)
	for trial, r := range c.Results {
		rec := trialJSON{
			Model:        c.Model,
			Protocol:     c.Protocol,
			Trial:        trial,
			Time:         r.Time,
			HalfTime:     r.HalfTime,
			Informed:     r.Informed,
			Completed:    r.Completed,
			Messages:     r.Messages,
			Useless:      r.Useless,
			Timeline:     r.Timeline,
			CostTimeline: r.CostTimeline,
		}
		if err := enc.Encode(rec); err != nil {
			return fmt.Errorf("study: emitting trial %d: %w", trial, err)
		}
	}
	return nil
}
