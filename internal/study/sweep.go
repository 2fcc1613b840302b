package study

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"time"

	"repro/internal/model"
	"repro/internal/protocol"
	"repro/internal/spec"
	"repro/internal/telemetry"
)

// Sweep is the declarative form of a grid campaign: every model spec
// crossed with every protocol spec, each cell run for Trials trials from
// the shared master Seed. It is the unit cmd/sweep reads from a JSON file,
// where specs may be written either as CLI strings ("edgemeg:n=256,p=0.01")
// or as spec objects ({"name":"edgemeg","params":{"n":256,"p":0.01}}):
//
//	{
//	  "models":    ["edgemeg:n=256,p=0.00625,q=0.19375"],
//	  "protocols": ["flood", "push:k=3", "pushpull:k=1"],
//	  "trials":    20,
//	  "seed":      1,
//	  "max_steps": 65536
//	}
//
// Cell enumeration order is deterministic — models outer, protocols inner,
// exactly Grid's order — and each cell's trial streams derive only from
// (Seed, trial), so a sweep's results are a pure function of the Sweep
// value, independent of Workers, interruption, and resume.
type Sweep struct {
	Models    []spec.Spec `json:"models"`
	Protocols []spec.Spec `json:"protocols"`
	// Trials is the per-cell trial count.
	Trials int `json:"trials"`
	// Seed is the master seed shared by every cell.
	Seed uint64 `json:"seed"`
	// Source is the initially informed node (default 0).
	Source int `json:"source,omitempty"`
	// MaxSteps caps each run (0 = flood.DefaultMaxSteps).
	MaxSteps int `json:"max_steps,omitempty"`
	// Workers bounds per-cell trial parallelism (0 = GOMAXPROCS). It
	// affects wall-clock only, never results.
	Workers int `json:"workers,omitempty"`
}

// sweepJSON is the wire form of Sweep: the spec lists accept both CLI
// strings and spec objects.
type sweepJSON struct {
	Models    []json.RawMessage `json:"models"`
	Protocols []json.RawMessage `json:"protocols"`
	Trials    int               `json:"trials"`
	Seed      uint64            `json:"seed"`
	Source    int               `json:"source"`
	MaxSteps  int               `json:"max_steps"`
	Workers   int               `json:"workers"`
}

// UnmarshalJSON implements json.Unmarshaler, accepting each spec as either
// a CLI string or a spec object.
func (sw *Sweep) UnmarshalJSON(data []byte) error {
	var in sweepJSON
	if err := json.Unmarshal(data, &in); err != nil {
		return err
	}
	models, err := parseSpecList("models", in.Models)
	if err != nil {
		return err
	}
	protocols, err := parseSpecList("protocols", in.Protocols)
	if err != nil {
		return err
	}
	*sw = Sweep{
		Models:    models,
		Protocols: protocols,
		Trials:    in.Trials,
		Seed:      in.Seed,
		Source:    in.Source,
		MaxSteps:  in.MaxSteps,
		Workers:   in.Workers,
	}
	return nil
}

func parseSpecList(field string, raws []json.RawMessage) ([]spec.Spec, error) {
	specs := make([]spec.Spec, 0, len(raws))
	for i, raw := range raws {
		var s spec.Spec
		var text string
		if err := json.Unmarshal(raw, &text); err == nil {
			s, err = spec.Parse(text)
			if err != nil {
				return nil, fmt.Errorf("sweep: %s[%d]: %w", field, i, err)
			}
		} else if err := json.Unmarshal(raw, &s); err != nil {
			return nil, fmt.Errorf("sweep: %s[%d]: want a spec string or object: %w", field, i, err)
		}
		specs = append(specs, s)
	}
	return specs, nil
}

// ParseSweep reads a sweep definition from JSON and validates it.
func ParseSweep(data []byte) (Sweep, error) {
	var sw Sweep
	if err := json.Unmarshal(data, &sw); err != nil {
		return Sweep{}, fmt.Errorf("sweep: %w", err)
	}
	if err := sw.Validate(); err != nil {
		return Sweep{}, err
	}
	return sw, nil
}

// ParseSweepFile reads and validates a sweep definition file.
func ParseSweepFile(path string) (Sweep, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Sweep{}, err
	}
	sw, err := ParseSweep(data)
	if err != nil {
		return Sweep{}, fmt.Errorf("%s: %w", path, err)
	}
	return sw, nil
}

// Validate checks the grid axes against the registries and the scalar
// fields for sanity, so a sweep fails before its first trial, not in cell
// 40 of 60.
func (sw Sweep) Validate() error {
	if len(sw.Models) == 0 {
		return fmt.Errorf("sweep: no models")
	}
	if len(sw.Protocols) == 0 {
		return fmt.Errorf("sweep: no protocols")
	}
	if sw.Trials <= 0 {
		return fmt.Errorf("sweep: trials must be positive, got %d", sw.Trials)
	}
	// Duplicate axis entries would rerun identical cells and emit
	// duplicate report rows, so they are grid-definition errors.
	seenModels := map[string]bool{}
	for _, m := range sw.Models {
		if _, _, err := model.Resolve(m); err != nil {
			return fmt.Errorf("sweep: %w", err)
		}
		text := m.String()
		if seenModels[text] {
			return fmt.Errorf("sweep: model %q listed twice", text)
		}
		seenModels[text] = true
	}
	seenProtocols := map[string]bool{}
	for _, p := range sw.Protocols {
		if _, _, err := protocol.Resolve(p); err != nil {
			return fmt.Errorf("sweep: %w", err)
		}
		text := p.String()
		if seenProtocols[text] {
			return fmt.Errorf("sweep: protocol %q listed twice", text)
		}
		seenProtocols[text] = true
	}
	return nil
}

// study returns the Study of one cell.
func (sw Sweep) study(m, p spec.Spec) Study {
	return Study{
		Model:    m,
		Protocol: p,
		Source:   sw.Source,
		Trials:   sw.Trials,
		Seed:     sw.Seed,
		Workers:  sw.Workers,
		MaxSteps: sw.MaxSteps,
	}
}

// key returns the checkpoint key of one cell; Keys and RunSweep share it
// so skip decisions and key enumeration cannot diverge.
func (sw Sweep) key(m, p spec.Spec) Key {
	return Key{Model: m.String(), Protocol: p.String(), Trials: sw.Trials, Seed: sw.Seed}
}

// Keys enumerates the sweep's cell keys in execution order (models outer,
// protocols inner — Grid's order).
func (sw Sweep) Keys() []Key {
	keys := make([]Key, 0, len(sw.Models)*len(sw.Protocols))
	for _, m := range sw.Models {
		for _, p := range sw.Protocols {
			keys = append(keys, sw.key(m, p))
		}
	}
	return keys
}

// CheckRecord verifies that rec is a legitimate result for one of the
// sweep's cells: internally consistent, keyed to a cell the sweep
// enumerates, and computed under the sweep-wide Source and MaxSteps (the
// Key omits both, so a record from an edited sweep file — or a confused
// remote worker — could otherwise smuggle in results computed under
// different caps). RunSweep applies it to every resumed checkpoint record
// and the campaign server applies it to every completion a worker posts.
func (sw Sweep) CheckRecord(rec CellRecord) error {
	if err := rec.Validate(); err != nil {
		return err
	}
	key := rec.Key()
	found := false
	for _, m := range sw.Models {
		for _, p := range sw.Protocols {
			if sw.key(m, p) == key {
				found = true
			}
		}
	}
	if !found {
		return fmt.Errorf("sweep: record %s is not a cell of this sweep", key)
	}
	if rec.Source != sw.Source || rec.MaxSteps != sw.MaxSteps {
		return fmt.Errorf(
			"sweep: cell %s ran with source=%d max_steps=%d, sweep wants source=%d max_steps=%d",
			key, rec.Source, rec.MaxSteps, sw.Source, sw.MaxSteps)
	}
	return nil
}

// ErrStopped is returned by RunSweepOpts when its Stop channel fired: the
// in-flight cell was finished and checkpointed, no further cell started,
// and the records completed so far accompany the error. It is a clean
// interruption, not a failure — resuming from the checkpoint continues
// exactly where the run left off.
var ErrStopped = errors.New("study: sweep stopped before completion")

// SweepOpts configures RunSweepOpts beyond the sweep definition itself.
// Every field is optional; the zero value runs the whole grid silently.
type SweepOpts struct {
	// Done maps already-completed cells (a loaded checkpoint) to their
	// records; cells found here are reused, not rerun.
	Done map[Key]CellRecord
	// Sink receives each NEWLY completed cell's record before the next
	// cell starts, so an interrupted sweep loses at most the cell in
	// flight.
	Sink func(CellRecord) error
	// Progress, when non-nil, is called once per cell in grid order just
	// before the cell executes or is skipped: index is the 0-based cell
	// index, total the grid size, and resumed reports whether the cell is
	// being reused from Done.
	Progress func(key Key, index, total int, resumed bool)
	// Stop, when non-nil, makes the run return ErrStopped — after
	// finishing and sinking the in-flight cell — as soon as the channel is
	// closed or receives. This is the graceful-shutdown hook: a SIGINT
	// costs at most the wall time of one cell and zero completed work.
	Stop <-chan struct{}
	// Telemetry, when non-nil, receives sweep progress counters
	// (sweep_cells_total, sweep_cells_resumed_total, sweep_trials_total,
	// sweep_steps_total over completed trials, sweep_wall_ms_total, plus
	// the message-cost throughput counters messages_total/useless_total)
	// and a scratch_bytes gauge
	// tracking the largest per-worker engine footprint seen so far. All
	// updates happen between cells — never inside the spreading hot path —
	// and each freshly completed cell triggers one extra sample so short
	// sweeps still leave a capture trail.
	Telemetry *telemetry.Collector
}

// RunSweep executes the sweep's grid, skipping every cell whose key is
// already present in done (a loaded checkpoint) and streaming each NEWLY
// completed cell's record to sink before the next cell starts — so an
// interrupted sweep loses at most the cell in flight. Either done or sink
// may be nil. It returns the records of all cells, done and new, in grid
// order; because cell results depend only on the Sweep value, the merged
// records — and every report derived from them — are identical whether the
// sweep ran in one pass or across any sequence of interruptions, for any
// Workers values.
func RunSweep(sw Sweep, done map[Key]CellRecord, sink func(CellRecord) error) ([]CellRecord, error) {
	return RunSweepOpts(sw, SweepOpts{Done: done, Sink: sink})
}

// RunSweepOpts is RunSweep with progress reporting and graceful stop; see
// SweepOpts. Each newly executed cell's record carries the wall-clock
// milliseconds it took (CellRecord.WallMS); resumed records keep whatever
// their checkpoint recorded.
func RunSweepOpts(sw Sweep, opts SweepOpts) ([]CellRecord, error) {
	if err := sw.Validate(); err != nil {
		return nil, err
	}
	var cellsDone, cellsResumed, trialsDone, stepsDone, wallMS, msgsTotal, uselessTotal *telemetry.Counter
	if opts.Telemetry != nil {
		cellsDone = opts.Telemetry.Counter("sweep_cells_total")
		cellsResumed = opts.Telemetry.Counter("sweep_cells_resumed_total")
		trialsDone = opts.Telemetry.Counter("sweep_trials_total")
		stepsDone = opts.Telemetry.Counter("sweep_steps_total")
		wallMS = opts.Telemetry.Counter("sweep_wall_ms_total")
		msgsTotal = opts.Telemetry.Counter("messages_total")
		uselessTotal = opts.Telemetry.Counter("useless_total")
		opts.Telemetry.Gauge("scratch_bytes", ScratchHighWater)
		opts.Telemetry.Gauge("born_per_step", ChurnBornPerStep)
		opts.Telemetry.Gauge("died_per_step", ChurnDiedPerStep)
		opts.Telemetry.Gauge("moved_per_step", ChurnMovedPerStep)
	}
	total := len(sw.Models) * len(sw.Protocols)
	records := make([]CellRecord, 0, total)
	index := 0
	for _, m := range sw.Models {
		for _, p := range sw.Protocols {
			key := sw.key(m, p)
			rec, resumed := opts.Done[key]
			if !resumed && opts.Stop != nil {
				// Checked before the cell is announced or started:
				// stopping costs zero compute, and resumed cells are
				// still merged for free on the way out.
				select {
				case <-opts.Stop:
					return records, ErrStopped
				default:
				}
			}
			if opts.Progress != nil {
				opts.Progress(key, index, total, resumed)
			}
			index++
			if resumed {
				if err := sw.CheckRecord(rec); err != nil {
					return records, fmt.Errorf("%w; discard the checkpoint (-fresh) to rerun", err)
				}
				if cellsResumed != nil {
					cellsResumed.Add(1)
				}
				records = append(records, rec)
				continue
			}
			s := sw.study(m, p)
			start := time.Now()
			cell, err := Run(s)
			if err != nil {
				return records, err
			}
			rec = Record(s, cell)
			rec.WallMS = time.Since(start).Milliseconds()
			if opts.Sink != nil {
				if err := opts.Sink(rec); err != nil {
					return records, err
				}
			}
			records = append(records, rec)
			if opts.Telemetry != nil {
				cellsDone.Add(1)
				trialsDone.Add(int64(len(cell.Results)))
				// Cost throughput, summed per completed cell — between
				// cells, never inside the spreading hot path.
				var steps, msgs, useless int64
				for _, r := range cell.Results {
					if r.Completed { // a cut-off trial's Time is -1
						steps += int64(r.Time)
					}
					msgs += r.Messages
					useless += r.Useless
				}
				stepsDone.Add(steps)
				msgsTotal.Add(msgs)
				uselessTotal.Add(useless)
				wallMS.Add(rec.WallMS)
				opts.Telemetry.SampleNow()
			}
		}
	}
	return records, nil
}
