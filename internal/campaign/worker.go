package campaign

import (
	"context"
	"fmt"
	"log"
	"time"

	"repro/internal/spec"
	"repro/internal/study"
	"repro/internal/telemetry"
)

// WorkerOpts configures one worker process's lease loop.
type WorkerOpts struct {
	// Name identifies the worker to the server (logs only).
	Name string
	// Workers is the per-cell trial parallelism handed to study.Run
	// (0 = GOMAXPROCS). It affects wall-clock only, never results.
	Workers int
	// Poll is the idle re-poll interval when the server has no pending
	// cell (default 2s).
	Poll time.Duration
	// Drain makes the loop exit cleanly once the server reports every
	// campaign complete; without it the worker polls forever, waiting for
	// future submissions (the long-lived farm deployment mode).
	Drain bool
	// Hold injects a pause between leasing a cell and running it — a
	// fault-injection aid: killing the worker inside the hold window is a
	// deterministic "died mid-cell" for lease-expiry tests. Zero in
	// production.
	Hold time.Duration
	// Log receives progress lines; nil silences the worker.
	Log *log.Logger
	// Telemetry, when non-nil, receives worker-side counters
	// (worker_cells_total, worker_duplicates_total,
	// worker_cell_wall_ms_total, worker_idle_polls_total) plus one sample
	// per completed cell, so a worker's capture shows throughput even when
	// cells outlast the ticker interval.
	Telemetry *telemetry.Collector
}

func (o WorkerOpts) poll() time.Duration {
	if o.Poll > 0 {
		return o.Poll
	}
	return 2 * time.Second
}

func (o WorkerOpts) logf(format string, args ...any) {
	if o.Log != nil {
		o.Log.Printf(format, args...)
	}
}

// Work runs the worker loop: lease a cell, execute it with study.Run,
// post the record, repeat. It returns the number of cells completed.
//
// Shutdown semantics: when ctx is cancelled while a cell is in flight the
// cell is finished and completed first (study.Run is not preemptible, and
// a computed result should never be discarded); when cancelled while
// holding an unstarted lease, the lease is released so another worker can
// take the cell immediately instead of waiting out the TTL; when
// cancelled while idle, the loop returns at once. A worker that dies
// without any of this — kill -9, OOM, power loss — is handled entirely by
// lease expiry on the server.
//
// Every trial a worker runs reuses its per-worker flood.Scratch through
// study.Run's pool, so farm workers get the same zero-allocation warm
// path as local sweeps.
func Work(ctx context.Context, cl *Client, opts WorkerOpts) (completed int, err error) {
	var cellsDone, dupes, wallMS, idlePolls *telemetry.Counter
	if opts.Telemetry != nil {
		cellsDone = opts.Telemetry.Counter("worker_cells_total")
		dupes = opts.Telemetry.Counter("worker_duplicates_total")
		wallMS = opts.Telemetry.Counter("worker_cell_wall_ms_total")
		idlePolls = opts.Telemetry.Counter("worker_idle_polls_total")
		opts.Telemetry.Gauge("scratch_bytes", study.ScratchHighWater)
	}
	for {
		if ctx.Err() != nil {
			return completed, nil
		}
		l, status, err := cl.Lease(ctx, opts.Name)
		if err != nil {
			if ctx.Err() != nil {
				return completed, nil
			}
			return completed, err
		}
		switch status {
		case StatusLeased:
			// fall through to execution below
		case StatusDrained:
			if opts.Drain {
				opts.logf("worker %s: all campaigns complete, draining", opts.Name)
				return completed, nil
			}
			fallthrough
		case StatusIdle:
			if idlePolls != nil {
				idlePolls.Add(1)
			}
			select {
			case <-ctx.Done():
				return completed, nil
			case <-time.After(opts.poll()):
			}
			continue
		default:
			return completed, fmt.Errorf("campaign: server returned unknown lease status %q", status)
		}

		if opts.Hold > 0 {
			select {
			case <-ctx.Done():
				// Cancelled before starting: hand the cell back rather
				// than making the farm wait out the lease TTL. Release is
				// best-effort — expiry covers a failed call.
				releaseCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
				_ = cl.Release(releaseCtx, l.Campaign, l.Token)
				cancel()
				opts.logf("worker %s: released %s on shutdown", opts.Name, l.Cell.Key())
				return completed, nil
			case <-time.After(opts.Hold):
			}
		}

		rec, err := runCell(l.Cell, opts.Workers)
		if err != nil {
			// The cell itself is unrunnable by this worker (e.g. version
			// skew in registered model names). Release and stop — retrying
			// locally would spin.
			_ = cl.Release(ctx, l.Campaign, l.Token)
			return completed, fmt.Errorf("campaign: running cell %s: %w", l.Cell.Key(), err)
		}
		// Completion must survive a shutdown signal, whether it lands
		// before the post or while it is in flight: the result is computed
		// and the server may already have recorded it, so the post never
		// inherits ctx's cancellation — only a bound, so a dead server
		// can't hang shutdown.
		compCtx, cancel := context.WithTimeout(context.WithoutCancel(ctx), 30*time.Second)
		duplicate, err := cl.Complete(compCtx, l.Campaign, l.Token, rec)
		cancel()
		if err != nil {
			return completed, fmt.Errorf("campaign: completing cell %s: %w", l.Cell.Key(), err)
		}
		completed++
		if opts.Telemetry != nil {
			cellsDone.Add(1)
			wallMS.Add(rec.WallMS)
			if duplicate {
				dupes.Add(1)
			}
			opts.Telemetry.SampleNow()
		}
		dup := ""
		if duplicate {
			dup = " (duplicate)"
		}
		opts.logf("worker %s: completed %s in %dms%s", opts.Name, l.Cell.Key(), rec.WallMS, dup)
	}
}

// runCell executes one leased cell exactly as the local sweep runner
// would, stamping the record's wall_ms.
func runCell(cell Cell, workers int) (study.CellRecord, error) {
	ms, err := spec.Parse(cell.Model)
	if err != nil {
		return study.CellRecord{}, err
	}
	ps, err := spec.Parse(cell.Protocol)
	if err != nil {
		return study.CellRecord{}, err
	}
	s := study.Study{
		Model:    ms,
		Protocol: ps,
		Source:   cell.Source,
		Trials:   cell.Trials,
		Seed:     cell.Seed,
		Workers:  workers,
		MaxSteps: cell.MaxSteps,
	}
	start := time.Now()
	c, err := study.Run(s)
	if err != nil {
		return study.CellRecord{}, err
	}
	rec := study.Record(s, c)
	rec.WallMS = time.Since(start).Milliseconds()
	return rec, nil
}
