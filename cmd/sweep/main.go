// Command sweep runs a declarative parameter-sweep campaign — a grid of
// model specs × protocol specs, each cell a fixed-seed trial set — with
// JSONL checkpointing, crash-safe resume, and CSV/markdown reporting. It
// is the production front end of internal/study: the paper's tables are
// sweeps of flooding time over (n, p, q) and protocol families, and this
// binary runs such grids from a single JSON file with no Go code.
//
// A sweep file declares the grid; specs may be CLI strings or spec
// objects:
//
//	{
//	  "models":    ["edgemeg:n=256,p=0.00625,q=0.19375", "edgemeg:n=512,p=0.003125,q=0.196875"],
//	  "protocols": ["flood", "push:k=3", "pushpull:k=1"],
//	  "trials":    20,
//	  "seed":      1,
//	  "max_steps": 65536
//	}
//
// Usage (single box):
//
//	sweep -file grid.json -checkpoint grid.ckpt.jsonl -csv grid.csv
//	sweep -models "edgemeg:n=128,p=0.02,q=0.2" -protocols "flood;pull" -trials 10
//	sweep -file grid.json -checkpoint grid.ckpt.jsonl -report-only
//
// Usage (farm, against a cmd/sweepd server):
//
//	sweep -server http://host:8377 -submit -file grid.json   # submit, print campaign id
//	sweep -server http://host:8377                           # run as a leased worker
//	sweep -server http://host:8377 -drain                    # worker that exits when the farm is done
//
// Telemetry (any mode):
//
//	sweep -file grid.json -telemetry ./tel          # capture metrics to ./tel/sweep.ftdc.jsonl
//	sweep -server http://host:8377 -telemetry ./tel # worker capture: ./tel/worker-<name>.ftdc.jsonl
//	sweep -telemetry-report ./tel                   # summarize every capture in the directory
//
// Profiles (any mode):
//
//	sweep -file grid.json -cpuprofile cpu.prof -memprofile mem.prof
//
// -cpuprofile profiles the whole run; -memprofile writes a heap profile
// once it ends, also after a graceful interrupt. Inspect either with
// `go tool pprof`.
//
// -telemetry enables the internal/telemetry collector: one delta-encoded
// sample per second (plus one per completed cell) of throughput counters,
// scratch footprint, and runtime GC/heap stats, written to a size-capped
// ring of *.ftdc.jsonl files that tolerate kill -9 exactly like the
// checkpoint. -telemetry-report decodes a capture file (or every capture
// under a directory) and prints per-metric first/last/min/max/mean and
// per-second rates. See docs/TELEMETRY.md.
//
// Every completed cell is appended to the checkpoint file before the next
// cell starts. Rerunning the same command resumes: cells whose
// (model, protocol, trials, seed) key is already checkpointed are skipped,
// so a killed sweep loses at most the cell in flight, and the final
// reports are byte-identical to an uninterrupted run (cell results depend
// only on the sweep definition, never on workers or interruption). -fresh
// discards an existing checkpoint instead.
//
// SIGINT/SIGTERM are handled gracefully in every mode: the in-flight cell
// is finished and checkpointed (workers post it to the server; a worker
// holding an unstarted lease releases it instead), then the process exits
// 0. A second signal kills immediately — losing, as always, only the cell
// in flight.
//
// The markdown report prints to stdout unless -md redirects it; -csv
// writes the machine-readable form; -report-only aggregates an existing
// checkpoint without running anything.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/campaign"
	"repro/internal/model"
	_ "repro/internal/model/all"
	"repro/internal/profile"
	"repro/internal/protocol"
	"repro/internal/spec"
	"repro/internal/study"
	"repro/internal/telemetry"
)

func main() {
	file := flag.String("file", "", "sweep definition file (JSON; see package doc)")
	models := flag.String("models", "", "semicolon-separated model specs (overrides the file's models)")
	protocols := flag.String("protocols", "", "semicolon-separated protocol specs (overrides the file's protocols)")
	trials := flag.Int("trials", 0, "per-cell trial count (overrides the file)")
	seed := flag.Uint64("seed", 0, "master seed (overrides the file)")
	source := flag.Int("source", 0, "initially informed source node (overrides the file)")
	maxSteps := flag.Int("max-steps", 0, "per-run step cap (overrides the file)")
	workers := flag.Int("workers", 0, "trial parallelism, 0 = GOMAXPROCS (overrides the file; never affects results)")
	checkpoint := flag.String("checkpoint", "", "JSONL checkpoint file: completed cells stream here and are skipped on rerun")
	fresh := flag.Bool("fresh", false, "discard an existing checkpoint instead of resuming from it")
	reportOnly := flag.Bool("report-only", false, "skip execution; aggregate the checkpoint into reports")
	csvPath := flag.String("csv", "", "write the CSV report here ('-' for stdout)")
	mdPath := flag.String("md", "-", "write the markdown report here ('-' for stdout, '' to suppress)")
	listModels := flag.Bool("list-models", false, "list registered models and parameters, then exit")
	listProtocols := flag.Bool("list-protocols", false, "list registered protocols and parameters, then exit")
	server := flag.String("server", "", "sweepd base URL: submit to (-submit) or work for a campaign server instead of running locally")
	submit := flag.Bool("submit", false, "with -server: submit the assembled sweep as a campaign and print its id")
	workerName := flag.String("worker", "", "with -server: worker name reported to the server (default host:pid)")
	poll := flag.Duration("poll", 2*time.Second, "with -server: idle re-poll interval")
	drain := flag.Bool("drain", false, "with -server: exit 0 once the server reports every campaign complete")
	hold := flag.Duration("hold", 0, "with -server: fault-injection pause between leasing a cell and running it (testing lease expiry)")
	telemetryDir := flag.String("telemetry", "", "directory for FTDC-style metrics captures (*.ftdc.jsonl): one sample per second plus one per completed cell")
	telemetryReport := flag.String("telemetry-report", "", "capture file or directory: print per-metric summaries and exit")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile to this file after the run")
	flag.Parse()

	stopProfiles, err := profile.Start(*cpuProfile, *memProfile)
	if err != nil {
		fatal(err)
	}
	defer func() {
		if err := stopProfiles(); err != nil {
			fatal(err)
		}
	}()

	if *listModels {
		fmt.Print(model.Usage())
		return
	}
	if *listProtocols {
		fmt.Print(protocol.Usage())
		return
	}
	if *telemetryReport != "" {
		if err := reportTelemetry(*telemetryReport); err != nil {
			fatal(err)
		}
		return
	}

	if *server != "" {
		farm(*server, *submit, *file, *models, *protocols, *trials, *seed, *source, *maxSteps,
			*workerName, *workers, *poll, *drain, *hold, *telemetryDir)
		return
	}

	var records []study.CellRecord
	if *reportOnly {
		if *checkpoint == "" {
			fatal(fmt.Errorf("-report-only needs -checkpoint"))
		}
		f, err := os.Open(*checkpoint)
		if err != nil {
			fatal(err)
		}
		all, err := study.ReadCheckpoint(f)
		f.Close()
		if err != nil {
			fatal(err)
		}
		// Collapse superseded duplicates (a rerun appends a fresh record
		// for an existing key; the later one wins) so the report carries
		// one row per cell, exactly as a resumed run would produce.
		for _, rec := range study.Index(all) {
			records = append(records, rec)
		}
	} else {
		var stopped bool
		records, stopped = run(*file, *models, *protocols, *trials, *seed, *source, *maxSteps, *workers, *checkpoint, *fresh, *telemetryDir)
		if stopped {
			return
		}
	}

	rows := study.Report(records)
	if err := writeReport(*mdPath, rows, study.WriteMarkdown); err != nil {
		fatal(err)
	}
	if err := writeReport(*csvPath, rows, study.WriteCSV); err != nil {
		fatal(err)
	}
}

// assembleSweep builds the sweep from the file and flag overrides. A flag
// overrides the file exactly when the user passed it — tracked via
// flag.Visit, so legal zero values (-seed 0, -max-steps 0) are not
// mistaken for "unset".
func assembleSweep(file, models, protocols string, trials int, seed uint64, source, maxSteps, workers int) study.Sweep {
	var sw study.Sweep
	if file != "" {
		var err error
		sw, err = study.ParseSweepFile(file)
		if err != nil {
			fatal(err)
		}
	}
	set := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { set[f.Name] = true })
	if set["models"] {
		sw.Models = parseSpecs("models", models)
	}
	if set["protocols"] {
		sw.Protocols = parseSpecs("protocols", protocols)
	}
	if set["trials"] {
		sw.Trials = trials
	}
	if set["seed"] {
		sw.Seed = seed
	}
	if set["source"] {
		sw.Source = source
	}
	if set["max-steps"] {
		sw.MaxSteps = maxSteps
	}
	if set["workers"] {
		sw.Workers = workers
	}
	if err := sw.Validate(); err != nil {
		fatal(err)
	}
	return sw
}

// stopOnSignal arms graceful shutdown: the first SIGINT/SIGTERM closes
// the returned channel (finish the in-flight cell, then exit cleanly); a
// second signal exits immediately.
func stopOnSignal() <-chan struct{} {
	stop := make(chan struct{})
	sigc := make(chan os.Signal, 2)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		<-sigc
		fmt.Fprintln(os.Stderr, "sweep: signal received; finishing the in-flight cell (interrupt again to abort)")
		close(stop)
		<-sigc
		fmt.Fprintln(os.Stderr, "sweep: second signal; aborting now")
		os.Exit(1)
	}()
	return stop
}

// run assembles the sweep from the file and flag overrides, wires the
// checkpoint and telemetry, and executes the missing cells. It reports
// stopped after a graceful interrupt, when no report should be written.
func run(file, models, protocols string, trials int, seed uint64, source, maxSteps, workers int, checkpoint string, fresh bool, telemetryDir string) (records []study.CellRecord, stopped bool) {
	sw := assembleSweep(file, models, protocols, trials, seed, source, maxSteps, workers)

	col, flushTelemetry := startTelemetry(telemetryDir, "sweep")
	defer flushTelemetry()

	done := map[study.Key]study.CellRecord{}
	var sink func(study.CellRecord) error
	if checkpoint != "" {
		if fresh {
			if err := os.Remove(checkpoint); err != nil && !os.IsNotExist(err) {
				fatal(err)
			}
		}
		// OpenCheckpoint loads the completed cells and truncates a
		// kill-severed partial final line, so appends start on a fresh
		// line rather than gluing onto the fragment.
		f, done2, err := study.OpenCheckpoint(checkpoint)
		if err != nil {
			fatal(err)
		}
		done = done2
		defer f.Close()
		sink = func(rec study.CellRecord) error {
			if err := study.WriteCheckpoint(f, rec); err != nil {
				return err
			}
			// A checkpoint's whole point is surviving a kill: push each
			// cell to disk before its successor starts.
			return f.Sync()
		}
	}

	keys := sw.Keys()
	resumed := 0
	for _, key := range keys {
		if _, ok := done[key]; ok {
			resumed++
		}
	}
	fmt.Fprintf(os.Stderr, "sweep: %d cells (%d models × %d protocols), %d trials each; resumed %d from checkpoint\n",
		len(keys), len(sw.Models), len(sw.Protocols), sw.Trials, resumed)

	// The one-line done/total progress log: long sweeps used to be silent
	// until the end; now every cell announces itself as it starts.
	completed := 0
	progress := func(key study.Key, index, total int, wasResumed bool) {
		completed++
		if wasResumed {
			return // already counted in the resumed summary above
		}
		fmt.Fprintf(os.Stderr, "sweep: [%d/%d] %s\n", completed, total, key)
	}

	start := time.Now()
	records, err := study.RunSweepOpts(sw, study.SweepOpts{
		Done:      done,
		Sink:      sink,
		Progress:  progress,
		Stop:      stopOnSignal(),
		Telemetry: col,
	})
	if err == study.ErrStopped {
		// Graceful interruption: the checkpoint holds every finished cell
		// (fsync'd per cell), so the same command resumes where this run
		// stopped. Partial reports would be misleading; skip them.
		fmt.Fprintf(os.Stderr, "sweep: interrupted after %d/%d cells; checkpoint intact — rerun the same command to resume\n",
			len(records), len(keys))
		return records, true
	}
	if err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "sweep: %d cells done (%d run, %d resumed) in %.1fs\n",
		len(records), len(records)-resumed, resumed, time.Since(start).Seconds())
	return records, false
}

// farm is the -server entry point: submit a campaign, or loop as a leased
// worker until drained, signalled, or failed.
func farm(base string, submit bool, file, models, protocols string, trials int, seed uint64, source, maxSteps int,
	workerName string, workers int, poll time.Duration, drain bool, hold time.Duration, telemetryDir string) {
	cl := &campaign.Client{Base: base}
	if submit {
		col, flushTelemetry := startTelemetry(telemetryDir, "submit")
		defer flushTelemetry()
		_ = col // submission registers no extra sources; the capture still records runtime stats
		sw := assembleSweep(file, models, protocols, trials, seed, source, maxSteps, workers)
		id, cells, err := cl.Submit(context.Background(), sw)
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "sweep: submitted campaign %s (%d cells) to %s\n", id, cells, base)
		fmt.Println(id)
		return
	}

	if workerName == "" {
		host, _ := os.Hostname()
		workerName = fmt.Sprintf("%s:%d", host, os.Getpid())
	}
	col, flushTelemetry := startTelemetry(telemetryDir, "worker-"+sanitizeName(workerName))
	defer flushTelemetry()
	// Worker graceful shutdown: first signal cancels the context — the
	// in-flight cell finishes and its record is posted, or an unstarted
	// lease is released (see campaign.Work); second signal aborts.
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	logger := log.New(os.Stderr, "sweep: ", log.LstdFlags)
	completed, err := campaign.Work(ctx, cl, campaign.WorkerOpts{
		Name:      workerName,
		Workers:   workers,
		Poll:      poll,
		Drain:     drain,
		Hold:      hold,
		Log:       logger,
		Telemetry: col,
	})
	if err != nil {
		flushTelemetry() // fatal os.Exits past the defer
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "sweep: worker %s exiting after %d cells\n", workerName, completed)
}

// startTelemetry opens <dir>/<name>.ftdc.jsonl and starts a periodic
// collector sampling into it. With dir empty it returns a nil collector
// (every consumer treats nil as "telemetry off") and a no-op flush. The
// returned flush is idempotent: it stops the sampler, writes the final
// sample, and closes the capture.
func startTelemetry(dir, name string) (*telemetry.Collector, func()) {
	if dir == "" {
		return nil, func() {}
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fatal(err)
	}
	cw, err := telemetry.OpenCapture(filepath.Join(dir, name+telemetry.Ext), telemetry.CaptureOptions{})
	if err != nil {
		fatal(err)
	}
	col := telemetry.New(telemetry.Options{})
	col.Start(cw)
	var once sync.Once
	return col, func() {
		once.Do(func() {
			if err := col.Stop(); err != nil {
				fmt.Fprintln(os.Stderr, "sweep: telemetry:", err)
			}
			if err := cw.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "sweep: telemetry:", err)
			}
		})
	}
}

// sanitizeName maps a worker name (default host:pid) to a safe capture
// filename fragment.
func sanitizeName(name string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '-', r == '.', r == '_':
			return r
		}
		return '-'
	}, name)
}

// reportTelemetry decodes a capture file — or every *.ftdc.jsonl under a
// directory — and prints per-metric summaries.
func reportTelemetry(path string) error {
	info, err := os.Stat(path)
	if err != nil {
		return err
	}
	paths := []string{path}
	if info.IsDir() {
		paths, err = telemetry.CaptureFiles(path)
		if err != nil {
			return err
		}
		if len(paths) == 0 {
			return fmt.Errorf("no *%s captures under %s", telemetry.Ext, path)
		}
	}
	for i, p := range paths {
		if i > 0 {
			fmt.Println()
		}
		fmt.Printf("%s:\n", p)
		samples, err := telemetry.ReadCaptureFile(p)
		if err != nil {
			return err
		}
		if err := telemetry.WriteSummary(os.Stdout, telemetry.Summarize(samples)); err != nil {
			return err
		}
	}
	return nil
}

func parseSpecs(field, text string) []spec.Spec {
	var specs []spec.Spec
	for _, part := range strings.Split(text, ";") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		s, err := spec.Parse(part)
		if err != nil {
			fatal(fmt.Errorf("-%s: %w", field, err))
		}
		specs = append(specs, s)
	}
	return specs
}

// writeReport renders rows to path with the given writer: "-" is stdout,
// "" suppresses the report.
func writeReport(path string, rows []study.Row, write func(w io.Writer, rows []study.Row) error) error {
	switch path {
	case "":
		return nil
	case "-":
		return write(os.Stdout, rows)
	default:
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		if err := write(f, rows); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "sweep:", err)
	os.Exit(1)
}
