// Command benchmark is the repository's end-to-end benchmark. It runs one
// workload — a local sweep, a million-node flood, a waypoint flood or a
// loopback farm — for a fixed time, times the public calls of the layers
// it crosses, checks that every output is correct, and prints every metric
// by name with its unit. The last line of standard output is one JSON
// object:
//
//	{"correct": true, "attempted": 5412, "failed": 0, "metrics": {...}}
//
// Untraced runs (-trace 0) report the end-to-end metrics; traced runs
// (-trace 1) record a span around every layer call and report the
// per-layer metrics. See README.md for the workloads, the metrics and the
// layer each one isolates.
//
//	benchmark -workload <name|all> -seed <n> [-seconds s] [-trace 0|1] [-out runs.jsonl] [-spans spans.jsonl]
//	benchmark -compare a.jsonl b.jsonl
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"time"

	_ "repro/internal/model/all"
)

// metricDef names a metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd lists the metrics every workload reports when untraced, and
// perLayer those every workload reports when traced. BENCHMARK.json at the
// repository root lists the same names, with units, directions and bounds.
// Some workloads also report metrics of their own (window_ms_p50,
// cell_ms_p50, cell_ms_p99, campaign.lease_ms_p99, ...): they go to the
// human-readable lines and to -out, not to the final JSON line.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"throughput_per_s", "1/s"},
	{"peak_rss_mb", "MB"},
}

var perLayer = []metricDef{
	{"model.build_ms", "ms"},
	{"model.step_us_p50", "us"},
	{"model.step_us_p99", "us"},
	{"dyngraph.drain_us_p50", "us"},
	{"dyngraph.apply_us_p50", "us"},
	{"dyngraph.born_per_step", "count"},
	{"dyngraph.died_per_step", "count"},
	{"dyngraph.adjacency_mb", "MB"},
	{"flood.run_ms_p50", "ms"},
	{"flood.messages_per_round", "count"},
	{"flood.useless_frac", "frac"},
	{"flood.scratch_mb", "MB"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_pause_ms", "ms"},
	{"runtime.alloc_kb_per_op", "KB"},
	{"trace.throughput_per_s", "1/s"},
	{"trace.spans", "count"},
}

// workers is the parallelism of the sweep's trial pool and the number of
// the farm's worker loops: no workload keeps more goroutines busy, or
// opens more connections, than the two cores of the box the baselines
// come from.
const workers = 2

// workload is one set of inputs the benchmark runs.
type workload struct {
	name string
	run  func(b *bench) error
}

var workloads = []workload{
	{"sweep-dense512", func(b *bench) error { return runSweep(b, sweepDense512) }},
	{"flood-meg-1m", func(b *bench) error { return runFlood(b, floodMeg1M) }},
	{"flood-waypoint-64k", func(b *bench) error { return runFlood(b, floodWaypoint64K) }},
	{"farm-loopback", func(b *bench) error { return runFarm(b, farmLoopback) }},
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// check counts the items one correctness check examined and how many
// failed, with the first failure's description.
type check struct {
	Name      string `json:"name"`
	Attempted int    `json:"attempted"`
	Failed    int    `json:"failed"`
	First     string `json:"first_failure,omitempty"`
}

// env records where a result was measured.
type env struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	Revision   string `json:"revision"`
}

// result is everything one workload run measured; -out appends it as one
// JSON line.
type result struct {
	Workload  string            `json:"workload"`
	Seed      uint64            `json:"seed"`
	Seconds   int               `json:"seconds"`
	Traced    bool              `json:"traced"`
	Env       env               `json:"env"`
	Samples   map[string]int    `json:"samples"`
	Digest    string            `json:"digest"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Checks    []*check          `json:"checks"`
	EndToEnd  map[string]metric `json:"end_to_end"`
	PerLayer  map[string]metric `json:"per_layer,omitempty"`
	// SelfMS is the traced wall time attributed to each span name.
	SelfMS map[string]float64 `json:"self_ms,omitempty"`
	Spans  string             `json:"spans,omitempty"`
}

// bench is the state one workload run shares with its workload function.
type bench struct {
	seed   uint64
	budget time.Duration
	tr     *tracer // nil when untraced
	root   int32
	res    *result
	checks map[string]*check
}

func newBench(name string, seed uint64, seconds int, traced bool) *bench {
	b := &bench{
		seed:   seed,
		budget: time.Duration(seconds) * time.Second,
		root:   -1,
		checks: map[string]*check{},
		res: &result{
			Workload: name,
			Seed:     seed,
			Seconds:  seconds,
			Traced:   traced,
			Env:      currentEnv(),
			Samples:  map[string]int{},
			EndToEnd: map[string]metric{},
		},
	}
	if traced {
		b.tr = newTracer(1 << 18)
		b.res.PerLayer = map[string]metric{}
	}
	return b
}

func currentEnv() env {
	e := env{NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version(), Revision: "unknown"}
	if bi, ok := debug.ReadBuildInfo(); ok {
		modified := false
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				e.Revision = s.Value
			case "vcs.modified":
				modified = s.Value == "true"
			}
		}
		if modified {
			e.Revision += "+modified"
		}
	}
	return e
}

// check counts one examined item under the named check.
func (b *bench) check(name string, ok bool, format string, args ...any) {
	c := b.checks[name]
	if c == nil {
		c = &check{Name: name}
		b.checks[name] = c
		b.res.Checks = append(b.res.Checks, c)
	}
	c.Attempted++
	if !ok {
		c.Failed++
		if c.First == "" {
			c.First = fmt.Sprintf(format, args...)
		}
	}
}

// fail counts one failed operation under the named check.
func (b *bench) fail(name string, err error) { b.check(name, false, "%v", err) }

// checkRun checks one spreading run over n nodes: the cost conservation
// law and the informed-set bounds every engine guarantees.
func (b *bench) checkRun(n, time, informed int, messages, useless int64, completed bool) {
	ok := messages == useless+int64(informed-1) && informed >= 1 && informed <= n && (!completed || informed == n)
	b.check("run-invariants", ok, "time=%d informed=%d/%d messages=%d useless=%d completed=%v",
		time, informed, n, messages, useless, completed)
}

// e2e records an end-to-end metric. A value that is not a finite number
// (a percentile of no samples) is left out, which fails the
// metrics-reported check when the metric is one the summary needs.
func (b *bench) e2e(name string, v float64, unit string) {
	if !math.IsNaN(v) && !math.IsInf(v, 0) {
		b.res.EndToEnd[name] = metric{v, unit}
	}
}

// layer records a per-layer metric like e2e; untraced runs measure none.
func (b *bench) layer(name string, v float64, unit string) {
	if b.tr != nil && !math.IsNaN(v) && !math.IsInf(v, 0) {
		b.res.PerLayer[name] = metric{v, unit}
	}
}

// runtimeLayers records the runtime per-layer metrics: garbage
// collection over the whole run, set-up included, and the bytes allocated
// per unit of work over the timed phase, which did ops units.
func (b *bench) runtimeLayers(before, after memSnap, ops float64) {
	b.layer("runtime.gc_cycles", float64(after.numGC), "count")
	b.layer("runtime.gc_pause_ms", float64(after.pauseNS)/1e6, "ms")
	b.layer("runtime.alloc_kb_per_op", float64(after.totalAlloc-before.totalAlloc)/1024/ops, "KB")
}

// peakRSS records the process's peak resident set so far. Workloads call
// it when their timed phase ends, before they check its outputs, so that
// the checks add nothing to it.
func (b *bench) peakRSS() {
	if rss, err := peakRSSMB(); err != nil {
		b.fail("peak-rss", err)
	} else {
		b.e2e("peak_rss_mb", rss, "MB")
	}
}

// finish completes the result once the workload returned: the span tree
// and its self times, and the check totals.
func (b *bench) finish(spansPath string) {
	if b.tr != nil {
		b.tr.end(b.root)
		spans := b.tr.recorded()
		b.check("trace-capacity", b.tr.dropped.Load() == 0, "%d spans dropped", b.tr.dropped.Load())
		b.layer("trace.spans", float64(len(spans)), "count")
		self, err := selfTimes(spans)
		b.check("trace-tree", err == nil, "%v", err)
		if err == nil {
			b.res.SelfMS = selfByName(spans, self)
			if spansPath != "" {
				if err := writeSpans(spansPath, spans, self); err != nil {
					b.fail("trace-write", err)
				} else {
					b.res.Spans = spansPath
				}
			}
		}
	}
	want, got := b.res.reported()
	for _, m := range want {
		v, ok := got[m.name]
		b.check("metrics-reported", ok && v.Unit == m.unit, "metric %s missing or not in %s", m.name, m.unit)
	}
	for _, c := range b.res.Checks {
		b.res.Attempted += c.Attempted
		b.res.Failed += c.Failed
	}
	b.res.Correct = b.res.Failed == 0
}

// summary is the final JSON line the contract asks for.
type summary struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// reported returns the metrics the summary line carries — end-to-end
// untraced, per-layer traced — and the result's values of that kind.
func (r *result) reported() ([]metricDef, map[string]metric) {
	if r.Traced {
		return perLayer, r.PerLayer
	}
	return endToEnd, r.EndToEnd
}

func (r *result) summary() summary {
	want, got := r.reported()
	s := summary{Correct: r.Correct, Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]metric{}}
	for _, m := range want {
		if v, ok := got[m.name]; ok {
			s.Metrics[m.name] = v
		}
	}
	return s
}

// print writes the human-readable lines of a result.
func (r *result) print(w io.Writer) {
	mode := "untraced"
	if r.Traced {
		mode = "traced"
	}
	fmt.Fprintf(w, "workload %s seed %d, %ds, %s (%s, nproc %d, GOMAXPROCS %d, rev %s)\n",
		r.Workload, r.Seed, r.Seconds, mode, r.Env.Go, r.Env.NumCPU, r.Env.GOMAXPROCS, r.Env.Revision)
	printMetrics(w, "end_to_end", r.EndToEnd)
	printMetrics(w, "per_layer", r.PerLayer)
	if len(r.SelfMS) > 0 {
		names := sortedKeys(r.SelfMS)
		sort.SliceStable(names, func(i, j int) bool { return r.SelfMS[names[i]] > r.SelfMS[names[j]] })
		for _, n := range names {
			fmt.Fprintf(w, "  self_time   %-40s %14.3f ms\n", n, r.SelfMS[n])
		}
	}
	for _, k := range sortedKeys(r.Samples) {
		fmt.Fprintf(w, "  samples     %-40s %14d\n", k, r.Samples[k])
	}
	for _, c := range r.Checks {
		status := "ok"
		if c.Failed > 0 {
			status = "FAILED, first: " + c.First
		}
		fmt.Fprintf(w, "  check       %-40s %7d/%-7d %s\n", c.Name, c.Attempted-c.Failed, c.Attempted, status)
	}
	fmt.Fprintf(w, "  digest      %s\n", r.Digest)
	if r.Spans != "" {
		fmt.Fprintf(w, "  spans       %s\n", r.Spans)
	}
}

func printMetrics(w io.Writer, kind string, ms map[string]metric) {
	for _, k := range sortedKeys(ms) {
		fmt.Fprintf(w, "  %-11s %-40s %14.6g %s\n", kind, k, ms[k].Value, ms[k].Unit)
	}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// runWorkload runs one workload in this process.
func runWorkload(w workload, seed uint64, seconds int, traced bool, spansPath string) *result {
	b := newBench(w.name, seed, seconds, traced)
	b.root = b.tr.begin("bench."+w.name, -1, -1)
	if err := w.run(b); err != nil {
		b.fail("workload", err)
	}
	b.finish(spansPath)
	return b.res
}

func appendResult(path string, r *result) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(r); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func main() {
	workloadName := flag.String("workload", "", "workload to run, or all")
	seed := flag.Uint64("seed", 1, "seed the workload's inputs are generated from")
	seconds := flag.Int("seconds", 15, "how long the timed phase of one workload runs")
	trace := flag.Int("trace", 0, "1 records spans and reports per-layer metrics; 0 reports end-to-end metrics")
	out := flag.String("out", "", "append each result as one JSON line to this file")
	spans := flag.String("spans", "", "span file of a traced run (default: spans-<workload>.jsonl in the temp directory)")
	compare := flag.Bool("compare", false, "compare two -out files: benchmark -compare a.jsonl b.jsonl")
	benchJSON := flag.String("bench", "BENCHMARK.json", "BENCHMARK.json holding the bounds -compare applies")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: benchmark -compare a.jsonl b.jsonl")
			os.Exit(2)
		}
		ok, err := runCompare(os.Stdout, *benchJSON, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(2)
		}
		if !ok {
			os.Exit(1)
		}
		return
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "benchmark: -seconds must be at least 1 and -trace 0 or 1")
		os.Exit(2)
	}
	if *workloadName == "all" {
		os.Exit(runAll(*seed, *seconds, *trace == 1, *out))
	}
	w, ok := findWorkload(*workloadName)
	if !ok {
		fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q; want all or one of:", *workloadName)
		for _, w := range workloads {
			fmt.Fprintf(os.Stderr, " %s", w.name)
		}
		fmt.Fprintln(os.Stderr)
		os.Exit(2)
	}
	spansPath := *spans
	if *trace == 1 && spansPath == "" {
		spansPath = filepath.Join(os.TempDir(), "spans-"+w.name+".jsonl")
	}
	res := runWorkload(w, *seed, *seconds, *trace == 1, spansPath)
	res.print(os.Stdout)
	if *out != "" {
		if err := appendResult(*out, res); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark: writing result:", err)
			os.Exit(1)
		}
	}
	line, err := json.Marshal(res.summary())
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// runAll runs every workload in a child process of its own, so that
// peak_rss_mb belongs to one workload. With traced set it runs each
// workload untraced and then traced, checks that both give the same
// digest, and reports the tracing overhead.
func runAll(seed uint64, seconds int, traced bool, out string) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	tmp, err := os.MkdirTemp("", "bench-all-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	defer os.RemoveAll(tmp)
	total := summary{Correct: true, Metrics: map[string]metric{}}
	modes := []int{0}
	if traced {
		modes = append(modes, 1)
	}
	var overhead []string
	for _, w := range workloads {
		var byMode [2]*result
		for _, mode := range modes {
			path := filepath.Join(tmp, fmt.Sprintf("%s-%d.jsonl", w.name, mode))
			cmd := exec.Command(self, "-workload", w.name, "-seed", strconv.FormatUint(seed, 10),
				"-seconds", strconv.Itoa(seconds), "-trace", strconv.Itoa(mode), "-out", path)
			cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
			runErr := cmd.Run()
			r, err := readResult(path)
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchmark: %s: %v (run: %v)\n", w.name, err, runErr)
				total.Correct = false
				total.Attempted++
				total.Failed++
				continue
			}
			byMode[mode] = r
			total.Correct = total.Correct && r.Correct
			total.Attempted += r.Attempted
			total.Failed += r.Failed
			for k, v := range r.summary().Metrics {
				total.Metrics[w.name+"/"+k] = v
			}
			if out != "" {
				if err := appendResult(out, r); err != nil {
					fmt.Fprintln(os.Stderr, "benchmark: writing result:", err)
					return 1
				}
			}
		}
		if u, t := byMode[0], byMode[1]; u != nil && t != nil {
			same := u.Digest == t.Digest
			total.Attempted++
			if !same {
				total.Failed++
				total.Correct = false
			}
			over := 1 - t.PerLayer["trace.throughput_per_s"].Value/u.EndToEnd["throughput_per_s"].Value
			overhead = append(overhead, fmt.Sprintf("%-20s tracing overhead %6.2f%% of throughput_per_s, digests equal: %v",
				w.name, 100*over, same))
		}
	}
	for _, line := range overhead {
		fmt.Println(line)
	}
	line, err := json.Marshal(total)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	fmt.Println(string(line))
	if !total.Correct {
		return 1
	}
	return 0
}

// readResults reads the results of an -out file, one JSON object a line.
func readResults(path string) ([]*result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []*result
	dec := json.NewDecoder(f)
	for {
		var r result
		if err := dec.Decode(&r); err == io.EOF {
			return out, nil
		} else if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, &r)
	}
}

func readResult(path string) (*result, error) {
	rs, err := readResults(path)
	if err != nil {
		return nil, err
	}
	if len(rs) != 1 {
		return nil, fmt.Errorf("%s: want one result, found %d", path, len(rs))
	}
	return rs[0], nil
}
