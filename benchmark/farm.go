package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/campaign"
	"repro/internal/model"
	"repro/internal/rng"
	"repro/internal/spec"
	"repro/internal/study"
)

// farmConfig sizes the farm workload.
type farmConfig struct {
	// Models tiny edge-MEGs with n drawn from [MinN, MaxN] are crossed
	// with farmProtocols, farmTrials trials a cell: one campaign.
	Models      int
	MinN, MaxN  int
	SetupReps   int
	LadderSteps int64
}

// farmLoopback puts the farm on the critical path: each cell computes for
// about a millisecond, so lease, complete, HTTP/JSON and the fsync of
// every completion dominate, and the campaign is large enough that work
// per request that grows with the campaign shows.
var farmLoopback = farmConfig{Models: 3072, MinN: 32, MaxN: 95, SetupReps: 11, LadderSteps: 256}

// farmProtocols are crossed with every model of a campaign: flooding, and
// pull, whose runs take several times longer.
var farmProtocols = []string{"flood", "pull"}

const (
	farmTrials   = 4
	farmMaxSteps = 4096
	// farmRecheck is how many cells of the first campaign are re-run
	// offline and compared with the farm's records.
	farmRecheck = 64
	// farmPoll is how long a worker waits before it asks again while every
	// pending cell is out on lease.
	farmPoll = 10 * time.Millisecond
)

// farmGrid generates the campaign of one round from the seed: distinct
// edge-MEGs of stationary degree 3 to 6 whose edges live 1.25 to 5 steps,
// the same in every round, and a sweep seed of the round's own.
func farmGrid(cfg farmConfig, seed uint64, round int) (study.Sweep, error) {
	protocols, err := parseSpecs(farmProtocols)
	if err != nil {
		return study.Sweep{}, err
	}
	r := rng.New(rng.Seed(seed, tagGrid))
	seen := map[string]bool{}
	var models []spec.Spec
	for len(models) < cfg.Models {
		n := cfg.MinN + r.Intn(cfg.MaxN-cfg.MinN+1)
		deg := 3 + 3*r.Float64()
		q := 0.2 + 0.6*r.Float64()
		p := q * deg / (float64(n-1) - deg)
		s := model.New("edgemeg").WithInt("n", n).WithFloat("p", p).WithFloat("q", q)
		if k := s.String(); !seen[k] {
			seen[k] = true
			models = append(models, s)
		}
	}
	return study.Sweep{
		Models:    models,
		Protocols: protocols,
		Trials:    farmTrials,
		Seed:      rng.Seed(seed, tagGrid, 1, uint64(round)),
		MaxSteps:  farmMaxSteps,
	}, nil
}

// farm is one campaign server on a loopback port, its state in a
// temporary directory.
type farm struct {
	dir    string
	m      *campaign.Manager
	hs     *http.Server
	served chan error
	base   string
}

func startFarm(tr *tracer) (*farm, error) {
	dir, err := os.MkdirTemp("", "bench-farm-")
	if err != nil {
		return nil, err
	}
	m, err := campaign.NewManager(campaign.Options{Dir: dir})
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	var h http.Handler = campaign.NewServer(m, nil)
	if tr != nil {
		h = serverSpans{h, tr}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		m.Close()
		os.RemoveAll(dir)
		return nil, err
	}
	f := &farm{
		dir:    dir,
		m:      m,
		hs:     &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second},
		served: make(chan error, 1),
		base:   "http://" + ln.Addr().String(),
	}
	go func() { f.served <- f.hs.Serve(ln) }()
	return f, nil
}

// stop shuts the server down, waits until it has stopped serving, and
// closes the manager's checkpoint files.
func (f *farm) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := f.hs.Shutdown(ctx)
	if serr := <-f.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	if cerr := f.m.Close(); err == nil {
		err = cerr
	}
	return err
}

func (f *farm) remove() { os.RemoveAll(f.dir) }

// spanHeader carries a client span's id to the server in traced runs.
const spanHeader = "X-Bench-Span"

// rpcName names the farm calls the benchmark times; "" for others.
func rpcName(path string) string {
	switch path {
	case "/lease":
		return "lease"
	case "/complete":
		return "complete"
	}
	return ""
}

// rpcRecorder is one worker's http.RoundTripper. It times the worker's
// /lease and /complete calls — until the response headers arrive — and
// pairs each completion with the lease that granted its cell: a worker
// completes the cell of its latest lease before it asks for another. In
// traced runs it records the calls and the cell as spans and passes the
// client span's id to the server. Only its worker's goroutine uses it.
type rpcRecorder struct {
	base   http.RoundTripper
	tr     *tracer
	origin time.Time // clock origin of untraced runs
	lane   int32     // the worker's span in the current round

	leaseStart, leaseEnd int64
	leaseSpan            int32
	lastAck              time.Time
	cells, leaseCalls    int
	retries              int
	leaseMS, completeMS  []float64
	cellMS, computeMS    []float64
}

func (r *rpcRecorder) now() int64 {
	if r.tr != nil {
		return r.tr.now()
	}
	return int64(time.Since(r.origin))
}

func (r *rpcRecorder) RoundTrip(req *http.Request) (*http.Response, error) {
	name := rpcName(req.URL.Path)
	if name == "" {
		return r.base.RoundTrip(req)
	}
	start := r.now()
	id := r.tr.add("campaign."+name, r.lane, int64(r.cells), start, -1)
	if id >= 0 {
		req = req.Clone(req.Context())
		req.Header.Set(spanHeader, strconv.Itoa(int(id)))
	}
	resp, err := r.base.RoundTrip(req)
	end := r.now()
	r.tr.endAt(id, end)
	if err != nil || resp.StatusCode == http.StatusRequestTimeout ||
		resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode >= 500 {
		r.retries++ // campaign.Client retries exactly these
		return resp, err
	}
	if resp.StatusCode >= 300 {
		return resp, nil
	}
	if name == "lease" {
		r.leaseCalls++
		r.leaseStart, r.leaseEnd, r.leaseSpan = start, end, id
		r.leaseMS = append(r.leaseMS, float64(end-start)/1e6)
		return resp, nil
	}
	r.completeMS = append(r.completeMS, float64(end-start)/1e6)
	r.cellMS = append(r.cellMS, float64(end-r.leaseStart)/1e6)
	r.computeMS = append(r.computeMS, float64(start-r.leaseEnd)/1e6)
	cell := r.tr.add("farm.cell", r.lane, int64(r.cells), r.leaseStart, end)
	r.tr.setParent(r.leaseSpan, cell)
	r.tr.setParent(id, cell)
	r.cells++
	r.lastAck = time.Now()
	return resp, nil
}

// serverSpans wraps the campaign server's handler in traced runs: it
// times /lease and /complete on the server side, as children of the
// client span named in the request. The gap between the two is the
// HTTP/JSON and loopback cost.
type serverSpans struct {
	h  http.Handler
	tr *tracer
}

func (s serverSpans) ServeHTTP(w http.ResponseWriter, req *http.Request) {
	name := rpcName(req.URL.Path)
	parent, err := strconv.Atoi(req.Header.Get(spanHeader))
	if name == "" || err != nil || parent < 0 || parent >= len(s.tr.spans) {
		s.h.ServeHTTP(w, req)
		return
	}
	id := s.tr.begin("campaign.server_"+name, int32(parent), -1)
	s.h.ServeHTTP(w, req)
	s.tr.end(id)
}

// runFarm runs the farm workload. Set-up boots a campaign.Manager (with
// a state directory, so completions are fsync'd) behind campaign.NewServer
// on a loopback port and submits the first campaign. The timed phase runs
// rounds until the time is up, at least one: in a round, campaign.Work
// loops drain one whole campaign of the same size, which is then checked
// and deleted, so every round does the same work on a farm of the same
// size. A round is one throughput sample; one cell, from its /lease call
// to the /complete acknowledgement, is one latency sample.
func runFarm(b *bench, cfg farmConfig) error {
	sw, err := farmGrid(cfg, b.seed, 0)
	if err != nil {
		return err
	}
	tr := b.tr
	ctx := context.Background()
	origin := time.Now()
	recs := make([]*rpcRecorder, workers)
	clients := make([]*campaign.Client, workers)
	for i := range recs {
		t := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
		defer t.CloseIdleConnections()
		recs[i] = &rpcRecorder{base: t, tr: tr, origin: origin, lane: -1, leaseSpan: -1}
		clients[i] = &campaign.Client{HTTP: &http.Client{Transport: recs[i]}, Backoff: 50 * time.Millisecond}
	}

	setup := tr.begin("bench.setup", b.root, -1)
	var f *farm
	var id string
	var setupS, submitMS []float64
	for rep := 0; rep < cfg.SetupReps; rep++ {
		if f != nil {
			if err := f.stop(); err != nil {
				b.fail("farm-shutdown", err)
			}
			f.remove()
		}
		runtime.GC() // each repetition starts from a collected heap
		start := time.Now()
		rid := tr.begin("bench.setup_rep", setup, int64(rep))
		boot := tr.begin("farm.boot", rid, int64(rep))
		f, err = startFarm(tr)
		tr.end(boot)
		if err != nil {
			tr.end(rid)
			tr.end(setup)
			return err
		}
		for _, c := range clients {
			c.Base = f.base
		}
		t0 := time.Now()
		sid := tr.begin("campaign.submit", rid, int64(rep))
		id, err = submit(ctx, clients[0], sw)
		tr.end(sid)
		submitMS = append(submitMS, ms(time.Since(t0)))
		tr.end(rid)
		setupS = append(setupS, time.Since(start).Seconds())
		if err != nil {
			tr.end(setup)
			_ = f.stop() // the submit error is the one to report
			f.remove()
			return err
		}
	}
	tr.end(setup)
	defer f.remove()
	b.e2e("setup_s", median(setupS), "s")
	b.res.Samples["setup_s"] = len(setupS)

	timed := tr.begin("bench.timed", b.root, -1)
	var busy time.Duration
	var drained []drainedCampaign
	var perCellMS []float64 // a round's time over its cells
	cells := 0
	before := readMem()
	for round := 0; round == 0 || busy < b.budget; round++ {
		rid := tr.begin("farm.round", timed, int64(round))
		if round > 0 {
			if sw, err = farmGrid(cfg, b.seed, round); err == nil {
				sid := tr.begin("campaign.submit", rid, int64(round))
				id, err = submit(ctx, clients[0], sw)
				tr.end(sid)
			}
			if err != nil {
				tr.end(rid)
				tr.end(timed)
				return err
			}
		}
		d, n := b.farmRound(ctx, recs, clients, rid)
		tr.end(rid)
		busy += d
		cells += n
		perCellMS = append(perCellMS, ms(d)/float64(n))
		cid := tr.begin("farm.collect", timed, int64(round))
		drained = append(drained, b.collect(ctx, f, clients[0], id, sw, n, round))
		tr.end(cid)
	}
	after := readMem()
	b.peakRSS()
	tr.end(timed)

	var cellMS, leaseMS, completeMS, computeMS []float64
	leaseCalls, retries := 0, 0
	for _, r := range recs {
		leaseCalls += r.leaseCalls
		retries += r.retries
		cellMS = append(cellMS, r.cellMS...)
		leaseMS = append(leaseMS, r.leaseMS...)
		completeMS = append(completeMS, r.completeMS...)
		computeMS = append(computeMS, r.computeMS...)
	}
	perS := rate(perCellMS)
	if tr == nil {
		b.e2e("throughput_per_s", perS, "1/s")
		b.e2e("cell_ms_p50", median(cellMS), "ms")
		b.e2e("cell_ms_p99", quantile(cellMS, 0.99), "ms")
	}
	b.res.Samples["rounds"] = len(perCellMS)
	b.res.Samples["cells"] = len(cellMS)
	b.res.Samples["lease_calls"] = leaseCalls
	if err := f.stop(); err != nil {
		b.fail("farm-shutdown", err)
	}
	var first []study.CellRecord // the first campaign's records, grid order
	var cost costs
	var duplicates int64
	for i, c := range drained {
		records := b.checkCampaign(c)
		if i == 0 {
			first = records
		}
		for _, rec := range records {
			cost.addRecord(rec)
		}
		duplicates += c.mx.DuplicatesTotal
	}

	// The first campaign feeds the digest and the offline recheck.
	dg := newDigest()
	for _, rec := range first {
		for i := 0; i < rec.Trials; i++ {
			dg.add(rec.Times[i], rec.Informed[i], rec.Messages[i])
		}
	}
	b.res.Digest = dg.String()
	var scratchMax atomic.Int64
	recheck := tr.begin("bench.recheck", b.root, -1)
	perm := rng.New(rng.Seed(b.seed, tagRecheck)).Perm(len(first))
	var firstModel spec.Spec
	var floodRuns []float64
	for i, j := range perm[:min(farmRecheck, len(perm))] {
		want := first[j]
		s, err := studyOf(want)
		if err != nil {
			b.fail("farm-recheck", err)
			continue
		}
		if i == 0 {
			firstModel = s.Model
		}
		cell := tr.begin("study.cell", recheck, int64(j))
		got, err := b.runStudy(s, cell, &scratchMax)
		tr.end(cell)
		if tr != nil && s.Protocol.Name == "flood" {
			floodRuns = append(floodRuns, durationsMS(tr.recorded(), "protocol.run", cell)...)
		}
		got.WallMS, want.WallMS = 0, 0
		b.check("farm-recheck", err == nil && reflect.DeepEqual(got, want),
			"cell %s re-run offline differs from the farm's record (%v)", want.Key(), err)
	}
	tr.end(recheck)

	if tr == nil {
		return nil
	}
	b.layer("trace.throughput_per_s", perS, "1/s")
	b.runtimeLayers(before, after, float64(cells))
	cost.layers(b)
	b.layer("flood.scratch_mb", float64(scratchMax.Load())/mib, "MB")
	b.layer("campaign.submit_ms", median(submitMS), "ms")
	b.layer("campaign.lease_ms_p50", median(leaseMS), "ms")
	b.layer("campaign.lease_ms_p99", quantile(leaseMS, 0.99), "ms")
	b.layer("campaign.complete_ms_p50", median(completeMS), "ms")
	b.layer("campaign.complete_ms_p99", quantile(completeMS, 0.99), "ms")
	b.layer("campaign.compute_ms_p50", median(computeMS), "ms")
	b.layer("campaign.overhead_frac", 1-sum(computeMS)/sum(cellMS), "frac")
	// Every lease call granted a cell, found none pending, or ended a
	// worker's round with "drained".
	b.layer("campaign.idle_polls", float64(leaseCalls-cells-len(perCellMS)*workers), "count")
	b.layer("campaign.retries", float64(retries), "count")
	b.layer("campaign.duplicates", float64(duplicates), "count")
	spans := tr.recorded()
	for _, name := range []string{"lease", "complete"} {
		xs := durationsMS(spans, "campaign.server_"+name, timed)
		b.layer("campaign.server_"+name+"_ms_p50", median(xs), "ms")
		b.layer("campaign.server_"+name+"_ms_p99", quantile(xs, 0.99), "ms")
	}
	b.layer("model.build_ms", median(durationsMS(spans, "model.build", recheck)), "ms")
	b.layer("flood.run_ms_p50", median(floodRuns), "ms")
	b.res.Samples["flood.run"] = len(floodRuns)
	return b.runLadder(firstModel, rng.Seed(b.seed, tagModel), cfg.LadderSteps, 0, "")
}

// submit submits a campaign and checks that it has every cell of the
// sweep.
func submit(ctx context.Context, c *campaign.Client, sw study.Sweep) (string, error) {
	id, cells, err := c.Submit(ctx, sw)
	if err == nil && cells != len(sw.Keys()) {
		err = fmt.Errorf("campaign has %d cells, want %d", cells, len(sw.Keys()))
	}
	return id, err
}

// farmRound runs one campaign.Work loop a worker, in drain mode, until
// every campaign on the farm is done. It returns the time from their
// start to the last acknowledgement and the cells they completed.
func (b *bench) farmRound(ctx context.Context, recs []*rpcRecorder, clients []*campaign.Client, parent int32) (time.Duration, int) {
	type outcome struct {
		cells, acked int
		err          error
	}
	outcomes := make([]outcome, len(recs))
	var wg sync.WaitGroup
	start := time.Now()
	for i, r := range recs {
		r.lane = b.tr.begin("farm.worker", parent, int64(i))
		acked := r.cells
		wg.Add(1)
		go func() {
			defer wg.Done()
			n, err := campaign.Work(ctx, clients[i], campaign.WorkerOpts{
				Name: "w" + strconv.Itoa(i), Workers: 1, Poll: farmPoll, Drain: true,
			})
			b.tr.end(r.lane)
			outcomes[i] = outcome{n, r.cells - acked, err}
		}()
	}
	wg.Wait()
	lastAck := start
	cells := 0
	for i, o := range outcomes {
		b.check("farm-workers", o.err == nil && o.cells == o.acked,
			"worker %d: %d cells, %d acknowledged: %v", i, o.cells, o.acked, o.err)
		cells += o.acked
		if recs[i].lastAck.After(lastAck) {
			lastAck = recs[i].lastAck
		}
	}
	return lastAck.Sub(start), cells
}

// drainedCampaign is what a round leaves behind to check once the timed
// phase is over and its peak resident set is read.
type drainedCampaign struct {
	sw     study.Sweep
	acked  int
	mx     campaign.Metrics
	found  bool
	report []byte
	ckpt   string // the campaign's checkpoint, moved out of its way
}

// collect takes what the checks need from a drained campaign — the
// server's ledger and report, and its checkpoint file — and deletes it.
func (b *bench) collect(ctx context.Context, f *farm, c *campaign.Client, id string, sw study.Sweep, acked, round int) drainedCampaign {
	d := drainedCampaign{sw: sw, acked: acked, ckpt: filepath.Join(f.dir, fmt.Sprintf("round-%d.jsonl", round))}
	d.mx, d.found = f.m.Metrics(id)
	var err error
	if d.report, err = c.Report(ctx, id, "csv"); err != nil {
		b.fail("farm-report", err)
	}
	// Every completion was fsync'd before it was acknowledged, so the file
	// is whole; Delete tolerates its absence.
	if err := os.Rename(filepath.Join(f.dir, id+".ckpt.jsonl"), d.ckpt); err != nil {
		b.fail("farm-checkpoint", err)
	}
	if err := c.Delete(ctx, id); err != nil {
		b.fail("farm-delete", err)
	}
	return d
}

// checkCampaign checks a drained campaign against what its workers saw:
// the server's ledger agrees with the acknowledgements and the checkpoint,
// every cell is done, the report rebuilt from the fsync'd checkpoint
// equals the server's, and every record holds the run invariants. It
// returns the records in grid order.
func (b *bench) checkCampaign(d drainedCampaign) []study.CellRecord {
	checkpointed, err := study.LoadCheckpoint(d.ckpt)
	if err != nil {
		b.fail("farm-checkpoint", err)
	}
	keys := d.sw.Keys()
	records := make([]study.CellRecord, 0, len(keys))
	for _, k := range keys { // grid order, as the server's report
		if rec, ok := checkpointed[k]; ok {
			records = append(records, rec)
		}
	}
	mx := d.mx
	b.check("farm-ledger", d.found && mx.CompletionsTotal == int64(d.acked) && mx.Done == len(keys) &&
		len(records) == len(keys) && int64(mx.Done) == mx.CompletionsTotal-mx.DuplicatesTotal && mx.ExpiriesTotal == 0,
		"server counted %d completions (%d duplicates, %d expiries) and %d of %d cells done; clients %d acks; checkpoint %d records",
		mx.CompletionsTotal, mx.DuplicatesTotal, mx.ExpiriesTotal, mx.Done, len(keys), d.acked, len(records))
	for _, rec := range records {
		b.checkRecord(rec)
	}
	var rebuilt bytes.Buffer
	err = study.WriteCSV(&rebuilt, study.Report(records))
	b.check("farm-report", err == nil && bytes.Equal(rebuilt.Bytes(), d.report),
		"report rebuilt from the checkpoint differs from the server's report (%v)", err)
	return records
}

// studyOf returns the study a farm cell record was computed from, run on
// one worker as the farm's workers run it.
func studyOf(rec study.CellRecord) (study.Study, error) {
	m, err := spec.Parse(rec.Model)
	if err != nil {
		return study.Study{}, err
	}
	p, err := spec.Parse(rec.Protocol)
	if err != nil {
		return study.Study{}, err
	}
	return study.Study{Model: m, Protocol: p, Source: rec.Source, Trials: rec.Trials,
		Seed: rec.Seed, Workers: 1, MaxSteps: rec.MaxSteps}, nil
}
