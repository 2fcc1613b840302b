package campaign_test

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/campaign"
	"repro/internal/model"
	_ "repro/internal/model/all"
	"repro/internal/protocol"
	"repro/internal/spec"
	"repro/internal/study"
	"repro/internal/telemetry"
)

func farmSweep() study.Sweep {
	return study.Sweep{
		Models: []spec.Spec{
			model.New("edgemeg").WithInt("n", 48).WithFloat("p", 0.04).WithFloat("q", 0.26),
			model.New("static").With("topology", "torus").WithInt("m", 6),
		},
		Protocols: []spec.Spec{
			protocol.New("flood"),
			protocol.New("push").WithInt("k", 2),
			protocol.New("pushpull").WithInt("k", 1),
		},
		Trials:   4,
		Seed:     5,
		MaxSteps: 1 << 13,
	}
}

// startServer boots a manager + HTTP server for tests. ttl is the real
// lease TTL — keep it short so expiry is testable.
func startServer(t *testing.T, dir string, ttl time.Duration) (*httptest.Server, *campaign.Manager) {
	t.Helper()
	mgr, err := campaign.NewManager(campaign.Options{Dir: dir, LeaseTTL: ttl})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(campaign.NewServer(mgr, nil))
	t.Cleanup(func() {
		srv.Close()
		mgr.Close()
	})
	return srv, mgr
}

// offlineReports runs the sweep locally — the single-process cmd/sweep
// path — and renders both report forms.
func offlineReports(t *testing.T, sw study.Sweep) (csv, md string) {
	t.Helper()
	records, err := study.RunSweep(sw, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	rows := study.Report(records)
	var csvBuf, mdBuf bytes.Buffer
	if err := study.WriteCSV(&csvBuf, rows); err != nil {
		t.Fatal(err)
	}
	if err := study.WriteMarkdown(&mdBuf, rows); err != nil {
		t.Fatal(err)
	}
	return csvBuf.String(), mdBuf.String()
}

// TestFarmEndToEnd is the acceptance test of the subsystem: a campaign
// executed by two concurrent workers over real HTTP, with a third worker
// dying mid-cell (lease acquired, never completed) so its cell must
// travel the expiry → re-lease path, produces CSV and markdown reports
// byte-identical to the same sweep run offline by the single-process
// runner — and the server's on-disk checkpoint is a plain sweep
// checkpoint readable by the -report-only path.
func TestFarmEndToEnd(t *testing.T) {
	dir := t.TempDir()
	const ttl = 200 * time.Millisecond
	srv, _ := startServer(t, dir, ttl)
	cl := &campaign.Client{Base: srv.URL}
	ctx := context.Background()

	sw := farmSweep()
	id, cells, err := cl.Submit(ctx, sw)
	if err != nil {
		t.Fatal(err)
	}
	if want := len(sw.Keys()); cells != want {
		t.Fatalf("submitted %d cells, want %d", cells, want)
	}

	// The dying worker: leases a cell over HTTP and is never heard from
	// again — exactly what kill -9 mid-cell looks like to the server.
	dead, status, err := cl.Lease(ctx, "doomed")
	if err != nil || status != campaign.StatusLeased {
		t.Fatalf("doomed lease: %v %q", err, status)
	}

	// Two live workers drain the farm concurrently. Their polls must
	// outlive the dead worker's lease TTL, which they do by retrying.
	var wg sync.WaitGroup
	results := make([]struct {
		completed int
		err       error
	}, 2)
	for w := range results {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			results[w].completed, results[w].err = campaign.Work(ctx, cl, campaign.WorkerOpts{
				Name:    []string{"alpha", "beta"}[w],
				Workers: 1,
				Poll:    20 * time.Millisecond,
				Drain:   true,
			})
		}(w)
	}
	wg.Wait()
	for w, r := range results {
		if r.err != nil {
			t.Fatalf("worker %d: %v", w, r.err)
		}
	}
	if got := results[0].completed + results[1].completed; got != cells {
		t.Fatalf("workers completed %d cells, want %d (every cell exactly once, incl. the re-leased one)", got, cells)
	}

	p, err := cl.Progress(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	if !p.Complete || p.Done != cells || p.Leased != 0 || p.Pending != 0 {
		t.Fatalf("final progress = %+v", p)
	}
	if p.MeanWallMS < 0 {
		t.Fatalf("mean wall ms = %v", p.MeanWallMS)
	}

	// Byte-identical reports vs the offline single-process run.
	wantCSV, wantMD := offlineReports(t, sw)
	gotCSV, err := cl.Report(ctx, id, "csv")
	if err != nil {
		t.Fatal(err)
	}
	if string(gotCSV) != wantCSV {
		t.Fatalf("farm CSV differs from offline run:\n%s\nvs\n%s", gotCSV, wantCSV)
	}
	gotMD, err := cl.Report(ctx, id, "md")
	if err != nil {
		t.Fatal(err)
	}
	if string(gotMD) != wantMD {
		t.Fatalf("farm markdown differs from offline run:\n%s\nvs\n%s", gotMD, wantMD)
	}

	// The dead worker rises and posts its stale completion: accepted,
	// flagged duplicate, and the report is unchanged.
	lateRec, err := study.RunSweep(study.Sweep{
		Models:    sw.Models[:1],
		Protocols: sw.Protocols[:1],
		Trials:    sw.Trials,
		Seed:      sw.Seed,
		MaxSteps:  sw.MaxSteps,
	}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if lateRec[0].Key() != dead.Cell.Key() {
		t.Fatalf("test setup: dead cell %s is not the first grid cell %s", dead.Cell.Key(), lateRec[0].Key())
	}
	dup, err := cl.Complete(ctx, dead.Campaign, dead.Token, lateRec[0])
	if err != nil {
		t.Fatalf("late duplicate completion rejected: %v", err)
	}
	if !dup {
		t.Fatal("late completion not flagged duplicate")
	}
	gotCSV2, err := cl.Report(ctx, id, "csv")
	if err != nil {
		t.Fatal(err)
	}
	if string(gotCSV2) != wantCSV {
		t.Fatalf("duplicate completion changed the report:\n%s\nvs\n%s", gotCSV2, wantCSV)
	}

	// The campaign checkpoint on disk is an ordinary sweep checkpoint:
	// -report-only aggregation over it reproduces the same CSV.
	ckpt := filepath.Join(dir, id+".ckpt.jsonl")
	done, err := study.LoadCheckpoint(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	var recs []study.CellRecord
	for _, rec := range done {
		recs = append(recs, rec)
	}
	var b strings.Builder
	if err := study.WriteCSV(&b, study.Report(recs)); err != nil {
		t.Fatal(err)
	}
	if b.String() != wantCSV {
		t.Fatalf("checkpoint-file aggregation differs:\n%s\nvs\n%s", b.String(), wantCSV)
	}
}

// TestWorkerGracefulRelease: a worker cancelled while holding an
// unstarted lease hands the cell back immediately instead of letting the
// TTL run out.
func TestWorkerGracefulRelease(t *testing.T) {
	srv, mgr := startServer(t, "", time.Hour) // TTL so long expiry can't mask release
	cl := &campaign.Client{Base: srv.URL}
	if _, _, err := cl.Submit(context.Background(), farmSweep()); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	donec := make(chan error, 1)
	go func() {
		_, err := campaign.Work(ctx, cl, campaign.WorkerOpts{
			Name: "held",
			Hold: time.Hour, // parks between lease and run until cancelled
		})
		donec <- err
	}()
	// Wait until the worker holds its lease, then shut it down.
	deadline := time.Now().Add(5 * time.Second)
	for {
		p, _ := mgr.Progress("c0")
		if p.Leased == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("worker never leased")
		}
		time.Sleep(5 * time.Millisecond)
	}
	cancel()
	if err := <-donec; err != nil {
		t.Fatal(err)
	}
	p, _ := mgr.Progress("c0")
	if p.Leased != 0 || p.Done != 0 {
		t.Fatalf("cancelled worker did not release: %+v", p)
	}
}

// TestWorkerCompletesAcrossCancel: a shutdown that lands while the
// worker's /complete request is in flight must not turn an acknowledged
// cell into a failure. The handler cancels the worker's context before the
// server records and acks the cell; Work must still report (1, nil).
func TestWorkerCompletesAcrossCancel(t *testing.T) {
	mgr, err := campaign.NewManager(campaign.Options{LeaseTTL: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer mgr.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	inner := campaign.NewServer(mgr, nil)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/complete" {
			cancel()
			// Give a cancellation-following client time to abandon the
			// request, then record and ack the cell regardless.
			select {
			case <-r.Context().Done():
			case <-time.After(200 * time.Millisecond):
			}
			r = r.WithContext(context.Background())
		}
		inner.ServeHTTP(w, r)
	}))
	defer srv.Close()
	cl := &campaign.Client{Base: srv.URL}
	sw := farmSweep()
	sw.Models, sw.Protocols = sw.Models[:1], sw.Protocols[:1]
	id, _, err := cl.Submit(context.Background(), sw)
	if err != nil {
		t.Fatal(err)
	}
	completed, err := campaign.Work(ctx, cl, campaign.WorkerOpts{Name: "w", Workers: 1})
	if completed != 1 || err != nil {
		t.Fatalf("Work = (%d, %v), want (1, nil)", completed, err)
	}
	if p, _ := mgr.Progress(id); p.Done != 1 || !p.Complete {
		t.Fatalf("server progress after an acknowledged completion: %+v", p)
	}
}

// TestServerRejects covers the HTTP error surface.
func TestServerRejects(t *testing.T) {
	srv, _ := startServer(t, "", time.Minute)
	post := func(path, body string) (int, string) {
		resp, err := http.Post(srv.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var e struct {
			Error string `json:"error"`
		}
		_ = json.NewDecoder(resp.Body).Decode(&e)
		return resp.StatusCode, e.Error
	}

	if code, _ := post("/campaigns", `{"models":[],"protocols":["flood"],"trials":3}`); code != http.StatusBadRequest {
		t.Fatalf("empty sweep: %d", code)
	}
	if code, _ := post("/campaigns", `not json`); code != http.StatusBadRequest {
		t.Fatalf("bad json: %d", code)
	}
	if code, _ := post("/complete", `{"campaign":"nope","token":"t","record":{}}`); code != http.StatusBadRequest {
		t.Fatalf("unknown campaign complete: %d", code)
	}
	if code, _ := post("/release", `{"campaign":"nope","token":"t"}`); code != http.StatusNotFound {
		t.Fatalf("unknown campaign release: %d", code)
	}
	resp, err := http.Get(srv.URL + "/campaigns/nope")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown campaign progress: %d", resp.StatusCode)
	}
	resp, err = http.Get(srv.URL + "/campaigns/nope/report")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown campaign report: %d", resp.StatusCode)
	}

	// A submitted campaign with a bad report format.
	if code, _ := post("/campaigns", `{"models":["edgemeg:n=32,p=0.05,q=0.3"],"protocols":["flood"],"trials":2,"seed":1}`); code != http.StatusCreated {
		t.Fatalf("valid submit: %d", code)
	}
	resp, err = http.Get(srv.URL + "/campaigns/c0/report?format=xml")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad report format: %d", resp.StatusCode)
	}
}

// TestDeleteAndMetricsHTTP exercises the new endpoints over real HTTP:
// DELETE /campaigns/{id} (409 while leased, 200 when idle, 404 after),
// GET /campaigns/{id}/metrics, and GET /metrics with a telemetry
// collector wired into the manager.
func TestDeleteAndMetricsHTTP(t *testing.T) {
	dir := t.TempDir()
	col := telemetry.New(telemetry.Options{})
	mgr, err := campaign.NewManager(campaign.Options{Dir: dir, LeaseTTL: time.Minute, Telemetry: col})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(campaign.NewServer(mgr, nil))
	defer func() {
		srv.Close()
		mgr.Close()
	}()
	cl := &campaign.Client{Base: srv.URL, Retries: 2, Backoff: 10 * time.Millisecond}
	ctx := context.Background()

	sw := farmSweep()
	id, _, err := cl.Submit(ctx, sw)
	if err != nil {
		t.Fatal(err)
	}
	l, status, err := cl.Lease(ctx, "worker-a")
	if err != nil || status != campaign.StatusLeased {
		t.Fatalf("lease: %v %q", err, status)
	}
	// The first lease is the first grid cell; compute its record offline.
	recs, err := study.RunSweep(study.Sweep{
		Models:    sw.Models[:1],
		Protocols: sw.Protocols[:1],
		Trials:    sw.Trials,
		Seed:      sw.Seed,
		MaxSteps:  sw.MaxSteps,
	}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if recs[0].Key() != l.Cell.Key() {
		t.Fatalf("test setup: leased cell %s is not the first grid cell", l.Cell.Key())
	}
	if _, err := cl.Complete(ctx, id, l.Token, recs[0]); err != nil {
		t.Fatal(err)
	}

	// Heartbeat surfaces in GET /campaigns/{id}.
	p, err := cl.Progress(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Workers) != 1 || p.Workers[0].Worker != "worker-a" ||
		p.Workers[0].Completed != 1 || p.Workers[0].LastSeenMS == 0 {
		t.Fatalf("progress workers = %+v", p.Workers)
	}

	// Campaign metrics counters over HTTP.
	mx, err := cl.Metrics(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	if mx.LeasesTotal != 1 || mx.CompletionsTotal != 1 || mx.Done != 1 {
		t.Fatalf("campaign metrics = %+v", mx)
	}

	// Farm-wide metrics include the collector snapshot (runtime rows).
	fm, err := cl.FarmMetrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if fm.Campaigns != 1 || fm.Done != 1 {
		t.Fatalf("farm metrics = %+v", fm)
	}
	if fm.Telemetry["heap_bytes"] <= 0 || fm.Telemetry["campaigns"] != 1 {
		t.Fatalf("farm telemetry snapshot = %v", fm.Telemetry)
	}

	// Delete refuses while a lease is out (409 = permanent, no retry).
	l2, status, err := cl.Lease(ctx, "worker-b")
	if err != nil || status != campaign.StatusLeased {
		t.Fatalf("second lease: %v %q", err, status)
	}
	if err := cl.Delete(ctx, id); err == nil || !strings.Contains(err.Error(), "409") {
		t.Fatalf("delete while leased: %v, want 409", err)
	}
	if err := cl.Release(ctx, id, l2.Token); err != nil {
		t.Fatal(err)
	}
	if err := cl.Delete(ctx, id); err != nil {
		t.Fatalf("delete idle: %v", err)
	}
	if _, err := cl.Progress(ctx, id); err == nil || !strings.Contains(err.Error(), "404") {
		t.Fatalf("progress after delete: %v, want 404", err)
	}
	if err := cl.Delete(ctx, id); err == nil || !strings.Contains(err.Error(), "404") {
		t.Fatalf("double delete: %v, want 404", err)
	}
	for _, name := range []string{id + ".sweep.json", id + ".ckpt.jsonl"} {
		if _, err := os.Stat(filepath.Join(dir, name)); !os.IsNotExist(err) {
			t.Fatalf("%s survived deletion (err=%v)", name, err)
		}
	}
}
