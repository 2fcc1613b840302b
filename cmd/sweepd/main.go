// Command sweepd is the sweep-campaign server: the farm coordinator that
// turns the single-box cmd/sweep runner into a shared service. It accepts
// whole sweep grids over an HTTP/JSON API, leases cells to cmd/sweep
// workers, streams completed records into per-campaign fsync'd JSONL
// checkpoints (the exact format cmd/sweep writes locally, so any campaign
// file is readable by `sweep -report-only`), and serves live progress and
// report endpoints. See docs/SWEEPD.md for the protocol.
//
// Usage:
//
//	sweepd -addr :8377 -dir /var/lib/sweepd
//	sweepd -addr :8377 -dir /var/lib/sweepd -telemetry /var/lib/sweepd/tel
//
// -telemetry enables the internal/telemetry collector: farm-wide gauges
// (campaigns, cells done/leased/pending, heap/GC stats) sampled once per
// second into <dir>/sweepd.ftdc.jsonl, and live snapshots on GET /metrics
// and GET /campaigns/{id}/metrics. See docs/TELEMETRY.md.
//
// Submit, watch, and fetch:
//
//	sweep -server http://host:8377 -submit -file grid.json
//	curl http://host:8377/campaigns/c0
//	curl "http://host:8377/campaigns/c0/report?format=csv"
//
// Run workers (any number of machines):
//
//	sweep -server http://host:8377
//
// Worker death needs no operator action: a cell whose lease expires is
// re-leased, and a late completion from a presumed-dead worker is a
// harmless duplicate (later-duplicate-wins, the checkpoint's existing
// contract). With -dir set the server itself is crash-safe: a restart
// reloads every campaign's sweep definition and checkpoint and re-derives
// the pending set; only in-flight cells rerun.
//
// SIGINT/SIGTERM shut down gracefully: in-flight HTTP requests finish
// (completions hitting the fsync'd checkpoint are never dropped
// mid-write), checkpoint files are closed, and the process exits 0.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"repro/internal/campaign"
	_ "repro/internal/model/all"
	"repro/internal/telemetry"
)

// HTTP timeouts. Workers and clients send small JSON bodies, so reads are
// short; writeTimeout must outlast the slowest handler, which renders the
// report of a large campaign, and idleTimeout bounds the keep-alive
// connections polling workers hold open between leases.
const (
	readHeaderTimeout = 10 * time.Second
	readTimeout       = time.Minute
	writeTimeout      = 5 * time.Minute
	idleTimeout       = 2 * time.Minute
)

func main() {
	addr := flag.String("addr", ":8377", "listen address")
	dir := flag.String("dir", "", "state directory: per-campaign sweep definitions + JSONL checkpoints; empty = in-memory only (campaigns die with the process)")
	leaseTTL := flag.Duration("lease-ttl", campaign.DefaultLeaseTTL, "floor lease duration; leases stretch automatically with observed cell wall time")
	telemetryDir := flag.String("telemetry", "", "directory for the server's FTDC-style metrics capture (sweepd.ftdc.jsonl); also feeds GET /metrics")
	flag.Parse()

	logger := log.New(os.Stderr, "sweepd: ", log.LstdFlags)
	if *dir == "" {
		logger.Printf("no -dir: running in-memory; campaigns will not survive a restart")
	}
	var col *telemetry.Collector
	var capture *telemetry.Capture
	if *telemetryDir != "" {
		if err := os.MkdirAll(*telemetryDir, 0o755); err != nil {
			logger.Fatal(err)
		}
		var err error
		capture, err = telemetry.OpenCapture(filepath.Join(*telemetryDir, "sweepd"+telemetry.Ext), telemetry.CaptureOptions{})
		if err != nil {
			logger.Fatal(err)
		}
		col = telemetry.New(telemetry.Options{})
	}
	mgr, err := campaign.NewManager(campaign.Options{Dir: *dir, LeaseTTL: *leaseTTL, Telemetry: col})
	if err != nil {
		logger.Fatal(err)
	}
	if col != nil {
		// Start after NewManager so the very first sample already carries
		// the farm gauges the manager registers.
		col.Start(capture)
		logger.Printf("telemetry capture at %s", capture.Path())
	}
	for _, c := range mgr.Campaigns() {
		p, _ := mgr.Progress(c.ID())
		logger.Printf("reloaded campaign %s: %d/%d cells done", c.ID(), p.Done, p.Cells)
	}

	srv := &http.Server{
		Addr:              *addr,
		Handler:           campaign.NewServer(mgr, logger),
		ReadHeaderTimeout: readHeaderTimeout,
		ReadTimeout:       readTimeout,
		WriteTimeout:      writeTimeout,
		IdleTimeout:       idleTimeout,
	}
	errc := make(chan error, 1)
	go func() {
		logger.Printf("listening on %s (lease ttl >= %s, state dir %q)", *addr, *leaseTTL, *dir)
		errc <- srv.ListenAndServe()
	}()

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	select {
	case err := <-errc:
		// ListenAndServe only returns on failure here (Shutdown is below).
		logger.Fatal(err)
	case <-ctx.Done():
	}
	logger.Printf("signal received; shutting down")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		logger.Printf("shutdown: %v", err)
	}
	if err := mgr.Close(); err != nil {
		logger.Printf("closing checkpoints: %v", err)
	}
	if col != nil {
		if err := col.Stop(); err != nil {
			logger.Printf("telemetry: %v", err)
		}
		if err := capture.Close(); err != nil {
			logger.Printf("telemetry: %v", err)
		}
	}
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		logger.Printf("serve: %v", err)
	}
	fmt.Fprintln(os.Stderr, "sweepd: bye")
}
