package campaign

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/model"
	_ "repro/internal/model/all"
	"repro/internal/protocol"
	"repro/internal/spec"
	"repro/internal/study"
)

// testSweep is a tiny 2×2 grid (4 cells) cheap enough to execute for real
// when a test needs genuine records.
func testSweep() study.Sweep {
	return study.Sweep{
		Models: []spec.Spec{
			model.New("edgemeg").WithInt("n", 32).WithFloat("p", 0.05).WithFloat("q", 0.3),
			model.New("static").With("topology", "torus").WithInt("m", 4),
		},
		Protocols: []spec.Spec{
			protocol.New("flood"),
			protocol.New("push").WithInt("k", 2),
		},
		Trials:   3,
		Seed:     11,
		MaxSteps: 1 << 12,
	}
}

// fakeClock is a mutable test clock.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Unix(1_700_000_000, 0)}
}

func (c *fakeClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t = c.t.Add(d)
}

// newTestManager builds a memory-only manager on a fake clock.
func newTestManager(t *testing.T, ttl time.Duration) (*Manager, *fakeClock) {
	t.Helper()
	clock := newFakeClock()
	m, err := NewManager(Options{LeaseTTL: ttl, Now: clock.now})
	if err != nil {
		t.Fatal(err)
	}
	return m, clock
}

// recordFor executes a leased cell for real, as a worker would.
func recordFor(t *testing.T, cell Cell) study.CellRecord {
	t.Helper()
	rec, err := runCell(cell, 1)
	if err != nil {
		t.Fatal(err)
	}
	return rec
}

func TestLeaseLifecycle(t *testing.T) {
	m, clock := newTestManager(t, time.Minute)
	sw := testSweep()
	c, err := m.Submit(sw)
	if err != nil {
		t.Fatal(err)
	}
	total := len(sw.Keys())

	// Every cell leases exactly once; grid order; distinct tokens.
	seen := map[string]bool{}
	var leases []Lease
	for i := 0; i < total; i++ {
		l, status := m.Lease("w1")
		if status != StatusLeased {
			t.Fatalf("lease %d: status %q", i, status)
		}
		if l.Campaign != c.ID() {
			t.Fatalf("lease %d: campaign %q", i, l.Campaign)
		}
		if l.Cell.Key() != sw.Keys()[i] {
			t.Fatalf("lease %d: got %s, want %s (grid order)", i, l.Cell.Key(), sw.Keys()[i])
		}
		if seen[l.Token] || l.Token == "" {
			t.Fatalf("lease %d: token %q reused or empty", i, l.Token)
		}
		seen[l.Token] = true
		leases = append(leases, l)
	}
	// Everything is out on lease: idle, not drained.
	if _, status := m.Lease("w2"); status != StatusIdle {
		t.Fatalf("all-leased status = %q, want idle", status)
	}
	p, _ := m.Progress(c.ID())
	if p.Leased != total || p.Done != 0 || p.Pending != 0 {
		t.Fatalf("progress = %+v", p)
	}

	// Complete them all.
	for _, l := range leases {
		rec := recordFor(t, l.Cell)
		fresh, err := m.Complete(l.Campaign, l.Token, rec)
		if err != nil {
			t.Fatal(err)
		}
		if !fresh {
			t.Fatalf("first completion of %s reported duplicate", l.Cell.Key())
		}
	}
	p, _ = m.Progress(c.ID())
	if !p.Complete || p.Done != total {
		t.Fatalf("after completions: %+v", p)
	}
	if _, status := m.Lease("w1"); status != StatusDrained {
		t.Fatal("complete campaign does not drain")
	}

	// The report over the campaign records matches a local run of the
	// same sweep byte for byte.
	clock.advance(time.Hour) // report must not depend on the clock
	local, err := study.RunSweep(sw, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := renderCSV(t, local)
	got := renderCSV(t, c.records())
	if want != got {
		t.Fatalf("campaign report differs from local run:\n%s\nvs\n%s", got, want)
	}
}

func renderCSV(t *testing.T, recs []study.CellRecord) string {
	t.Helper()
	var b strings.Builder
	if err := study.WriteCSV(&b, study.Report(recs)); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

func TestLeaseExpiryRelease(t *testing.T) {
	m, clock := newTestManager(t, time.Minute)
	sw := testSweep()
	c, _ := m.Submit(sw)

	// Lease a cell and let it expire: it must be re-leased, with a new
	// token, to the next asker.
	l1, status := m.Lease("dying")
	if status != StatusLeased {
		t.Fatal(status)
	}
	clock.advance(2 * time.Minute)
	l2, status := m.Lease("healthy")
	if status != StatusLeased {
		t.Fatal(status)
	}
	if l2.Cell.Key() != l1.Cell.Key() {
		t.Fatalf("expired cell not re-leased first: got %s, want %s", l2.Cell.Key(), l1.Cell.Key())
	}
	if l2.Token == l1.Token {
		t.Fatal("re-lease reused the dead token")
	}

	// The dead worker completes anyway: accepted, and the healthy
	// worker's in-flight lease on the same cell is retired with it.
	rec := recordFor(t, l1.Cell)
	fresh, err := m.Complete(c.ID(), l1.Token, rec)
	if err != nil || !fresh {
		t.Fatalf("late completion: fresh=%v err=%v", fresh, err)
	}
	// The healthy worker's duplicate completion is accepted, idempotent.
	fresh, err = m.Complete(c.ID(), l2.Token, rec)
	if err != nil {
		t.Fatal(err)
	}
	if fresh {
		t.Fatal("duplicate completion reported fresh")
	}
	p, _ := m.Progress(c.ID())
	if p.Done != 1 || p.Leased != 0 {
		t.Fatalf("after duplicate completion: %+v", p)
	}

	// Graceful release returns a cell to pending immediately.
	l3, _ := m.Lease("w")
	if err := m.Release(c.ID(), l3.Token); err != nil {
		t.Fatal(err)
	}
	l4, status := m.Lease("w")
	if status != StatusLeased || l4.Cell.Key() != l3.Cell.Key() {
		t.Fatalf("released cell not immediately re-leased: %q %s vs %s", status, l4.Cell.Key(), l3.Cell.Key())
	}
	// A stale release token must not yank the re-leased cell.
	if err := m.Release(c.ID(), l3.Token); err != nil {
		t.Fatal(err)
	}
	p, _ = m.Progress(c.ID())
	if p.Leased != 1 {
		t.Fatalf("stale release disturbed the live lease: %+v", p)
	}
}

func TestCompleteValidation(t *testing.T) {
	m, _ := newTestManager(t, time.Minute)
	sw := testSweep()
	c, _ := m.Submit(sw)
	l, _ := m.Lease("w")
	good := recordFor(t, l.Cell)

	bad := []struct {
		name string
		edit func(*study.CellRecord)
	}{
		{"foreign key", func(r *study.CellRecord) { r.Model = "edgemeg:n=999,p=0.05,q=0.3" }},
		{"truncated slices", func(r *study.CellRecord) { r.Times = r.Times[:1] }},
		{"zero trials", func(r *study.CellRecord) { r.Trials = 0 }},
		{"wrong max_steps", func(r *study.CellRecord) { r.MaxSteps = 7 }},
		{"wrong source", func(r *study.CellRecord) { r.Source = 3 }},
		{"negative wall", func(r *study.CellRecord) { r.WallMS = -5 }},
	}
	for _, tc := range bad {
		rec := good
		rec.Times = append([]int{}, good.Times...)
		tc.edit(&rec)
		if _, err := m.Complete(c.ID(), l.Token, rec); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
	// The cell must still be completable after the rejections.
	if fresh, err := m.Complete(c.ID(), l.Token, good); err != nil || !fresh {
		t.Fatalf("good completion after rejects: fresh=%v err=%v", fresh, err)
	}
	// Unknown campaign.
	if _, err := m.Complete("nope", l.Token, good); err == nil {
		t.Fatal("unknown campaign accepted")
	}
}

// TestCompletionWithoutLease pins the trust model: a valid record for a
// never-leased cell is accepted (results are a pure function of the key,
// so provenance does not matter), which is exactly why worker death needs
// no fencing.
func TestCompletionWithoutLease(t *testing.T) {
	m, _ := newTestManager(t, time.Minute)
	sw := testSweep()
	c, _ := m.Submit(sw)
	cell := c.cellPayload(2)
	rec := recordFor(t, cell)
	fresh, err := m.Complete(c.ID(), "no-such-token", rec)
	if err != nil || !fresh {
		t.Fatalf("unleased completion: fresh=%v err=%v", fresh, err)
	}
	p, _ := m.Progress(c.ID())
	if p.Done != 1 {
		t.Fatalf("progress after unleased completion: %+v", p)
	}
}

// TestCompletionWithForeignToken: a completion carrying another cell's
// token retires only the completed cell's lease and credits no worker.
// The token's own lease stays with its holder, who can still release it,
// and the released cell is the next one leased — it is not stranded as
// leased with no lease left to expire.
func TestCompletionWithForeignToken(t *testing.T) {
	m, clock := newTestManager(t, time.Minute)
	c, _ := m.Submit(testSweep())
	l0, _ := m.Lease("w0")
	l1, _ := m.Lease("w1")
	if _, err := m.Complete(c.ID(), l1.Token, recordFor(t, l0.Cell)); err != nil {
		t.Fatal(err)
	}
	if err := m.Release(c.ID(), l1.Token); err != nil {
		t.Fatal(err)
	}
	clock.advance(2 * time.Minute)
	p, _ := m.Progress(c.ID())
	if p.Done != 1 || p.Leased != 0 || p.Pending != 3 {
		t.Fatalf("progress = %+v, want Done:1 Leased:0 Pending:3", p)
	}
	for _, wp := range p.Workers {
		if wp.Completed != 0 {
			t.Fatalf("worker %s credited with a completion made under a foreign token", wp.Worker)
		}
	}
	l, status := m.Lease("w2")
	if status != StatusLeased || l.Cell.Key() != l1.Cell.Key() {
		t.Fatalf("next lease = %q %s, want cell 1 (%s)", status, l.Cell.Key(), l1.Cell.Key())
	}
}

// TestAdaptiveLeaseTTL: once cells complete with wall_ms, lease TTLs
// stretch to leaseWallFactor × the observed mean.
func TestAdaptiveLeaseTTL(t *testing.T) {
	m, _ := newTestManager(t, time.Millisecond)
	sw := testSweep()
	c, _ := m.Submit(sw)
	l, _ := m.Lease("w")
	rec := recordFor(t, l.Cell)
	rec.WallMS = 10_000 // pretend the cell took 10s
	if _, err := m.Complete(c.ID(), l.Token, rec); err != nil {
		t.Fatal(err)
	}
	l2, status := m.Lease("w")
	if status != StatusLeased {
		t.Fatal(status)
	}
	if want := int64(10_000 * leaseWallFactor); l2.TTLMS != want {
		t.Fatalf("adaptive ttl = %dms, want %dms", l2.TTLMS, want)
	}
}

// TestManagerPersistence: a manager restarted on the same directory
// reloads campaigns, keeps completed cells done, and re-derives pending —
// including a kill-severed checkpoint tail.
func TestManagerPersistence(t *testing.T) {
	dir := t.TempDir()
	clock := newFakeClock()
	m1, err := NewManager(Options{Dir: dir, LeaseTTL: time.Minute, Now: clock.now})
	if err != nil {
		t.Fatal(err)
	}
	sw := testSweep()
	c1, err := m1.Submit(sw)
	if err != nil {
		t.Fatal(err)
	}
	l, _ := m1.Lease("w")
	rec := recordFor(t, l.Cell)
	if _, err := m1.Complete(c1.ID(), l.Token, rec); err != nil {
		t.Fatal(err)
	}
	if err := m1.Close(); err != nil {
		t.Fatal(err)
	}

	// Sever the checkpoint tail as a crash would, then restart.
	path := filepath.Join(dir, c1.ID()+".ckpt.jsonl")
	appendBytes(t, path, `{"model":"half-writ`)
	m2, err := NewManager(Options{Dir: dir, LeaseTTL: time.Minute, Now: clock.now})
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	p, ok := m2.Progress(c1.ID())
	if !ok {
		t.Fatalf("campaign %s not reloaded", c1.ID())
	}
	if p.Done != 1 || p.Pending != len(sw.Keys())-1 || p.Leased != 0 {
		t.Fatalf("reloaded progress = %+v", p)
	}
	// The reloaded campaign serves the remaining cells — not the done one.
	l2, status := m2.Lease("w")
	if status != StatusLeased {
		t.Fatal(status)
	}
	if l2.Cell.Key() == rec.Key() {
		t.Fatal("reloaded campaign re-served a completed cell")
	}
	// A fresh submission gets a fresh id (the sequence survives restart).
	c2, err := m2.Submit(sw)
	if err != nil {
		t.Fatal(err)
	}
	if c2.ID() == c1.ID() {
		t.Fatalf("id collision after restart: %s", c2.ID())
	}
}

func appendBytes(t *testing.T, path, chunk string) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(chunk); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentFarm hammers one campaign from many goroutines under the
// race detector: concurrent lease/complete/release/progress with an
// aggressive TTL so expiry and duplicate completion interleave. The farm
// must converge to a complete campaign whose report matches a local run.
func TestConcurrentFarm(t *testing.T) {
	// Real clock: expiry genuinely races against the workers.
	m, err := NewManager(Options{LeaseTTL: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	sw := testSweep()
	c, err := m.Submit(sw)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				l, status := m.Lease(fmt.Sprintf("w%d", w))
				switch status {
				case StatusDrained:
					return
				case StatusIdle:
					time.Sleep(time.Millisecond)
					continue
				}
				rec := recordFor(t, l.Cell)
				if w%3 == 0 {
					// An unreliable worker: sometimes release, sometimes
					// complete late with a stale token.
					_ = m.Release(l.Campaign, l.Token)
				}
				if _, err := m.Complete(l.Campaign, l.Token, rec); err != nil {
					t.Error(err)
					return
				}
				_, _ = m.Progress(l.Campaign)
			}
		}(w)
	}
	wg.Wait()
	p, _ := m.Progress(c.ID())
	if !p.Complete {
		t.Fatalf("farm did not converge: %+v", p)
	}
	local, err := study.RunSweep(sw, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := renderCSV(t, c.records()), renderCSV(t, local); got != want {
		t.Fatalf("concurrent farm report differs:\n%s\nvs\n%s", got, want)
	}
}

// TestWorkerHeartbeatsAndMetrics pins the diagnostic bookkeeping: per-
// worker last-seen/completed/mean-wall attribution and the campaign's
// lifetime event counters, including the stale-token path (completion
// counted, no worker credited) and expiry counting.
func TestWorkerHeartbeatsAndMetrics(t *testing.T) {
	m, clock := newTestManager(t, time.Minute)
	sw := testSweep()
	c, err := m.Submit(sw)
	if err != nil {
		t.Fatal(err)
	}

	l1, _ := m.Lease("alpha")
	rec1 := recordFor(t, l1.Cell)
	clock.advance(10 * time.Second)
	if _, err := m.Complete(c.ID(), l1.Token, rec1); err != nil {
		t.Fatal(err)
	}

	// beta leases and releases: seen, zero completions.
	l2, _ := m.Lease("beta")
	if err := m.Release(c.ID(), l2.Token); err != nil {
		t.Fatal(err)
	}

	// gamma leases and dies; expiry must not credit a completion.
	if _, status := m.Lease("gamma"); status != StatusLeased {
		t.Fatalf("gamma lease status %q", status)
	}
	clock.advance(2 * time.Minute) // past TTL

	// A duplicate completion with a stale token still counts the event but
	// credits no worker (the lease is gone).
	if _, err := m.Complete(c.ID(), "stale-token", rec1); err != nil {
		t.Fatal(err)
	}

	p, ok := m.Progress(c.ID())
	if !ok {
		t.Fatal("campaign vanished")
	}
	if len(p.Workers) != 3 {
		t.Fatalf("got %d workers, want 3: %+v", len(p.Workers), p.Workers)
	}
	byName := map[string]WorkerProgress{}
	for _, wp := range p.Workers {
		byName[wp.Worker] = wp
	}
	alpha := byName["alpha"]
	if alpha.Completed != 1 || alpha.MeanWallMS != float64(rec1.WallMS) {
		t.Fatalf("alpha = %+v, want 1 completion of %dms", alpha, rec1.WallMS)
	}
	wantSeen := clock.now().Add(-2*time.Minute - 10*time.Second).UnixMilli()
	if alpha.LastSeenMS != wantSeen+10_000 {
		t.Fatalf("alpha last seen %d, want %d", alpha.LastSeenMS, wantSeen+10_000)
	}
	if beta := byName["beta"]; beta.Completed != 0 {
		t.Fatalf("beta = %+v, want 0 completions", beta)
	}
	if gamma := byName["gamma"]; gamma.Completed != 0 {
		t.Fatalf("gamma = %+v, want 0 completions", gamma)
	}

	mx, ok := m.Metrics(c.ID())
	if !ok {
		t.Fatal("metrics vanished")
	}
	if mx.LeasesTotal != 3 || mx.CompletionsTotal != 2 || mx.DuplicatesTotal != 1 ||
		mx.ReleasesTotal != 1 || mx.ExpiriesTotal != 1 {
		t.Fatalf("counters = %+v", mx)
	}
	if mx.Done != 1 {
		t.Fatalf("done = %d, want 1", mx.Done)
	}
}

// TestDeleteCampaign pins the GC contract: refuse while leased, remove
// memory and disk state when idle, ErrUnknown for foreign ids, and no
// resurrection on manager reload.
func TestDeleteCampaign(t *testing.T) {
	dir := t.TempDir()
	clock := newFakeClock()
	m, err := NewManager(Options{Dir: dir, LeaseTTL: time.Minute, Now: clock.now})
	if err != nil {
		t.Fatal(err)
	}
	sw := testSweep()
	c, err := m.Submit(sw)
	if err != nil {
		t.Fatal(err)
	}
	keep, err := m.Submit(sw) // a second campaign that must survive
	if err != nil {
		t.Fatal(err)
	}

	l, _ := m.Lease("w")
	if err := m.Delete(c.ID()); !errors.Is(err, ErrBusy) {
		t.Fatalf("delete while leased: %v, want ErrBusy", err)
	}
	if err := m.Release(c.ID(), l.Token); err != nil {
		t.Fatal(err)
	}
	if err := m.Delete(c.ID()); err != nil {
		t.Fatalf("delete idle campaign: %v", err)
	}
	if _, ok := m.Get(c.ID()); ok {
		t.Fatal("deleted campaign still resolvable")
	}
	for _, name := range []string{c.ID() + ".sweep.json", c.ID() + ".ckpt.jsonl"} {
		if _, err := os.Stat(filepath.Join(dir, name)); !os.IsNotExist(err) {
			t.Fatalf("%s survived deletion (err=%v)", name, err)
		}
	}
	if err := m.Delete("c999"); !errors.Is(err, ErrUnknown) {
		t.Fatalf("delete unknown: %v, want ErrUnknown", err)
	}

	// The surviving campaign still leases, and a reload sees only it.
	if _, status := m.Lease("w"); status != StatusLeased {
		t.Fatalf("surviving campaign does not lease: %q", status)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	m2, err := NewManager(Options{Dir: dir, LeaseTTL: time.Minute, Now: clock.now})
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	if got := len(m2.Campaigns()); got != 1 {
		t.Fatalf("reload found %d campaigns, want 1", got)
	}
	if _, ok := m2.Get(keep.ID()); !ok {
		t.Fatalf("reload lost surviving campaign %s", keep.ID())
	}
	// Deleted-id sequence is not reused: a new submission gets a fresh id.
	c3, err := m2.Submit(sw)
	if err != nil {
		t.Fatal(err)
	}
	if c3.ID() == c.ID() {
		t.Fatalf("deleted id %s was reused", c.ID())
	}
}
