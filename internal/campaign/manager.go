package campaign

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/study"
	"repro/internal/telemetry"
)

// DefaultLeaseTTL is the floor lease duration when the server is not
// configured otherwise. Leases additionally stretch with the observed
// per-cell wall time (see Options.LeaseTTL), so the default only needs to
// cover cheap cells plus network slack.
const DefaultLeaseTTL = 2 * time.Minute

// leaseWallFactor scales the observed mean per-cell wall time into a
// lease TTL: a worker is presumed dead only after several multiples of
// the time cells actually take, so slow grids do not thrash with spurious
// expiry while fast grids still recover from dead workers quickly.
const leaseWallFactor = 8

// LeaseStatus reports what a lease request yielded.
type LeaseStatus string

const (
	// StatusLeased: a cell was granted.
	StatusLeased LeaseStatus = "leased"
	// StatusIdle: no cell is pending right now, but unexpired leases are
	// outstanding (work may reappear if one expires) or campaigns may
	// still arrive. Workers should poll again.
	StatusIdle LeaseStatus = "idle"
	// StatusDrained: every cell of every campaign is done. Workers
	// running with -drain exit on this.
	StatusDrained LeaseStatus = "drained"
)

// Options configures a Manager.
type Options struct {
	// Dir is the state directory: each campaign persists a sweep
	// definition (<id>.sweep.json) and its checkpoint (<id>.ckpt.jsonl)
	// there, and a restarted manager reloads both, so a server crash
	// costs only the cells that were in flight. Empty means memory-only.
	Dir string
	// LeaseTTL is the floor lease duration (DefaultLeaseTTL when 0). The
	// effective TTL per campaign is max(LeaseTTL, leaseWallFactor × mean
	// observed cell wall time), so TTLs adapt to the grid's actual cost.
	LeaseTTL time.Duration
	// Now overrides the clock, for tests. Defaults to time.Now.
	Now func() time.Time
	// Telemetry, when non-nil, gains farm-wide gauges (campaigns,
	// farm_cells_done, farm_cells_leased, farm_cells_pending) that the
	// collector's ticker samples by walking the campaign table — entirely
	// off the request path.
	Telemetry *telemetry.Collector
}

// Manager owns every campaign on the server: submission, persistence,
// lease scheduling across campaigns, and completion routing. All methods
// are safe for concurrent use.
type Manager struct {
	dir string
	ttl time.Duration
	now func() time.Time

	telemetry *telemetry.Collector

	mu        sync.RWMutex
	campaigns map[string]*Campaign
	order     []string // submission order: oldest campaign leases first
	seq       int
}

// NewManager creates a manager, reloading any campaigns persisted in
// opts.Dir (creating the directory when missing).
func NewManager(opts Options) (*Manager, error) {
	m := &Manager{
		dir:       opts.Dir,
		ttl:       opts.LeaseTTL,
		now:       opts.Now,
		telemetry: opts.Telemetry,
		campaigns: make(map[string]*Campaign),
	}
	if m.ttl <= 0 {
		m.ttl = DefaultLeaseTTL
	}
	if m.now == nil {
		m.now = time.Now
	}
	if m.dir != "" {
		if err := os.MkdirAll(m.dir, 0o755); err != nil {
			return nil, err
		}
		if err := m.reload(); err != nil {
			return nil, err
		}
	}
	if m.telemetry != nil {
		m.telemetry.Gauge("campaigns", func() int64 {
			m.mu.RLock()
			defer m.mu.RUnlock()
			return int64(len(m.campaigns))
		})
		m.telemetry.Gauge("farm_cells_done", func() int64 { return m.cellTotals().done })
		m.telemetry.Gauge("farm_cells_leased", func() int64 { return m.cellTotals().leased })
		m.telemetry.Gauge("farm_cells_pending", func() int64 { return m.cellTotals().pending })
	}
	return m, nil
}

// cellTotals sums the cell-state partition over every campaign — the
// farm-wide gauge source and the GET /metrics aggregate.
func (m *Manager) cellTotals() (t struct{ done, leased, pending int64 }) {
	now := m.now()
	for _, c := range m.Campaigns() {
		done, leased, pending := c.counts(now)
		t.done += int64(done)
		t.leased += int64(leased)
		t.pending += int64(pending)
	}
	return t
}

// reload restores persisted campaigns: for every <id>.sweep.json the
// checkpoint is reopened (kill-severed tails healed by OpenCheckpoint)
// and done cells are re-derived from it. Lease state is deliberately not
// persisted — leases are short-lived by construction, and re-leasing a
// cell that was in flight during the crash is exactly the expiry path.
func (m *Manager) reload() error {
	entries, err := os.ReadDir(m.dir)
	if err != nil {
		return err
	}
	var ids []string
	for _, e := range entries {
		if name, ok := strings.CutSuffix(e.Name(), ".sweep.json"); ok {
			ids = append(ids, name)
		}
	}
	// Submission order is encoded in the numeric id suffix ("c12").
	sort.Slice(ids, func(i, j int) bool { return idSeq(ids[i]) < idSeq(ids[j]) })
	for _, id := range ids {
		data, err := os.ReadFile(filepath.Join(m.dir, id+".sweep.json"))
		if err != nil {
			return err
		}
		sw, err := study.ParseSweep(data)
		if err != nil {
			return fmt.Errorf("campaign %s: %w", id, err)
		}
		ckpt, done, err := study.OpenCheckpoint(m.checkpointPath(id))
		if err != nil {
			return fmt.Errorf("campaign %s: %w", id, err)
		}
		m.campaigns[id] = newCampaign(id, sw, done, ckpt, m.now())
		m.order = append(m.order, id)
		if s := idSeq(id); s >= m.seq {
			m.seq = s + 1
		}
	}
	return nil
}

// idSeq extracts the numeric suffix of a campaign id ("c12" -> 12), -1
// for foreign names.
func idSeq(id string) int {
	n, err := strconv.Atoi(strings.TrimPrefix(id, "c"))
	if err != nil || !strings.HasPrefix(id, "c") {
		return -1
	}
	return n
}

// checkpointPath returns the campaign's checkpoint file path — the
// ordinary sweep checkpoint format, directly usable by
// `sweep -report-only -checkpoint <path>`.
func (m *Manager) checkpointPath(id string) string {
	return filepath.Join(m.dir, id+".ckpt.jsonl")
}

// Submit validates and registers a sweep as a new campaign, persisting
// its definition and opening its checkpoint when the manager has a state
// directory. Submitting is idempotent in effect, not identity: the same
// sweep submitted twice is two campaigns, but their cells produce
// identical records.
func (m *Manager) Submit(sw study.Sweep) (*Campaign, error) {
	if err := sw.Validate(); err != nil {
		return nil, err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	id := "c" + strconv.Itoa(m.seq)
	var ckpt *os.File
	done := map[study.Key]study.CellRecord{}
	if m.dir != "" {
		data, err := json.Marshal(sw)
		if err != nil {
			return nil, err
		}
		if err := os.WriteFile(filepath.Join(m.dir, id+".sweep.json"), data, 0o644); err != nil {
			return nil, err
		}
		ckpt, done, err = study.OpenCheckpoint(m.checkpointPath(id))
		if err != nil {
			return nil, err
		}
	}
	m.seq++
	c := newCampaign(id, sw, done, ckpt, m.now())
	m.campaigns[id] = c
	m.order = append(m.order, id)
	return c, nil
}

// Get returns a campaign by id.
func (m *Manager) Get(id string) (*Campaign, bool) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	c, ok := m.campaigns[id]
	return c, ok
}

// Campaigns returns every campaign in submission order.
func (m *Manager) Campaigns() []*Campaign {
	m.mu.RLock()
	defer m.mu.RUnlock()
	out := make([]*Campaign, 0, len(m.order))
	for _, id := range m.order {
		out = append(out, m.campaigns[id])
	}
	return out
}

// Lease grants the next pending cell to worker, scanning campaigns in
// submission order (oldest first — campaigns complete in FIFO order
// rather than interleaving, so early submitters get reports soonest).
// When nothing is pending the status distinguishes "poll again" (leases
// outstanding, or no campaigns yet) from "everything is done".
func (m *Manager) Lease(worker string) (Lease, LeaseStatus) {
	now := m.now()
	allDone := true
	for _, c := range m.Campaigns() {
		ttl := m.leaseTTLFor(c)
		if l, ok := c.lease(worker, ttl, now); ok {
			return l, StatusLeased
		}
		if done, _, _ := c.counts(now); done < len(c.cells) {
			allDone = false
		}
	}
	if allDone && len(m.Campaigns()) > 0 {
		return Lease{}, StatusDrained
	}
	return Lease{}, StatusIdle
}

// leaseTTLFor computes the campaign's effective lease TTL: the configured
// floor, stretched to leaseWallFactor× the observed mean cell wall time
// once completions exist (wall_ms is what makes this honest — see
// study.CellRecord.WallMS).
func (m *Manager) leaseTTLFor(c *Campaign) time.Duration {
	ttl := m.ttl
	if mean := c.meanWallMS(); mean > 0 {
		adaptive := time.Duration(mean*leaseWallFactor) * time.Millisecond
		if adaptive > ttl {
			ttl = adaptive
		}
	}
	return ttl
}

// Complete routes a worker's finished record to its campaign. fresh
// reports whether this was the first completion of the cell; duplicates
// are accepted and idempotent by design.
func (m *Manager) Complete(campaignID, token string, rec study.CellRecord) (fresh bool, err error) {
	c, ok := m.Get(campaignID)
	if !ok {
		return false, fmt.Errorf("campaign: unknown campaign %q", campaignID)
	}
	return c.complete(token, rec, m.now())
}

// Release returns a leased cell to pending (graceful worker shutdown).
// Unknown or stale tokens are no-ops: the lease may simply have expired
// already, which reaches the same state.
func (m *Manager) Release(campaignID, token string) error {
	c, ok := m.Get(campaignID)
	if !ok {
		return fmt.Errorf("campaign: unknown campaign %q", campaignID)
	}
	c.release(token, m.now())
	return nil
}

// Progress snapshots one campaign.
func (m *Manager) Progress(id string) (Progress, bool) {
	c, ok := m.Get(id)
	if !ok {
		return Progress{}, false
	}
	return c.progress(m.now()), true
}

// Metrics snapshots one campaign's progress plus event counters.
func (m *Manager) Metrics(id string) (Metrics, bool) {
	c, ok := m.Get(id)
	if !ok {
		return Metrics{}, false
	}
	return c.metrics(m.now()), true
}

// Telemetry returns the collector wired at construction, nil when none.
func (m *Manager) Telemetry() *telemetry.Collector { return m.telemetry }

// Delete removes a campaign and its persisted state (<id>.sweep.json and
// <id>.ckpt.jsonl) — the GC path for finished or abandoned campaigns. It
// refuses with ErrBusy while unexpired leases are out: a worker may be
// mid-cell, and its completion must not land on a missing campaign (it
// would surface to the worker as an unknown-campaign rejection). Deleting
// an incomplete campaign with no leases is allowed — that is how an
// abandoned grid is withdrawn. Returns ErrUnknown for foreign ids and
// wraps file-removal failures in ErrInternal (the campaign is gone from
// memory either way; a restart may resurrect it from leftover files).
func (m *Manager) Delete(id string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	c, ok := m.campaigns[id]
	if !ok {
		return fmt.Errorf("%w %q", ErrUnknown, id)
	}
	if _, n, _ := c.counts(m.now()); n > 0 {
		return fmt.Errorf("%w: %d unexpired leases on %s", ErrBusy, n, id)
	}
	delete(m.campaigns, id)
	for i, oid := range m.order {
		if oid == id {
			m.order = append(m.order[:i], m.order[i+1:]...)
			break
		}
	}
	err := c.close()
	if m.dir != "" {
		for _, path := range []string{filepath.Join(m.dir, id+".sweep.json"), m.checkpointPath(id)} {
			if rmErr := os.Remove(path); rmErr != nil && !os.IsNotExist(rmErr) && err == nil {
				err = rmErr
			}
		}
	}
	if err != nil {
		return fmt.Errorf("%w: deleting campaign %s: %v", ErrInternal, id, err)
	}
	return nil
}

// Close flushes and closes every campaign checkpoint. The manager must
// not be used afterwards.
func (m *Manager) Close() error {
	var first error
	for _, c := range m.Campaigns() {
		if err := c.close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
