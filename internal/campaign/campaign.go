// Package campaign turns the single-box sweep runner into a shared farm:
// a long-running server (cmd/sweepd) accepts whole study.Sweep grids over
// HTTP, decomposes them into their study.Key cells, and leases cells to
// remote workers (cmd/sweep -server). Completed cells stream into the same
// fsync'd JSONL checkpoint format cmd/sweep writes locally, so a campaign
// file is readable by `sweep -report-only` unchanged, and the live report
// endpoint renders the identical CSV/markdown tables.
//
// The design leans entirely on two properties the checkpoint layer already
// guarantees:
//
//   - Cell results are a pure function of the cell key (model, protocol,
//     trials, seed) plus the sweep-wide source/max_steps — independent of
//     which worker runs the cell, its Workers parallelism, and when.
//   - The checkpoint is idempotent with later-duplicate-wins semantics, so
//     a cell completed twice is harmless.
//
// Together they make worker failure handling trivial: a lease that expires
// is simply re-leased, and if the presumed-dead worker completes after
// all, its record is a byte-equal duplicate (modulo diagnostic wall_ms)
// that the checkpoint absorbs. There is no fencing, no worker registry,
// and no distributed state beyond the lease table in server memory — the
// JSONL file is the only source of truth, which is what makes the server
// itself crash-safe (reboot reloads the checkpoint and re-derives
// pending = grid − done).
package campaign

import (
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"

	"repro/internal/study"
)

// ErrInternal marks server-side failures (checkpoint I/O) as opposed to
// invalid client input; the HTTP layer maps it to a 5xx so workers retry
// instead of discarding their result.
var ErrInternal = errors.New("campaign: internal error")

// ErrUnknown marks a request naming a campaign the server does not have;
// the HTTP layer maps it to 404.
var ErrUnknown = errors.New("campaign: unknown campaign")

// ErrBusy marks a deletion refused because unexpired leases are out — a
// worker is (presumably) computing one of the campaign's cells. The HTTP
// layer maps it to 409; retry after the leases complete or expire.
var ErrBusy = errors.New("campaign: campaign has active leases")

// Cell is the wire form of one leased work unit: everything a worker
// needs to execute the cell with study.Run. Model and Protocol are
// canonical spec strings (the same convention sweep files use).
type Cell struct {
	Model    string `json:"model"`
	Protocol string `json:"protocol"`
	Trials   int    `json:"trials"`
	Seed     uint64 `json:"seed"`
	Source   int    `json:"source"`
	MaxSteps int    `json:"max_steps,omitempty"`
}

// Key returns the checkpoint key of the cell.
func (c Cell) Key() study.Key {
	return study.Key{Model: c.Model, Protocol: c.Protocol, Trials: c.Trials, Seed: c.Seed}
}

// Lease is a granted work unit: the cell, the campaign it belongs to, an
// unguessable token the worker echoes on completion or release, and the
// lease duration. A worker that never completes simply lets the lease
// expire; the cell returns to pending and is re-leased.
type Lease struct {
	Campaign string `json:"campaign"`
	Token    string `json:"token"`
	Cell     Cell   `json:"cell"`
	// TTLMS is the lease duration in milliseconds; the worker should
	// finish (or re-lease) within it, but exceeding it is safe — a late
	// completion is still accepted, it just may duplicate work.
	TTLMS int64 `json:"ttl_ms"`
}

// lease is the server-side record of one outstanding lease.
type lease struct {
	token   string
	worker  string
	cell    int // index into the campaign's grid
	expires time.Time
}

// entry is one grid cell's ledger entry, the only place the cell's state
// lives: the cell is done iff rec is set, leased iff lease is set, and
// pending otherwise. A done cell never holds a lease.
type entry struct {
	rec   *study.CellRecord // the accepted record; later duplicates replace it
	lease *lease            // the current lease, also indexed by token in leases
}

// Progress is a point-in-time snapshot of a campaign, served by
// GET /campaigns/{id}.
type Progress struct {
	ID    string `json:"id"`
	Cells int    `json:"cells"`
	// Done, Leased, and Pending partition Cells.
	Done     int  `json:"done"`
	Leased   int  `json:"leased"`
	Pending  int  `json:"pending"`
	Complete bool `json:"complete"`
	// ElapsedSec is the wall time since submission (frozen at completion).
	ElapsedSec float64 `json:"elapsed_sec"`
	// CellsPerSec is observed campaign throughput: Done / ElapsedSec.
	CellsPerSec float64 `json:"cells_per_sec,omitempty"`
	// MeanWallMS is the mean per-cell compute time over done cells, from
	// the records' wall_ms field — the honest per-cell cost, independent
	// of farm idle time (records from old checkpoints without wall_ms
	// count as 0 and drag the mean down; they are rare and transitional).
	MeanWallMS float64 `json:"mean_wall_ms,omitempty"`
	// Workers are per-worker heartbeats (sorted by name), present once any
	// worker has leased from the campaign.
	Workers []WorkerProgress `json:"workers,omitempty"`
}

// WorkerProgress is the heartbeat the server keeps per worker name: when
// the worker last interacted with the campaign (lease, completion, or
// release), how many cell completions it posted, and its mean per-cell
// wall time. It is diagnostic bookkeeping, not scheduling state — the farm
// still has no worker registry; a worker that vanishes simply stops
// appearing fresh here while lease expiry recovers its cells.
type WorkerProgress struct {
	Worker string `json:"worker"`
	// LastSeenMS is the last interaction, as Unix milliseconds.
	LastSeenMS int64 `json:"last_seen_ms"`
	// Completed counts completion posts (including duplicates — the worker
	// did the work either way).
	Completed int `json:"completed"`
	// MeanWallMS is the mean wall_ms over this worker's completions.
	MeanWallMS float64 `json:"mean_wall_ms,omitempty"`
}

// workerStats is the mutable server-side form of WorkerProgress.
type workerStats struct {
	lastSeen  time.Time
	completed int
	wallMS    int64
}

// Metrics extends Progress with the campaign's lifetime event counters —
// the GET /campaigns/{id}/metrics payload. Counter semantics follow the
// telemetry "_total" convention: monotonic over the campaign's in-memory
// lifetime (reset by a server restart, like the lease table itself).
type Metrics struct {
	Progress
	LeasesTotal      int64 `json:"leases_total"`
	CompletionsTotal int64 `json:"completions_total"`
	DuplicatesTotal  int64 `json:"duplicates_total"`
	ReleasesTotal    int64 `json:"releases_total"`
	ExpiriesTotal    int64 `json:"expiries_total"`
}

// Campaign is one submitted sweep being executed by the farm. All methods
// are safe for concurrent use; the campaign's mutex also serializes
// checkpoint appends so records hit the file in acceptance order.
type Campaign struct {
	id    string
	sweep study.Sweep
	keys  []study.Key
	index map[study.Key]int

	mu        sync.Mutex
	cells     []entry           // grid index -> ledger entry
	leases    map[string]*lease // token -> the live lease some cells[i].lease holds
	doneCells int               // entries with a record
	ckpt      *os.File          // nil when the manager is memory-only
	created   time.Time
	finished  time.Time // zero until all cells are done
	doneWall  int64     // sum of wall_ms over done cells (first completion per cell)

	// workers holds per-worker heartbeats; counters are the lifetime event
	// totals Metrics reports (in-memory only, like the lease table).
	workers     map[string]*workerStats
	leaseCount  int64
	completions int64
	duplicates  int64
	releases    int64
	expiries    int64
}

// newCampaign builds the in-memory state for a submitted sweep, marking
// the cells already present in done (a reloaded checkpoint) complete.
// ckpt, when non-nil, is an append-positioned checkpoint file the campaign
// takes ownership of.
func newCampaign(id string, sw study.Sweep, done map[study.Key]study.CellRecord, ckpt *os.File, now time.Time) *Campaign {
	keys := sw.Keys()
	c := &Campaign{
		id:      id,
		sweep:   sw,
		keys:    keys,
		index:   make(map[study.Key]int, len(keys)),
		cells:   make([]entry, len(keys)),
		leases:  make(map[string]*lease),
		ckpt:    ckpt,
		created: now,
		workers: make(map[string]*workerStats),
	}
	for i, k := range keys {
		c.index[k] = i
	}
	for k, rec := range done {
		i, ok := c.index[k]
		if !ok {
			continue // a stale record from an edited sweep: ignored, not served
		}
		c.cells[i].rec = &rec
		c.doneCells++
		c.doneWall += rec.WallMS
	}
	if c.doneCells == len(keys) {
		c.finished = now
	}
	return c
}

// ID returns the campaign's identifier.
func (c *Campaign) ID() string { return c.id }

// Sweep returns the campaign's sweep definition.
func (c *Campaign) Sweep() study.Sweep { return c.sweep }

// cellPayload renders grid cell i as a wire Cell.
func (c *Campaign) cellPayload(i int) Cell {
	k := c.keys[i]
	return Cell{
		Model:    k.Model,
		Protocol: k.Protocol,
		Trials:   k.Trials,
		Seed:     k.Seed,
		Source:   c.sweep.Source,
		MaxSteps: c.sweep.MaxSteps,
	}
}

// expireLocked returns every cell whose lease has lapsed to pending.
func (c *Campaign) expireLocked(now time.Time) {
	for _, l := range c.leases {
		if !now.Before(l.expires) {
			c.retireLocked(l.cell)
			c.expiries++
		}
	}
}

// retireLocked drops cell i's current lease, if any, from its entry and
// from the token index — the one way a lease ends, so the two never
// disagree.
func (c *Campaign) retireLocked(i int) {
	if l := c.cells[i].lease; l != nil {
		delete(c.leases, l.token)
		c.cells[i].lease = nil
	}
}

// countsLocked expires lapsed leases and reads the ledger's partition of
// the grid.
func (c *Campaign) countsLocked(now time.Time) (done, leased, pending int) {
	c.expireLocked(now)
	return c.doneCells, len(c.leases), len(c.cells) - c.doneCells - len(c.leases)
}

// counts is countsLocked under the campaign lock.
func (c *Campaign) counts(now time.Time) (done, leased, pending int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.countsLocked(now)
}

// touchWorkerLocked updates the worker's heartbeat ("" names no worker —
// e.g. a completion whose lease already expired and whose request did not
// carry a name).
func (c *Campaign) touchWorkerLocked(worker string, now time.Time) *workerStats {
	if worker == "" {
		return nil
	}
	ws, ok := c.workers[worker]
	if !ok {
		ws = &workerStats{}
		c.workers[worker] = ws
	}
	ws.lastSeen = now
	return ws
}

// lease grants the first pending cell (grid order) to worker for ttl,
// expiring lapsed leases first. ok is false when no cell is pending —
// which means either the campaign is complete or every remaining cell is
// out on an unexpired lease.
func (c *Campaign) lease(worker string, ttl time.Duration, now time.Time) (Lease, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, _, pending := c.countsLocked(now); pending == 0 {
		return Lease{}, false
	}
	for i := range c.cells {
		e := &c.cells[i]
		if e.rec != nil || e.lease != nil {
			continue
		}
		token := newToken()
		e.lease = &lease{token: token, worker: worker, cell: i, expires: now.Add(ttl)}
		c.leases[token] = e.lease
		c.leaseCount++
		c.touchWorkerLocked(worker, now)
		return Lease{
			Campaign: c.id,
			Token:    token,
			Cell:     c.cellPayload(i),
			TTLMS:    ttl.Milliseconds(),
		}, true
	}
	return Lease{}, false
}

// complete accepts a worker's finished record. The token identifies the
// lease being fulfilled but is deliberately NOT required to be current:
// a worker whose lease expired (or was never granted — a resubmitted
// duplicate) still carries a correct result, because cell results are a
// pure function of the key. Validation therefore gates on the record, not
// the token. Returns whether the record was fresh (first completion of
// its cell); duplicates are accepted and idempotent.
func (c *Campaign) complete(token string, rec study.CellRecord, now time.Time) (fresh bool, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.sweep.CheckRecord(rec); err != nil {
		return false, err
	}
	i := c.index[rec.Key()] // CheckRecord proved membership
	e := &c.cells[i]
	// Attribute the completion before the lease disappears. Only the
	// token of this cell's current lease names a worker: a stale token
	// (expired, or a resubmitted duplicate) or one leased for another cell
	// still counts the completion but credits no heartbeat, and another
	// cell's lease stays with its holder.
	var worker string
	if e.lease != nil && e.lease.token == token {
		worker = e.lease.worker
	}
	// Whatever lease is out on this cell — this worker's, or a re-lease
	// granted after this worker was presumed dead — the cell is done now.
	c.retireLocked(i)
	fresh = e.rec == nil
	if fresh {
		// Only the first completion counts toward doneWall so MeanWallMS
		// reflects per-cell cost, not duplicated work.
		c.doneWall += rec.WallMS
		c.doneCells++
	} else {
		c.duplicates++
	}
	c.completions++
	if ws := c.touchWorkerLocked(worker, now); ws != nil {
		ws.completed++
		ws.wallMS += rec.WallMS
	}
	e.rec = &rec // later duplicate wins, matching checkpoint replay
	if err := c.appendLocked(rec); err != nil {
		return fresh, err
	}
	if c.finished.IsZero() && c.doneCells == len(c.cells) {
		c.finished = now
	}
	return fresh, nil
}

// appendLocked streams a record to the campaign checkpoint and fsyncs it,
// exactly as the local sweep runner does — the record must be durable
// before the completion is acknowledged.
func (c *Campaign) appendLocked(rec study.CellRecord) error {
	if c.ckpt == nil {
		return nil
	}
	if err := study.WriteCheckpoint(c.ckpt, rec); err != nil {
		return fmt.Errorf("%w: %v", ErrInternal, err)
	}
	if err := c.ckpt.Sync(); err != nil {
		return fmt.Errorf("%w: campaign %s: fsync checkpoint: %v", ErrInternal, c.id, err)
	}
	return nil
}

// release returns a leased cell to pending. Only the current lease holder
// can release (a stale token is a no-op): release exists for graceful
// worker shutdown, and a dead worker's stale token must not yank a cell
// from the worker it was re-leased to.
func (c *Campaign) release(token string, now time.Time) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.expireLocked(now)
	l, ok := c.leases[token]
	if !ok {
		return false
	}
	c.retireLocked(l.cell)
	c.releases++
	c.touchWorkerLocked(l.worker, now)
	return true
}

// progress snapshots the campaign.
func (c *Campaign) progress(now time.Time) Progress {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.progressLocked(now)
}

func (c *Campaign) progressLocked(now time.Time) Progress {
	p := Progress{ID: c.id, Cells: len(c.cells)}
	p.Done, p.Leased, p.Pending = c.countsLocked(now)
	p.Complete = p.Done == p.Cells
	end := now
	if p.Complete && !c.finished.IsZero() {
		end = c.finished
	}
	p.ElapsedSec = end.Sub(c.created).Seconds()
	if p.ElapsedSec > 0 {
		p.CellsPerSec = float64(p.Done) / p.ElapsedSec
	}
	if p.Done > 0 {
		p.MeanWallMS = float64(c.doneWall) / float64(p.Done)
	}
	if len(c.workers) > 0 {
		p.Workers = make([]WorkerProgress, 0, len(c.workers))
		for name, ws := range c.workers {
			wp := WorkerProgress{
				Worker:     name,
				LastSeenMS: ws.lastSeen.UnixMilli(),
				Completed:  ws.completed,
			}
			if ws.completed > 0 {
				wp.MeanWallMS = float64(ws.wallMS) / float64(ws.completed)
			}
			p.Workers = append(p.Workers, wp)
		}
		sort.Slice(p.Workers, func(i, j int) bool { return p.Workers[i].Worker < p.Workers[j].Worker })
	}
	return p
}

// metrics snapshots the campaign's progress plus lifetime event counters.
func (c *Campaign) metrics(now time.Time) Metrics {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Metrics{
		Progress:         c.progressLocked(now),
		LeasesTotal:      c.leaseCount,
		CompletionsTotal: c.completions,
		DuplicatesTotal:  c.duplicates,
		ReleasesTotal:    c.releases,
		ExpiriesTotal:    c.expiries,
	}
}

// meanWallMS returns the observed mean per-cell wall time, 0 when no cell
// has completed yet. The manager uses it to scale lease TTLs to the
// campaign's actual cell cost.
func (c *Campaign) meanWallMS() float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.doneCells == 0 {
		return 0
	}
	return float64(c.doneWall) / float64(c.doneCells)
}

// records returns the completed cells' records in grid order — the input
// the report layer aggregates. For a complete campaign this is the full
// grid, and the rendered report is byte-identical to a local cmd/sweep
// run of the same sweep.
func (c *Campaign) records() []study.CellRecord {
	c.mu.Lock()
	defer c.mu.Unlock()
	recs := make([]study.CellRecord, 0, c.doneCells)
	for _, e := range c.cells {
		if e.rec != nil {
			recs = append(recs, *e.rec)
		}
	}
	return recs
}

// close releases the campaign's checkpoint file handle.
func (c *Campaign) close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.ckpt == nil {
		return nil
	}
	err := c.ckpt.Close()
	c.ckpt = nil
	return err
}

// newToken returns an unguessable lease token. Tokens are capability
// handles, not security boundaries — the farm trusts its workers — but
// unguessability keeps a confused worker from fulfilling someone else's
// lease by accident.
func newToken() string {
	var b [16]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic(fmt.Sprintf("campaign: reading random token: %v", err))
	}
	return hex.EncodeToString(b[:])
}
