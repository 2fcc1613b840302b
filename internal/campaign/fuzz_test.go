package campaign

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/study"
)

// The request kinds of FuzzFarmHandlers; each request is one (kind, arg)
// byte pair, and completions name grid cell arg mod 4.
const (
	fzLease      = iota // POST /lease
	fzOwn               // complete a cell with the token of its latest lease
	fzForeign           // ... with the latest token leased for another cell
	fzStale             // ... with the first token ever leased for it
	fzUnknown           // ... with a token the server never issued
	fzDuplicate         // resend the previous completion body
	fzForeignKey        // complete with a record outside the grid
	fzMalformed         // complete with a truncated JSON body
	fzRelease           // release the token of lease arg
	fzProgress          // one of the progress and metrics reads
	fzAdvance           // advance the clock by half or a whole TTL
	fzKinds
)

// FuzzFarmHandlers drives the HTTP API with byte-chosen request sequences
// over testSweep, on a memory-only manager with a fake clock. After every
// request no handler may answer 5xx and the ledger must hold its
// invariants (checkLedger). At the end, once every lease has expired,
// leasing must reach every cell that is not done, in grid order.
func FuzzFarmHandlers(f *testing.F) {
	const ttl = time.Minute
	sw := testSweep()
	grid := newCampaign("grid", sw, nil, nil, time.Time{})
	recs := make([]study.CellRecord, len(grid.cells))
	for i := range recs {
		rec, err := runCell(grid.cellPayload(i), 1)
		if err != nil {
			f.Fatal(err)
		}
		rec.WallMS = 0 // keeps every lease TTL at the floor
		recs[i] = rec
	}

	// The stranded-lease sequence: lease cells 0 and 1, complete cell 0
	// with cell 1's token, release that token, and let a TTL pass.
	f.Add([]byte{fzLease, 0, fzLease, 0, fzForeign, 0, fzRelease, 1, fzAdvance, 1})
	f.Add([]byte{fzLease, 0, fzLease, 0, fzLease, 0, fzLease, 0, fzOwn, 0, fzOwn, 1, fzOwn, 2, fzOwn, 3, fzLease, 0})
	f.Add([]byte{fzLease, 0, fzAdvance, 1, fzLease, 0, fzStale, 0, fzOwn, 0, fzDuplicate, 0, fzProgress, 1})
	f.Add([]byte{fzLease, 0, fzAdvance, 0, fzLease, 0, fzAdvance, 0, fzRelease, 1, fzLease, 0, fzProgress, 2})
	f.Add([]byte{fzForeignKey, 0, fzMalformed, 40, fzUnknown, 2, fzDuplicate, 0, fzLease, 0, fzProgress, 0})

	f.Fuzz(func(t *testing.T, data []byte) {
		clock := newFakeClock()
		m, err := NewManager(Options{LeaseTTL: ttl, Now: clock.now})
		if err != nil {
			t.Fatal(err)
		}
		c, err := m.Submit(sw)
		if err != nil {
			t.Fatal(err)
		}
		h := NewServer(m, nil)
		do := func(method, path string, body []byte) []byte {
			rr := httptest.NewRecorder()
			h.ServeHTTP(rr, httptest.NewRequest(method, path, bytes.NewReader(body)))
			if rr.Code >= 500 {
				t.Fatalf("%s %s %s: status %d: %s", method, path, body, rr.Code, rr.Body)
			}
			return rr.Body.Bytes()
		}
		lease := func() LeaseResponse {
			var resp LeaseResponse
			if err := json.Unmarshal(do(http.MethodPost, "/lease", []byte(`{"worker":"w"}`)), &resp); err != nil {
				t.Fatal(err)
			}
			return resp
		}
		cellOf := func(l Lease) int { return c.index[l.Cell.Key()] }
		var leased []Lease // every lease granted, in order
		// token returns the first or the latest granted token whose cell
		// matches, "" when none does.
		token := func(match func(cell int) bool, latest bool) string {
			tok := ""
			for _, l := range leased {
				if match(cellOf(l)) {
					tok = l.Token
					if !latest {
						break
					}
				}
			}
			return tok
		}
		var last []byte // the previous completion body
		complete := func(tok string, rec study.CellRecord) {
			body, err := json.Marshal(CompleteRequest{Campaign: c.ID(), Token: tok, Record: rec})
			if err != nil {
				t.Fatal(err)
			}
			last = body
			do(http.MethodPost, "/complete", body)
		}

		for ; len(data) >= 2; data = data[2:] {
			kind, arg := data[0]%fzKinds, int(data[1])
			cell := arg % len(recs)
			own := func(i int) bool { return i == cell }
			switch kind {
			case fzLease:
				if resp := lease(); resp.Lease != nil {
					leased = append(leased, *resp.Lease)
				}
			case fzOwn:
				complete(token(own, true), recs[cell])
			case fzForeign:
				complete(token(func(i int) bool { return i != cell }, true), recs[cell])
			case fzStale:
				complete(token(own, false), recs[cell])
			case fzUnknown:
				complete("unknown-token", recs[cell])
			case fzDuplicate:
				if last != nil {
					do(http.MethodPost, "/complete", last)
				}
			case fzForeignKey:
				rec := recs[cell]
				rec.Model = "edgemeg:n=999,p=0.05,q=0.3"
				complete(token(own, true), rec)
			case fzMalformed:
				body, err := json.Marshal(CompleteRequest{Campaign: c.ID(), Token: token(own, true), Record: recs[cell]})
				if err != nil {
					t.Fatal(err)
				}
				do(http.MethodPost, "/complete", body[:arg%len(body)])
			case fzRelease:
				tok := "unknown-token"
				if len(leased) > 0 {
					tok = leased[arg%len(leased)].Token
				}
				do(http.MethodPost, "/release", fmt.Appendf(nil, `{"campaign":%q,"token":%q}`, c.ID(), tok))
			case fzProgress:
				path := []string{"/campaigns/" + c.ID(), "/campaigns/" + c.ID() + "/metrics", "/metrics"}[arg%3]
				do(http.MethodGet, path, nil)
			case fzAdvance:
				clock.advance(time.Duration(1+arg%2) * ttl / 2)
			}
			checkLedger(t, c, clock.now())
		}

		clock.advance(ttl)
		c.mu.Lock()
		var pending []int
		for i, e := range c.cells {
			if e.rec == nil {
				pending = append(pending, i)
			}
		}
		c.mu.Unlock()
		for _, want := range pending {
			resp := lease()
			if resp.Status != StatusLeased || cellOf(*resp.Lease) != want {
				t.Fatalf("after every TTL: lease = %+v, want cell %d of pending %v", resp, want, pending)
			}
		}
		wantStatus := StatusIdle
		if len(pending) == 0 {
			wantStatus = StatusDrained
		}
		if resp := lease(); resp.Status != wantStatus {
			t.Fatalf("with every pending cell leased: status %q, want %q", resp.Status, wantStatus)
		}
	})
}

// checkLedger asserts the campaign ledger invariants: progress partitions
// the grid, Leased counts exactly the live leases, every live lease is the
// current lease of its own cell, and no done cell holds a lease.
func checkLedger(t *testing.T, c *Campaign, now time.Time) {
	t.Helper()
	p := c.progress(now)
	c.mu.Lock()
	defer c.mu.Unlock()
	if p.Done+p.Leased+p.Pending != p.Cells || p.Leased != len(c.leases) {
		t.Fatalf("progress %+v does not partition the grid with %d live leases", p, len(c.leases))
	}
	done, held := 0, 0
	for i, e := range c.cells {
		if e.rec != nil {
			done++
			if e.lease != nil {
				t.Fatalf("done cell %d holds lease %s", i, e.lease.token)
			}
		}
		if e.lease != nil {
			held++
		}
	}
	for tok, l := range c.leases {
		if l.token != tok || c.cells[l.cell].lease != l {
			t.Fatalf("lease %s is not the current lease of its cell %d", tok, l.cell)
		}
		if c.cells[l.cell].rec != nil {
			t.Fatalf("lease %s names done cell %d", tok, l.cell)
		}
	}
	if done != p.Done || held != p.Leased {
		t.Fatalf("ledger holds %d done and %d leased cells; progress %+v", done, held, p)
	}
}
