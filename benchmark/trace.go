package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync/atomic"
	"time"
)

// span is one timed call across a layer boundary: the benchmark records it
// around a call into the repository's public API. Times are nanoseconds
// since the tracer's origin.
type span struct {
	Name   string `json:"name"`
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"` // -1 for the root
	Op     int64  `json:"op"`     // trial, cell, window or step index; -1 when none
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer records spans into a slice allocated once, up front, so that
// tracing adds no allocation to the measured calls. Spans may be opened
// from several goroutines at once: each claims its slot with one atomic
// add. A nil *tracer records nothing, which is how untraced runs call the
// same code.
type tracer struct {
	origin  time.Time
	spans   []span
	next    atomic.Int32
	dropped atomic.Int64
}

func newTracer(capacity int) *tracer {
	return &tracer{origin: time.Now(), spans: make([]span, capacity)}
}

// now returns the tracer clock: monotonic nanoseconds since the origin.
func (t *tracer) now() int64 { return int64(time.Since(t.origin)) }

// begin opens a span and returns its id, or -1 when tracing is off or the
// slice is full (counted in dropped, which fails the run's trace check).
func (t *tracer) begin(name string, parent int32, op int64) int32 {
	if t == nil {
		return -1
	}
	return t.add(name, parent, op, t.now(), -1)
}

// end closes span id.
func (t *tracer) end(id int32) {
	if t == nil || id < 0 {
		return
	}
	t.spans[id].End = t.now()
}

// endAt closes span id at a time the caller read from now.
func (t *tracer) endAt(id int32, at int64) {
	if t == nil || id < 0 {
		return
	}
	t.spans[id].End = at
}

// add records a span with explicit times, for spans whose extent is known
// only once they are over (a farm cell is a cell only once its lease was
// granted).
func (t *tracer) add(name string, parent int32, op, start, end int64) int32 {
	if t == nil {
		return -1
	}
	id := t.next.Add(1) - 1
	if int(id) >= len(t.spans) {
		t.dropped.Add(1)
		return -1
	}
	t.spans[id] = span{Name: name, ID: id, Parent: parent, Op: op, Start: start, End: end}
	return id
}

// setParent re-parents span id; the caller must own both spans.
func (t *tracer) setParent(id, parent int32) {
	if t == nil || id < 0 {
		return
	}
	t.spans[id].Parent = parent
}

// recorded returns the spans written so far. Call it only after every
// goroutine that records spans has been waited for.
func (t *tracer) recorded() []span {
	n := int(t.next.Load())
	if n > len(t.spans) {
		n = len(t.spans)
	}
	return t.spans[:n]
}

// durationsMS returns, in recording order, the durations in milliseconds
// of the spans named name that descend from span under (any span when
// under is -1).
func durationsMS(spans []span, name string, under int32) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name && (under < 0 || descends(spans, s.ID, under)) {
			out = append(out, float64(s.End-s.Start)/1e6)
		}
	}
	return out
}

// descends reports whether span id is under (or is) span anc.
func descends(spans []span, id, anc int32) bool {
	for id >= 0 {
		if id == anc {
			return true
		}
		id = spans[id].Parent
	}
	return false
}

// selfTimes attributes the trace's wall time to its spans and returns each
// span's self time in nanoseconds, indexed by span id. Every instant is
// shared evenly among the innermost spans open at that instant, that is
// the open spans with no open child. Where siblings do not overlap this is
// exactly a span's duration minus the time its children cover; where
// worker goroutines run siblings side by side it still never goes
// negative, and the self times of a tree sum to its root's duration.
//
// It fails when a span is unfinished, ends before it starts, names a
// parent that does not exist, or lies outside its parent's interval.
func selfTimes(spans []span) ([]float64, error) {
	type event struct {
		at    int64
		open  bool
		depth int
		id    int32
	}
	depth := make([]int, len(spans))
	events := make([]event, 0, 2*len(spans))
	for i, s := range spans {
		if s.End < s.Start {
			return nil, fmt.Errorf("trace: span %d (%s) unfinished or reversed", i, s.Name)
		}
		if s.Parent >= 0 {
			if int(s.Parent) >= len(spans) || s.Parent == s.ID {
				return nil, fmt.Errorf("trace: span %d (%s) has unknown parent %d", i, s.Name, s.Parent)
			}
			p := spans[s.Parent]
			if s.Start < p.Start || s.End > p.End {
				return nil, fmt.Errorf("trace: span %d (%s) [%d,%d] outside parent %d (%s) [%d,%d]",
					i, s.Name, s.Start, s.End, p.ID, p.Name, p.Start, p.End)
			}
		}
		d := 0
		for p := s.Parent; p >= 0; p = spans[p].Parent {
			if d++; d > len(spans) {
				return nil, fmt.Errorf("trace: span %d (%s) is in a parent cycle", i, s.Name)
			}
		}
		depth[i] = d
		events = append(events, event{s.Start, true, d, int32(i)}, event{s.End, false, d, int32(i)})
	}
	// At equal times opens go first, so that a span of zero length opens
	// before it closes; parents open before their children and close after
	// them. No time passes between events at equal times, so the order
	// moves no self time.
	sort.Slice(events, func(i, j int) bool {
		a, b := events[i], events[j]
		if a.at != b.at {
			return a.at < b.at
		}
		if a.open != b.open {
			return a.open
		}
		if a.open {
			return a.depth < b.depth
		}
		return a.depth > b.depth
	})
	self := make([]float64, len(spans))
	openKids := make([]int, len(spans))
	pos := make([]int, len(spans)) // index in inner, -1 when not innermost
	for i := range pos {
		pos[i] = -1
	}
	var inner []int32
	addInner := func(id int32) {
		pos[id] = len(inner)
		inner = append(inner, id)
	}
	dropInner := func(id int32) {
		i := pos[id]
		if i < 0 {
			return
		}
		last := inner[len(inner)-1]
		inner[i] = last
		pos[last] = i
		inner = inner[:len(inner)-1]
		pos[id] = -1
	}
	var prev int64
	for _, e := range events {
		if len(inner) > 0 && e.at > prev {
			share := float64(e.at-prev) / float64(len(inner))
			for _, id := range inner {
				self[id] += share
			}
		}
		prev = e.at
		p := spans[e.id].Parent
		if e.open {
			if p >= 0 {
				if openKids[p] == 0 {
					dropInner(p)
				}
				openKids[p]++
			}
			addInner(e.id)
			continue
		}
		dropInner(e.id)
		if p >= 0 {
			if openKids[p]--; openKids[p] == 0 {
				addInner(p)
			}
		}
	}
	return self, nil
}

// writeSpans writes one JSON object per span, with its self time.
func writeSpans(path string, spans []span, self []float64) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i, s := range spans {
		line := struct {
			span
			SelfNS int64 `json:"self_ns"`
		}{s, int64(self[i])}
		if err := enc.Encode(line); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfByName sums self time per span name, in milliseconds.
func selfByName(spans []span, self []float64) map[string]float64 {
	out := map[string]float64{}
	for i, s := range spans {
		out[s.Name] += self[i] / 1e6
	}
	return out
}
