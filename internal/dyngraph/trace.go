package dyngraph

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// Edge is an undirected edge with U < V.
type Edge struct {
	U, V int32
}

// Trace is a recorded sequence of snapshots of a dynamic graph, replayable
// as a Dynamic. Traces decouple expensive model simulation from repeated
// analysis and make dynamics serializable.
type Trace struct {
	n     int
	steps [][]Edge
}

// NewTrace creates an empty trace for an n-node graph.
func NewTrace(n int) *Trace {
	if n <= 0 {
		panic("dyngraph: NewTrace needs n > 0")
	}
	return &Trace{n: n}
}

// Record captures the current snapshot of d and appends it to the trace.
func (tr *Trace) Record(d Dynamic) {
	if d.N() != tr.n {
		panic("dyngraph: Record node count mismatch")
	}
	tr.steps = append(tr.steps, d.AppendEdges(nil))
}

// Capture records steps+1 snapshots of d: the current one and each snapshot
// after the next `steps` Step calls.
func Capture(d Dynamic, steps int) *Trace {
	tr := NewTrace(d.N())
	tr.Record(d)
	for t := 0; t < steps; t++ {
		d.Step()
		tr.Record(d)
	}
	return tr
}

// N returns the node count.
func (tr *Trace) N() int { return tr.n }

// Len returns the number of recorded snapshots.
func (tr *Trace) Len() int { return len(tr.steps) }

// EdgesAt returns the recorded edges of snapshot t.
func (tr *Trace) EdgesAt(t int) []Edge { return tr.steps[t] }

// Replay returns a Dynamic that replays the trace from snapshot 0. Stepping
// past the final snapshot keeps the last snapshot forever (the trace is
// "frozen" at its end).
func (tr *Trace) Replay() *Replay {
	return &Replay{trace: tr, deltaT: -1}
}

// Replay is a Dynamic that replays a Trace.
type Replay struct {
	trace *Trace
	t     int
	// prevSorted/curSorted are lazily maintained sorted snapshot copies
	// backing AppendDeltas; deltaT remembers which step they describe.
	prevSorted, curSorted []Edge
	deltaT                int
}

// cur returns the recorded edges of the current (clamped) snapshot.
func (r *Replay) cur() []Edge {
	idx := r.t
	if idx >= len(r.trace.steps) {
		idx = len(r.trace.steps) - 1
	}
	if idx < 0 {
		return nil
	}
	return r.trace.steps[idx]
}

// N implements Dynamic.
func (r *Replay) N() int { return r.trace.n }

// Step implements Dynamic.
func (r *Replay) Step() { r.t++ }

// AppendEdges implements Dynamic: recorded snapshots are already flat edge
// batches, so replay serves them with a single copy.
func (r *Replay) AppendEdges(dst []Edge) []Edge {
	return append(dst, r.cur()...)
}

// AppendDeltas implements DeltaBatcher by diffing the recorded previous and
// current snapshots. A trace stores whole snapshots, not churn, so the diff
// sorts two copies on the first call after a Step (O(m log m), cached until
// the next Step); past the end of the trace the snapshot is frozen and the
// deltas are empty.
func (r *Replay) AppendDeltas(born, died []Edge) (b, d []Edge) {
	if r.t == 0 {
		return born, died
	}
	prevIdx, curIdx := r.t-1, r.t
	if last := len(r.trace.steps) - 1; curIdx > last {
		curIdx = last
	}
	if prevIdx >= curIdx {
		return born, died // frozen: both clamp to the final snapshot
	}
	if r.deltaT != r.t {
		r.prevSorted = sortEdges(append(r.prevSorted[:0], r.trace.steps[prevIdx]...))
		r.curSorted = sortEdges(append(r.curSorted[:0], r.trace.steps[curIdx]...))
		r.deltaT = r.t
	}
	return diffSortedEdges(r.prevSorted, r.curSorted, born, died)
}

// traceMagic identifies the binary trace format.
const traceMagic = uint32(0x44594E47) // "DYNG"

// WriteTo serializes the trace in a compact binary format.
func (tr *Trace) WriteTo(w io.Writer) (int64, error) {
	bw := bufio.NewWriter(w)
	var written int64
	put32 := func(v uint32) error {
		var buf [4]byte
		binary.LittleEndian.PutUint32(buf[:], v)
		n, err := bw.Write(buf[:])
		written += int64(n)
		return err
	}
	if err := put32(traceMagic); err != nil {
		return written, err
	}
	if err := put32(uint32(tr.n)); err != nil {
		return written, err
	}
	if err := put32(uint32(len(tr.steps))); err != nil {
		return written, err
	}
	for _, step := range tr.steps {
		if err := put32(uint32(len(step))); err != nil {
			return written, err
		}
		for _, e := range step {
			if err := put32(uint32(e.U)); err != nil {
				return written, err
			}
			if err := put32(uint32(e.V)); err != nil {
				return written, err
			}
		}
	}
	return written, bw.Flush()
}

// ReadTrace deserializes a trace written by WriteTo.
func ReadTrace(r io.Reader) (*Trace, error) {
	br := bufio.NewReader(r)
	get32 := func() (uint32, error) {
		var buf [4]byte
		if _, err := io.ReadFull(br, buf[:]); err != nil {
			return 0, err
		}
		return binary.LittleEndian.Uint32(buf[:]), nil
	}
	magic, err := get32()
	if err != nil {
		return nil, fmt.Errorf("dyngraph: reading trace header: %w", err)
	}
	if magic != traceMagic {
		return nil, errors.New("dyngraph: not a trace stream")
	}
	n, err := get32()
	if err != nil {
		return nil, err
	}
	if n == 0 || n > 1<<28 {
		return nil, fmt.Errorf("dyngraph: implausible node count %d", n)
	}
	steps, err := get32()
	if err != nil {
		return nil, err
	}
	// A step lists at most every pair once. The count is still only a
	// claim, so the edge slice grows as edges arrive: a hostile header
	// costs no more memory than the stream carries.
	maxEdges := uint64(n) * uint64(n-1) / 2
	tr := NewTrace(int(n))
	for s := uint32(0); s < steps; s++ {
		count, err := get32()
		if err != nil {
			return nil, fmt.Errorf("dyngraph: reading step %d: %w", s, err)
		}
		if uint64(count) > maxEdges {
			return nil, fmt.Errorf("dyngraph: step %d claims %d edges, more than the %d pairs of %d nodes", s, count, maxEdges, n)
		}
		var edges []Edge
		for i := uint32(0); i < count; i++ {
			u, err := get32()
			if err != nil {
				return nil, err
			}
			v, err := get32()
			if err != nil {
				return nil, err
			}
			if u >= n || v >= n || u >= v {
				return nil, fmt.Errorf("dyngraph: invalid edge (%d,%d) in step %d", u, v, s)
			}
			edges = append(edges, Edge{int32(u), int32(v)})
		}
		tr.steps = append(tr.steps, edges)
	}
	return tr, nil
}
