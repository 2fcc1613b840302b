package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"repro/internal/jsonl"
)

// The capture file format: one JSON object per line, each either a full
// reference sample or a delta against the previous line's decoded state.
//
//	{"ref":{"ts":1733262000123,"v":{"heap_bytes":104857,"sweep_cells_total":0}}}
//	{"d":{"dt":1000,"v":{"sweep_cells_total":2}}}
//
// A ref carries the absolute value of every metric; a delta carries only
// the metrics whose value changed, as signed differences (omitted = 0; a
// metric absent from every earlier line of the chain decodes from base 0).
// Every file begins with a ref, a fresh ref is emitted every RefEvery
// samples (bounding the damage a corrupt line can do), and a delta can
// never express a metric disappearing — the writer forces a ref when the
// metric set shrinks, and the reader treats a delta with no preceding ref
// as corruption.
//
// Durability and bounding mirror the sweep checkpoint contract:
//
//   - Appends are fsync-batched (every SyncEvery lines and on Close), so a
//     kill loses at most SyncEvery samples.
//   - The reader drops a malformed FINAL line silently (the kill
//     signature) but errors on damage anywhere earlier.
//   - When the current file exceeds MaxBytes/2 it rotates to <path>.1
//     (replacing any previous rotation), so the pair never holds more
//     than ~MaxBytes — a ring buffer over the most recent history.

// Capture defaults.
const (
	// DefaultMaxBytes bounds the current + rotated file pair.
	DefaultMaxBytes = 8 << 20
	// DefaultRefEvery is the full-reference cadence.
	DefaultRefEvery = 32
	// DefaultSyncEvery is the fsync batch size.
	DefaultSyncEvery = 8
)

// Ext is the conventional capture-file suffix.
const Ext = ".ftdc.jsonl"

// CaptureOptions configures a Capture; zero values take the defaults.
type CaptureOptions struct {
	// MaxBytes caps the total capture footprint across the live file and
	// its one rotation (DefaultMaxBytes when 0). Rotation triggers at
	// MaxBytes/2.
	MaxBytes int64
	// RefEvery is how many samples may share one reference before a fresh
	// full sample is emitted (DefaultRefEvery when 0).
	RefEvery int
	// SyncEvery is how many appends may accumulate before an fsync
	// (DefaultSyncEvery when 0). 1 syncs every sample.
	SyncEvery int
}

func (o CaptureOptions) withDefaults() CaptureOptions {
	if o.MaxBytes <= 0 {
		o.MaxBytes = DefaultMaxBytes
	}
	if o.RefEvery <= 0 {
		o.RefEvery = DefaultRefEvery
	}
	if o.SyncEvery <= 0 {
		o.SyncEvery = DefaultSyncEvery
	}
	return o
}

// Capture is the appending side of a capture file. Safe for concurrent
// use (the periodic ticker and per-event SampleNow hooks share one).
type Capture struct {
	mu   sync.Mutex
	path string
	opts CaptureOptions

	f         *os.File
	size      int64
	sinceRef  int
	sinceSync int
	prev      map[string]int64
	prevTS    int64
}

// refLine is a full sample: absolute timestamp and every metric's value.
type refLine struct {
	TS int64            `json:"ts"`
	V  map[string]int64 `json:"v"`
}

// deltaLine is a delta sample: timestamp delta and changed metrics only.
type deltaLine struct {
	DT int64            `json:"dt"`
	V  map[string]int64 `json:"v,omitempty"`
}

// captureLine is the wire union; exactly one side is set.
type captureLine struct {
	Ref   *refLine   `json:"ref,omitempty"`
	Delta *deltaLine `json:"d,omitempty"`
}

// OpenCapture opens (creating if needed) the capture at path for
// appending. An existing file's kill-truncated tail is healed exactly as
// the sweep checkpoint's: the valid prefix is kept, the severed fragment
// truncated away, and — since the previous process's delta chain is not
// recoverable state — the first new append always writes a full reference,
// so the resumed file stays decodable end to end.
func OpenCapture(path string, opts CaptureOptions) (*Capture, error) {
	var samples []Sample
	f, size, err := jsonl.Open(path, "telemetry", "capture", decodeSamples(&samples))
	if err != nil {
		return nil, err
	}
	return &Capture{path: path, opts: opts.withDefaults(), f: f, size: size}, nil
}

// Append encodes the sample (reference or delta, per the rules above),
// writes it, fsyncs on the batch boundary, and rotates when the live file
// crosses half the byte cap.
func (c *Capture) Append(s Sample) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.f == nil {
		return fmt.Errorf("telemetry: append to closed capture %s", c.path)
	}
	line, isRef, err := c.encodeLocked(s)
	if err != nil {
		return err
	}
	if _, err := c.f.Write(line); err != nil {
		return fmt.Errorf("telemetry: writing capture %s: %w", c.path, err)
	}
	c.size += int64(len(line))
	if isRef {
		c.sinceRef = 1
	} else {
		c.sinceRef++
	}
	// Remember the decoded state this line produces, for the next delta.
	c.prev = cloneValues(s.Values)
	c.prevTS = s.TimeMS
	c.sinceSync++
	if c.sinceSync >= c.opts.SyncEvery {
		if err := c.f.Sync(); err != nil {
			return fmt.Errorf("telemetry: fsync capture %s: %w", c.path, err)
		}
		c.sinceSync = 0
	}
	if c.size > c.opts.MaxBytes/2 {
		return c.rotateLocked()
	}
	return nil
}

// encodeLocked renders s as a ref or delta line against c.prev.
func (c *Capture) encodeLocked(s Sample) (line []byte, isRef bool, err error) {
	needRef := c.prev == nil || c.sinceRef >= c.opts.RefEvery
	if !needRef {
		// A delta cannot express a metric disappearing.
		for name := range c.prev {
			if _, ok := s.Values[name]; !ok {
				needRef = true
				break
			}
		}
	}
	var obj captureLine
	if needRef {
		obj.Ref = &refLine{TS: s.TimeMS, V: s.Values}
		if obj.Ref.V == nil {
			obj.Ref.V = map[string]int64{}
		}
	} else {
		d := &deltaLine{DT: s.TimeMS - c.prevTS}
		for name, v := range s.Values {
			if dv := v - c.prev[name]; dv != 0 {
				if d.V == nil {
					d.V = make(map[string]int64)
				}
				d.V[name] = dv
			}
		}
		obj.Delta = d
	}
	data, err := json.Marshal(obj)
	if err != nil {
		return nil, false, fmt.Errorf("telemetry: encoding capture sample: %w", err)
	}
	return append(data, '\n'), needRef, nil
}

// rotateLocked moves the live file to <path>.1 (replacing any previous
// rotation) and starts a fresh file whose first append will be a ref.
func (c *Capture) rotateLocked() error {
	if err := c.f.Sync(); err != nil {
		return fmt.Errorf("telemetry: fsync before rotating %s: %w", c.path, err)
	}
	if err := c.f.Close(); err != nil {
		return err
	}
	c.f = nil
	if err := os.Rename(c.path, c.path+".1"); err != nil {
		return fmt.Errorf("telemetry: rotating capture %s: %w", c.path, err)
	}
	f, err := os.OpenFile(c.path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	c.f = f
	c.size = 0
	c.sinceRef = 0
	c.sinceSync = 0
	c.prev = nil
	return nil
}

// Path returns the capture's live file path.
func (c *Capture) Path() string { return c.path }

// Close fsyncs and closes the capture.
func (c *Capture) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.f == nil {
		return nil
	}
	err := c.f.Sync()
	if cerr := c.f.Close(); err == nil {
		err = cerr
	}
	c.f = nil
	return err
}

func cloneValues(v map[string]int64) map[string]int64 {
	out := make(map[string]int64, len(v))
	for k, val := range v {
		out[k] = val
	}
	return out
}

// ReadCapture decodes capture lines from r into absolute samples. A
// malformed or chain-breaking FINAL line is dropped silently — the
// signature of a process killed mid-write — while damage anywhere earlier
// is a corrupt capture and errors.
func ReadCapture(r io.Reader) ([]Sample, error) {
	samples, _, err := scanCapture(r)
	return samples, err
}

// scanCapture is ReadCapture plus the byte length of the valid prefix —
// the offset just past the last intact line, where OpenCapture truncates
// so a resumed file stays self-consistent.
func scanCapture(r io.Reader) ([]Sample, int64, error) {
	var samples []Sample
	validLen, err := jsonl.Scan(r, "telemetry", "capture", decodeSamples(&samples))
	if err != nil {
		return nil, 0, err
	}
	return samples, validLen, nil
}

// decodeSamples returns the capture line decoder: it replays each ref or
// delta line onto the decoded state of the previous line and appends the
// resulting absolute sample to *samples.
func decodeSamples(samples *[]Sample) jsonl.Decoder {
	var cur map[string]int64 // decoded state of the last intact line
	var curTS int64
	return func(line int, text []byte) error {
		var obj captureLine
		if err := json.Unmarshal(text, &obj); err != nil {
			return fmt.Errorf("telemetry: capture line %d: %w", line, err)
		}
		switch {
		case obj.Ref != nil && obj.Delta == nil:
			cur = cloneValues(obj.Ref.V)
			curTS = obj.Ref.TS
		case obj.Delta != nil && obj.Ref == nil:
			if cur == nil {
				return fmt.Errorf("telemetry: capture line %d: delta with no preceding reference", line)
			}
			cur = cloneValues(cur)
			for name, dv := range obj.Delta.V {
				cur[name] += dv
			}
			curTS += obj.Delta.DT
		default:
			return fmt.Errorf("telemetry: capture line %d: want exactly one of ref/d", line)
		}
		*samples = append(*samples, Sample{TimeMS: curTS, Values: cur})
		return nil
	}
}

// ReadCaptureFile loads a capture including its rotation: <path>.1 first
// (the older half of the ring, if a rotation happened), then <path>. A
// missing live file is an error; a missing rotation is simply a capture
// that never wrapped.
func ReadCaptureFile(path string) ([]Sample, error) {
	var samples []Sample
	if older, err := os.Open(path + ".1"); err == nil {
		s, rerr := ReadCapture(older)
		older.Close()
		if rerr != nil {
			return nil, fmt.Errorf("%s.1: %w", path, rerr)
		}
		samples = s
	} else if !os.IsNotExist(err) {
		return nil, err
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	s, err := ReadCapture(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return append(samples, s...), nil
}

// CaptureFiles lists the live capture files under dir (by the *.ftdc.jsonl
// convention; rotations are picked up by ReadCaptureFile automatically),
// sorted by name.
func CaptureFiles(dir string) ([]string, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*"+Ext))
	if err != nil {
		return nil, err
	}
	sort.Strings(paths)
	return paths, nil
}
