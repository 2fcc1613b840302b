package study

import (
	"encoding/json"
	"fmt"
	"io"
	"os"

	"repro/internal/jsonl"
	"repro/internal/stats"
)

// Key identifies one sweep cell: the canonical spec strings of its model
// and protocol plus the trial count and master seed. Two cells with equal
// Keys run the identical trial set (the study engine derives every
// per-trial stream from Seed), so a checkpointed record under a Key fully
// replaces re-execution of that cell.
type Key struct {
	Model    string
	Protocol string
	Trials   int
	Seed     uint64
}

// String renders the key for logs and error messages.
func (k Key) String() string {
	return fmt.Sprintf("%s × %s (trials=%d seed=%d)", k.Model, k.Protocol, k.Trials, k.Seed)
}

// CellRecord is the checkpoint form of one completed sweep cell: its Key
// fields, the run configuration, and the per-trial outcomes — everything
// the report layer aggregates, so a finished cell never reruns. Trial i
// completed iff Times[i] >= 0; HalfTimes[i] is -1 when the run never
// reached n/2 informed.
type CellRecord struct {
	Model    string `json:"model"`
	Protocol string `json:"protocol"`
	Trials   int    `json:"trials"`
	Seed     uint64 `json:"seed"`
	Source   int    `json:"source"`
	MaxSteps int    `json:"max_steps"`
	// N is the node count of the model, the denominator of informed
	// fractions.
	N int `json:"n"`
	// Times, HalfTimes, and Informed hold one entry per trial, in trial
	// order.
	Times     []int `json:"times"`
	HalfTimes []int `json:"half_times"`
	Informed  []int `json:"informed"`
	// Messages and Useless hold the per-trial message costs, in trial
	// order (flood.Result.Messages/Useless). Records written before cost
	// accounting existed read as nil — HasCost distinguishes them, and the
	// report layer only emits cost columns when every record carries them,
	// so old checkpoints keep reporting byte-identically.
	Messages []int64 `json:"messages,omitempty"`
	Useless  []int64 `json:"useless,omitempty"`
	// WallMS is the wall-clock milliseconds the cell took on whichever
	// worker executed it. It is diagnostic only — never part of the Key,
	// never reported in CSV/markdown, and two legitimate records for the
	// same key may differ in it (two workers racing a re-leased cell).
	// Records written before the field existed read as 0.
	WallMS int64 `json:"wall_ms,omitempty"`
}

// Key returns the record's cell key.
func (r CellRecord) Key() Key {
	return Key{Model: r.Model, Protocol: r.Protocol, Trials: r.Trials, Seed: r.Seed}
}

// Record converts a completed study cell into its checkpoint record.
func Record(s Study, c Cell) CellRecord {
	rec := CellRecord{
		Model:     c.Model,
		Protocol:  c.Protocol,
		Trials:    s.Trials,
		Seed:      s.Seed,
		Source:    s.Source,
		MaxSteps:  s.MaxSteps,
		N:         c.N,
		Times:     make([]int, len(c.Results)),
		HalfTimes: make([]int, len(c.Results)),
		Informed:  make([]int, len(c.Results)),
		Messages:  make([]int64, len(c.Results)),
		Useless:   make([]int64, len(c.Results)),
	}
	for i, res := range c.Results {
		rec.Times[i] = res.Time
		rec.HalfTimes[i] = res.HalfTime
		rec.Informed[i] = res.Informed
		rec.Messages[i] = res.Messages
		rec.Useless[i] = res.Useless
	}
	return rec
}

// HasCost reports whether the record carries per-trial message costs —
// false exactly for records checkpointed before cost accounting existed.
func (r CellRecord) HasCost() bool {
	return r.Messages != nil && r.Useless != nil
}

// CompletedTimes returns the completion times of completed trials, in
// trial order.
func (r CellRecord) CompletedTimes() []float64 {
	times := make([]float64, 0, len(r.Times))
	for _, t := range r.Times {
		if t >= 0 {
			times = append(times, float64(t))
		}
	}
	return times
}

// MedianTime returns the median completion time over completed trials
// (NaN when none completed).
func (r CellRecord) MedianTime() float64 {
	return stats.Median(r.CompletedTimes())
}

// Validate checks the record's internal consistency: a record whose
// per-trial slices do not match its trial count (a line truncated
// mid-write that still parsed as JSON, or a hostile/buggy remote worker)
// must not suppress re-execution. The checkpoint scanner applies it to
// every line, and the campaign server applies it to every record a worker
// submits before the record reaches a checkpoint.
func (r CellRecord) Validate() error {
	if r.Trials <= 0 {
		return fmt.Errorf("study: record %s: trials must be positive", r.Key())
	}
	if len(r.Times) != r.Trials || len(r.HalfTimes) != r.Trials || len(r.Informed) != r.Trials {
		return fmt.Errorf("study: record %s has %d/%d/%d per-trial entries for %d trials",
			r.Key(), len(r.Times), len(r.HalfTimes), len(r.Informed), r.Trials)
	}
	// Cost arrays are optional as a PAIR (pre-cost records have neither),
	// but a lone or short one is damage, not age.
	if (r.Messages != nil) != (r.Useless != nil) {
		return fmt.Errorf("study: record %s has messages without useless (or vice versa)", r.Key())
	}
	if r.HasCost() && (len(r.Messages) != r.Trials || len(r.Useless) != r.Trials) {
		return fmt.Errorf("study: record %s has %d/%d cost entries for %d trials",
			r.Key(), len(r.Messages), len(r.Useless), r.Trials)
	}
	if r.WallMS < 0 {
		return fmt.Errorf("study: record %s: negative wall_ms %d", r.Key(), r.WallMS)
	}
	return nil
}

// WriteCheckpoint appends the record to w as one JSON line.
func WriteCheckpoint(w io.Writer, rec CellRecord) error {
	data, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("study: encoding checkpoint for %s: %w", rec.Key(), err)
	}
	data = append(data, '\n')
	if _, err := w.Write(data); err != nil {
		return fmt.Errorf("study: writing checkpoint for %s: %w", rec.Key(), err)
	}
	return nil
}

// ReadCheckpoint parses JSONL cell records from r. A malformed or
// inconsistent FINAL line is dropped silently — that is the signature of a
// sweep killed mid-write, and resuming must tolerate it — while damage
// anywhere earlier is a corrupt checkpoint and errors. Later records win
// when a key appears twice (a rerun appended a fresh result).
func ReadCheckpoint(r io.Reader) ([]CellRecord, error) {
	records, _, err := scanCheckpoint(r)
	return records, err
}

// scanCheckpoint is ReadCheckpoint plus the byte length of the valid
// prefix: the offset just past the last intact record, where an appender
// must resume so a kill-severed partial line is overwritten rather than
// glued onto (see OpenCheckpoint).
func scanCheckpoint(r io.Reader) ([]CellRecord, int64, error) {
	var records []CellRecord
	validLen, err := jsonl.Scan(r, "study", "checkpoint", decodeRecords(&records))
	if err != nil {
		return nil, 0, err
	}
	return records, validLen, nil
}

// decodeRecords returns the checkpoint line decoder: it appends each line's
// record to *records once the record parses and passes Validate.
func decodeRecords(records *[]CellRecord) jsonl.Decoder {
	return func(line int, text []byte) error {
		var rec CellRecord
		if err := json.Unmarshal(text, &rec); err != nil {
			return fmt.Errorf("study: checkpoint line %d: %w", line, err)
		}
		if err := rec.Validate(); err != nil {
			return fmt.Errorf("study: checkpoint line %d: %w", line, err)
		}
		*records = append(*records, rec)
		return nil
	}
}

// LoadCheckpoint reads the checkpoint file into a key-indexed map; a
// missing file is an empty checkpoint, not an error.
func LoadCheckpoint(path string) (map[Key]CellRecord, error) {
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return map[Key]CellRecord{}, nil
	}
	if err != nil {
		return nil, err
	}
	defer f.Close()
	records, err := ReadCheckpoint(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return Index(records), nil
}

// OpenCheckpoint opens the checkpoint at path for resumption: it loads
// the existing records (creating an empty file when none exists) and
// returns the file positioned for appending. A kill-severed partial final
// line is truncated away first, so the next append starts on a fresh line
// instead of gluing onto the fragment and corrupting the file for every
// later load. The caller owns closing the file.
func OpenCheckpoint(path string) (*os.File, map[Key]CellRecord, error) {
	var records []CellRecord
	f, _, err := jsonl.Open(path, "study", "checkpoint", decodeRecords(&records))
	if err != nil {
		return nil, nil, err
	}
	return f, Index(records), nil
}

// Index keys the records, later entries winning duplicates.
func Index(records []CellRecord) map[Key]CellRecord {
	m := make(map[Key]CellRecord, len(records))
	for _, rec := range records {
		m[rec.Key()] = rec
	}
	return m
}
