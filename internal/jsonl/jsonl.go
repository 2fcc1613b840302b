// Package jsonl holds the kill-tolerant contract of the append-only
// JSON-lines files the sweep checkpoint and the telemetry capture write. A
// process killed mid-write leaves at most a damaged final line, so a bad
// final line is dropped silently while damage anywhere earlier is
// corruption; and a file reopened for appending is healed first, so the
// next line never glues onto a severed fragment.
package jsonl

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"os"
)

// Decoder consumes one non-blank line, trimmed, with its 1-based line
// number. An error marks the line bad.
type Decoder func(line int, text []byte) error

// Scan feeds every line of r to decode and returns the byte length of the
// valid prefix: the offset just past the last line that decoded or was
// blank. A bad line is an error only if another line follows it. pkg and
// noun name the format in read errors ("study: reading checkpoint").
func Scan(r io.Reader, pkg, noun string, decode Decoder) (validLen int64, err error) {
	br := bufio.NewReader(r)
	var pendingErr error // a bad line is fatal only if another line follows
	line := 0
	for {
		text, readErr := br.ReadBytes('\n')
		if len(text) > 0 {
			line++
			if pendingErr != nil {
				return 0, pendingErr
			}
			if trimmed := bytes.TrimSpace(text); len(trimmed) > 0 {
				pendingErr = decode(line, trimmed)
			}
			if pendingErr == nil {
				validLen += int64(len(text))
			}
		}
		if readErr == io.EOF {
			// A pending error on the final line is the kill signature:
			// drop the line, report the intact prefix.
			return validLen, nil
		}
		if readErr != nil {
			return 0, fmt.Errorf("%s: reading %s: %w", pkg, noun, readErr)
		}
	}
}

// Open opens the file at path for appending, creating it when missing,
// and feeds its lines to decode as Scan does. It truncates the file to
// its valid prefix and restores a severed trailing newline, then returns
// the file positioned at its end and that end's offset. The caller owns
// closing the file.
func Open(path, pkg, noun string, decode Decoder) (*os.File, int64, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, 0, err
	}
	size, err := heal(f, path, pkg, noun, decode)
	if err != nil {
		f.Close()
		return nil, 0, err
	}
	return f, size, nil
}

// heal scans f, truncates it to its valid prefix and leaves it positioned
// for appending, returning the resulting size.
func heal(f *os.File, path, pkg, noun string, decode Decoder) (int64, error) {
	validLen, err := Scan(f, pkg, noun, decode)
	if err != nil {
		return 0, fmt.Errorf("%s: %w", path, err)
	}
	if err := f.Truncate(validLen); err != nil {
		return 0, fmt.Errorf("%s: truncating partial %s line in %s: %w", pkg, noun, path, err)
	}
	if _, err := f.Seek(validLen, io.SeekStart); err != nil {
		return 0, err
	}
	if validLen == 0 {
		return 0, nil
	}
	// A kill can sever exactly the final line's trailing newline: the line
	// is intact (and counted), but appending after it would glue two JSON
	// objects onto one line. Repair the separator.
	var last [1]byte
	if _, err := f.ReadAt(last[:], validLen-1); err != nil {
		return 0, err
	}
	if last[0] == '\n' {
		return validLen, nil
	}
	if _, err := f.Write([]byte{'\n'}); err != nil {
		return 0, err
	}
	return validLen + 1, nil
}
