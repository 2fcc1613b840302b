package profile

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// TestStartWritesBothProfiles checks that a run bracketed by Start and
// stop leaves a gzip-compressed profile in each file, and that empty paths
// write nothing.
func TestStartWritesBothProfiles(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.prof"), filepath.Join(dir, "mem.prof")
	stop, err := Start(cpu, mem)
	if err != nil {
		t.Fatal(err)
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{cpu, mem} {
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.HasPrefix(b, []byte{0x1f, 0x8b}) {
			t.Errorf("%s: %d bytes, not a gzip-compressed profile", filepath.Base(path), len(b))
		}
	}

	stop, err = Start("", "")
	if err != nil {
		t.Fatal(err)
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}
}

// TestStartReportsAnUnwritableFile checks that a CPU profile path that
// cannot be created is an error, not a silent no-op.
func TestStartReportsAnUnwritableFile(t *testing.T) {
	if _, err := Start(filepath.Join(t.TempDir(), "missing", "cpu.prof"), ""); err == nil {
		t.Fatal("Start into a missing directory returned no error")
	}
}
