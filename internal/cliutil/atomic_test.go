package cliutil

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// TestWriteFileAtomicKeepsPreviousFileOnFailure is the torn-artifact
// regression: a re-writer that dies midway (a stolen cell's second
// worker, killed) must leave the file the first writer completed
// intact — an in-place truncate would hand a strict reader a prefix —
// and a failed write must not strand its temp file.
func TestWriteFileAtomicKeepsPreviousFileOnFailure(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "cell.flow.jsonl")
	const complete = "line 1\nline 2\n"
	if err := WriteFileAtomic(path, func(w io.Writer) error {
		_, err := io.WriteString(w, complete)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("killed mid-write")
	err := WriteFileAtomic(path, func(w io.Writer) error {
		io.WriteString(w, "line 1\nli") // a torn prefix of the same content
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("failed write returned %v, want the writer's error", err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != complete {
		t.Fatalf("file after a failed re-write = %q, want the previous complete content %q", got, complete)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("dir holds %d entries after a failed write, want only the complete file", len(entries))
	}
	if st, err := os.Stat(path); err != nil || st.Mode().Perm()&0o044 != 0o044 {
		t.Fatalf("artifact mode %v (err %v), want world-readable like os.Create's", st.Mode(), err)
	}
}
