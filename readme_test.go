package contra

import (
	"bytes"
	"os"
	"testing"
)

// readmeMaxLines bounds README.md. The README explains the system; the
// per-change performance record lives in CHANGES.md and
// BENCH_HISTORY.jsonl, and a README that keeps it grows without bound.
const readmeMaxLines = 600

func TestREADMEStaysADocument(t *testing.T) {
	b, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	if n := bytes.Count(b, []byte("\n")); n > readmeMaxLines {
		t.Fatalf("README.md is %d lines, over %d: put performance notes (before/after tables, measurement stories) in CHANGES.md and BENCH_HISTORY.jsonl, not the README",
			n, readmeMaxLines)
	}
}
