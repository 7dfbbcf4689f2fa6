package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestRun drives the command over the owning packages' fixtures: the
// ok/FAIL lines and the 0/1/2 exit codes are the interface CI's smoke
// jobs and scripts/fabric_smoke.sh script against.
func TestRun(t *testing.T) {
	fix := func(pkg, name string) string { return filepath.Join("..", "..", "internal", pkg, "testdata", name) }
	trace, metrics := fix("trace", "cell.trace.jsonl"), fix("metrics", "cell.metrics.jsonl")
	flow, journal := fix("flowtrace", "cell.flow.jsonl"), fix("fabric", "fleet4.journal.jsonl")

	// A journal whose coordinator died mid-line.
	raw, err := os.ReadFile(journal)
	if err != nil {
		t.Fatal(err)
	}
	torn := filepath.Join(t.TempDir(), "torn.journal.jsonl")
	if err := os.WriteFile(torn, raw[:len(raw)-25], 0o644); err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		args   []string
		status int
		stdout []string // one wanted prefix per output line
	}{
		{[]string{"trace", trace}, 0, []string{"ok   " + trace + ": 574 decision line(s), 40 flow line(s)"}},
		{[]string{"metrics", metrics}, 0, []string{"ok   " + metrics + ": 47 sample(s), 64 link(s), 20 router(s)"}},
		{[]string{"flow", flow}, 0, []string{"ok   " + flow + ": v1 fct trace on fattree:4:2: 40 flow(s)"}},
		{[]string{"journal", journal, torn}, 0, []string{
			"ok   " + journal + ": 4 cell(s), 8 event(s), 4 result(s), 0 steal(s), 0 pre-done",
			"ok   " + torn + ": 4 cell(s), 7 event(s), 3 result(s), 0 steal(s), 0 pre-done, torn final line dropped",
		}},
		// The kind is the caller's to state: nothing is sniffed, and one
		// bad file fails the run without hiding the others.
		{[]string{"trace", metrics, trace, "no-such-file"}, 1, []string{
			"FAIL " + metrics + `: trace: line 1: unknown type "meta"`,
			"ok   " + trace,
			"FAIL no-such-file: open no-such-file:",
		}},
		{[]string{"flow", torn}, 1, []string{"FAIL " + torn + ": flowtrace: line 1: "}},
		{[]string{"trace"}, 2, nil},
		{[]string{"records", trace}, 2, nil},
		{[]string{trace}, 2, nil},
		{nil, 2, nil},
	}
	for _, tc := range cases {
		var stdout, stderr bytes.Buffer
		status := run(tc.args, &stdout, &stderr)
		lines := strings.Split(strings.TrimRight(stdout.String(), "\n"), "\n")
		if stdout.Len() == 0 {
			lines = nil
		}
		ok := status == tc.status && len(lines) == len(tc.stdout)
		for i := 0; ok && i < len(lines); i++ {
			ok = strings.HasPrefix(lines[i], tc.stdout[i])
		}
		if usage := strings.HasPrefix(stderr.String(), "usage: contracheck "); !ok || usage != (tc.status == 2) {
			t.Errorf("contracheck %q = %d\nstdout: %sstderr: %swant %d and %q", tc.args, status, &stdout, &stderr, tc.status, tc.stdout)
		}
	}
}
