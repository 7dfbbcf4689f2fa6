package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"
)

// TestRun drives the command over the owning packages' fixtures: the
// ok/FAIL lines and the 0/1/2 exit codes are the interface a shell
// script checking artifact files relies on.
func TestRun(t *testing.T) {
	fix := func(pkg, name string) string { return filepath.Join("..", "..", "internal", pkg, "testdata", name) }
	trace, metrics := fix("trace", "cell.trace.jsonl"), fix("metrics", "cell.metrics.jsonl")
	flow := fix("flowtrace", "cell.flow.jsonl")

	cases := []struct {
		args   []string
		status int
		stdout []string // one wanted prefix per output line
	}{
		{[]string{"trace", trace}, 0, []string{"ok   " + trace + ": 574 decision line(s), 40 flow line(s)"}},
		{[]string{"metrics", metrics}, 0, []string{"ok   " + metrics + ": 47 sample(s), 64 link(s), 20 router(s)"}},
		{[]string{"flow", flow}, 0, []string{"ok   " + flow + ": v1 fct trace on fattree:4:2: 40 flow(s)"}},
		// The kind is the caller's to state: nothing is sniffed, and one
		// bad file fails the run without hiding the others.
		{[]string{"trace", metrics, trace, "no-such-file"}, 1, []string{
			"FAIL " + metrics + `: trace: line 1: unknown type "meta"`,
			"ok   " + trace,
			"FAIL no-such-file: open no-such-file:",
		}},
		{[]string{"flow", metrics}, 1, []string{"FAIL " + metrics + ": flowtrace: line 1: "}},
		{[]string{"trace"}, 2, nil},
		{[]string{"records", trace}, 2, nil},
		{[]string{"journal", trace}, 2, nil},
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
