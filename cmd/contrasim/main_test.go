package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// TestCellArtifactsMatchParentFixtures re-runs one tiny fixed-seed cell
// and byte-compares its three deterministic artifacts with the
// fixtures the commit before internal/jsonl wrote with the same flags:
//
//	contrasim -topo fattree:4:2 -scheme contra -load 0.4 -maxflows 40 -seed 5 \
//	  -trace-level decisions -trace-out cell.trace.jsonl \
//	  -metrics-interval 500000 -metrics-out cell.metrics.jsonl -record cell.flow.jsonl
//
// It then replays the cell from the flow trace it just recorded (the
// same flags with -replay in place of -record), whose decision trace and
// telemetry must match the same fixtures. The fixtures live with the
// packages that own the formats, whose tests hold their checkers to
// accepting them; this test holds the writers to producing them. A
// deliberate format change regenerates all three with the command above.
func TestCellArtifactsMatchParentFixtures(t *testing.T) {
	dir := t.TempDir()
	cell := func(record, replay, traceOut, metricsOut string) {
		t.Helper()
		err := run("fattree:4:2", "contra", "minimize(path.util)", "websearch", 0.4, 20,
			40, 5, false, false, false, "", false, 0, 0, record, replay, obsOpts{
				traceLevel: "decisions", traceOut: traceOut,
				metricsInterval: 500000, metricsOut: metricsOut,
				counterMode: "runnerup",
			})
		if err != nil {
			t.Fatal(err)
		}
	}
	at := func(name string) string { return filepath.Join(dir, name) }
	// matches compares the file written as name with pkg's fixture.
	matches := func(name, pkg, fixture string) {
		t.Helper()
		got, err := os.ReadFile(at(name))
		if err != nil {
			t.Fatal(err)
		}
		fixture = filepath.Join("..", "..", "internal", pkg, "testdata", fixture)
		want, err := os.ReadFile(fixture)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: %d bytes written, fixture %s has %d and differs", name, len(got), fixture, len(want))
		}
	}

	cell(at("cell.flow.jsonl"), "", at("cell.trace.jsonl"), at("cell.metrics.jsonl"))
	matches("cell.trace.jsonl", "trace", "cell.trace.jsonl")
	matches("cell.metrics.jsonl", "metrics", "cell.metrics.jsonl")
	matches("cell.flow.jsonl", "flowtrace", "cell.flow.jsonl")

	cell("", at("cell.flow.jsonl"), at("replay.trace.jsonl"), at("replay.metrics.jsonl"))
	matches("replay.trace.jsonl", "trace", "cell.trace.jsonl")
	matches("replay.metrics.jsonl", "metrics", "cell.metrics.jsonl")
}
