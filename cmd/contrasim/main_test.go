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
// The fixtures live with the packages that own the formats, whose tests
// hold their checkers to accepting them; this test holds the writers to
// producing them. A deliberate format change regenerates all three with
// the command above.
func TestCellArtifactsMatchParentFixtures(t *testing.T) {
	dir := t.TempDir()
	out := map[string]string{
		"trace":     filepath.Join(dir, "cell.trace.jsonl"),
		"metrics":   filepath.Join(dir, "cell.metrics.jsonl"),
		"flowtrace": filepath.Join(dir, "cell.flow.jsonl"),
	}
	err := run("fattree:4:2", "contra", "minimize(path.util)", "websearch", 0.4, 20,
		40, 5, false, false, false, "", false, 0, 0, out["flowtrace"], "", obsOpts{
			traceLevel: "decisions", traceOut: out["trace"],
			metricsInterval: 500000, metricsOut: out["metrics"],
			counterMode: "runnerup",
		})
	if err != nil {
		t.Fatal(err)
	}
	for pkg, path := range out {
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		fixture := filepath.Join("..", "..", "internal", pkg, "testdata", filepath.Base(path))
		want, err := os.ReadFile(fixture)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: %d bytes written, fixture %s has %d and differs", pkg, len(got), fixture, len(want))
		}
	}
}
