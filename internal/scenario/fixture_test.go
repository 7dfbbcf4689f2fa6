package scenario

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// TestCellArtifactsMatchParentFixtures runs one tiny fixed-seed cell
// and byte-compares its three deterministic artifacts — decision trace,
// telemetry and flow trace — with the fixtures kept by the packages
// that own the formats, whose tests hold their checkers to accepting
// them; this test holds the writers to producing them. It then replays
// the cell from the flow trace it just recorded, whose decision trace
// and telemetry must match the same fixtures.
//
// The cell is named as a single-experiment run names it, not as a
// campaign cell: the name reaches the flow trace's key. A deliberate
// format change regenerates the fixtures from this test's outputs.
func TestCellArtifactsMatchParentFixtures(t *testing.T) {
	cell := Scenario{
		Name: "fattree:4:2/contra", TopoSpec: "fattree:4:2", Scheme: SchemeContra,
		Policy: "minimize(path.util)", Seed: 5,
		Workload: Workload{Kind: WorkloadFCT, Dist: "websearch", Load: 0.4,
			DurationNs: 20_000_000, MaxFlows: 40},
		Observe:     Observe{TraceLevel: "decisions", MetricsIntervalNs: 500_000},
		RecordFlows: true,
	}
	// matches compares what write produces with pkg's fixture.
	matches := func(what string, write func(io.Writer) error, pkg, fixture string) {
		t.Helper()
		var got bytes.Buffer
		if err := write(&got); err != nil {
			t.Fatal(err)
		}
		fixture = filepath.Join("..", pkg, "testdata", fixture)
		want, err := os.ReadFile(fixture)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want) {
			t.Errorf("%s: %d bytes written, fixture %s has %d and differs", what, got.Len(), fixture, len(want))
		}
	}

	res, err := Run(cell)
	if err != nil {
		t.Fatal(err)
	}
	matches("trace", res.Trace.WriteJSONL, "trace", "cell.trace.jsonl")
	matches("metrics", res.Metrics.WriteJSONL, "metrics", "cell.metrics.jsonl")
	matches("flow trace", res.FlowTrace.WriteJSONL, "flowtrace", "cell.flow.jsonl")

	path := filepath.Join(t.TempDir(), "cell.flow.jsonl")
	if err := res.FlowTrace.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	replay := cell
	replay.RecordFlows = false
	replay.Workload = Workload{Kind: WorkloadTrace, TracePath: path}
	res, err = Run(replay)
	if err != nil {
		t.Fatal(err)
	}
	matches("replay trace", res.Trace.WriteJSONL, "trace", "cell.trace.jsonl")
	matches("replay metrics", res.Metrics.WriteJSONL, "metrics", "cell.metrics.jsonl")
}
