package scenario

import (
	"bytes"
	"io"
	"path/filepath"
	"testing"

	"contra/internal/golden"
)

// TestCellArtifactsMatchParentFixtures runs one tiny fixed-seed cell
// and holds its three deterministic artifacts — decision trace,
// telemetry and flow trace — byte for byte to the fixtures kept by the
// packages that own the formats, whose tests hold their checkers to
// accepting them; this test holds the writers to producing them, and
// the re-pin switch regenerates them. It then replays the cell from the
// flow trace it just recorded, whose decision trace and telemetry must
// equal the first run's.
//
// The cell is named as a single-experiment run names it, not as a
// campaign cell: the name reaches the flow trace's key.
func TestCellArtifactsMatchParentFixtures(t *testing.T) {
	cell := Scenario{
		Name: "fattree:4:2/contra", TopoSpec: "fattree:4:2", Scheme: SchemeContra,
		Policy: "minimize(path.util)", Seed: 5,
		Workload: Workload{Kind: WorkloadFCT, Dist: "websearch", Load: 0.4,
			DurationNs: 20_000_000, MaxFlows: 40},
		Observe:     Observe{TraceLevel: "decisions", MetricsIntervalNs: 500_000},
		RecordFlows: true,
	}
	encode := func(write func(io.Writer) error) []byte {
		t.Helper()
		var b bytes.Buffer
		if err := write(&b); err != nil {
			t.Fatal(err)
		}
		return b.Bytes()
	}
	fixture := func(pkg, name string) string { return filepath.Join("..", pkg, "testdata", name) }

	res, err := Run(cell)
	if err != nil {
		t.Fatal(err)
	}
	trace, metrics := encode(res.Trace.WriteJSONL), encode(res.Metrics.WriteJSONL)
	golden.Fixture(t, fixture("trace", "cell.trace.jsonl"), trace)
	golden.Fixture(t, fixture("metrics", "cell.metrics.jsonl"), metrics)
	golden.Fixture(t, fixture("flowtrace", "cell.flow.jsonl"), encode(res.FlowTrace.WriteJSONL))

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
	if got := encode(res.Trace.WriteJSONL); !bytes.Equal(got, trace) {
		t.Errorf("replay trace: %d bytes, the recorded run's %d, and differs", len(got), len(trace))
	}
	if got := encode(res.Metrics.WriteJSONL); !bytes.Equal(got, metrics) {
		t.Errorf("replay metrics: %d bytes, the recorded run's %d, and differs", len(got), len(metrics))
	}
}
