package dist

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestArtifactsRejectSharedTraceAndMetricsDir: decision traces and
// telemetry are both <cell>.jsonl, so one dir for both would let the
// second silently overwrite the first. Prepare refuses, naming both
// flags, however the two paths are spelled, and creates nothing.
func TestArtifactsRejectSharedTraceAndMetricsDir(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "out")
	for _, a := range []Artifacts{
		{Trace: dir, Metrics: dir},
		{Trace: dir, Metrics: dir + "/"},
		{Trace: filepath.Join(dir, "x", ".."), Metrics: dir},
	} {
		err := a.Prepare()
		if err == nil || !strings.Contains(err.Error(), "-trace-dir") || !strings.Contains(err.Error(), "-metrics-dir") {
			t.Fatalf("%+v: Prepare returned %v, want an error naming -trace-dir and -metrics-dir", a, err)
		}
		if _, err := os.Stat(dir); !os.IsNotExist(err) {
			t.Fatalf("%+v: rejected Prepare still created %s", a, dir)
		}
	}
	// Flow traces carry their own suffix, so sharing with them is fine,
	// and unset dirs are never "the same".
	ok := Artifacts{Flow: dir, Trace: dir, Metrics: filepath.Join(dir, "m")}
	if err := ok.Prepare(); err != nil {
		t.Fatal(err)
	}
	if err := (Artifacts{}).Prepare(); err != nil {
		t.Fatal(err)
	}
}
