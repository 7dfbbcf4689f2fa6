package dist

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"contra/internal/campaign"
	"contra/internal/flowtrace"
	"contra/internal/scenario"
)

// resultsByName maps cell name -> canonical Result JSON for a set of
// shard streams. Live and replay campaigns share cell names (the axes
// are identical) but not scenario keys (the workloads differ), so name
// is the join column.
func resultsByName(t *testing.T, streams ...string) map[string]string {
	t.Helper()
	out := map[string]string{}
	for _, path := range streams {
		recs, err := ReadRecordsFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for i := range recs {
			r := &recs[i]
			if r.Err != "" {
				t.Fatalf("cell %s failed: %s", r.Scenario.Name, r.Err)
			}
			enc, err := json.Marshal(r.Result)
			if err != nil {
				t.Fatal(err)
			}
			out[r.Scenario.Name] = string(enc)
		}
	}
	return out
}

// TestRecordDirReplayAcrossShards pins the campaign-level trace
// contract: a recorded campaign replayed from its trace directory is
// byte-identical per cell, whether the replay runs in one process or
// as two merged shards, and the record dir holds one durable trace per
// cell.
func TestRecordDirReplayAcrossShards(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	dir := t.TempDir()
	traceDir := filepath.Join(dir, "traces")

	live := sweepSpec()
	liveStream := filepath.Join(dir, "live.jsonl")
	sink, err := CreateJSONL(liveStream, false)
	if err != nil {
		t.Fatal(err)
	}
	st, err := Run(live, Options{Workers: 4, Artifacts: Artifacts{Flow: traceDir}}, sink)
	if err != nil {
		t.Fatal(err)
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	if st.Failed > 0 {
		t.Fatalf("%d live cells failed", st.Failed)
	}

	// One trace per cell, each named by the sanitized cell name and
	// readable under the strict v1 contract.
	entries, err := os.ReadDir(traceDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != live.Size() {
		t.Fatalf("record dir holds %d traces, campaign has %d cells", len(entries), live.Size())
	}
	for _, e := range entries {
		if !strings.HasSuffix(e.Name(), ".flow.jsonl") {
			t.Fatalf("unexpected file %s in record dir", e.Name())
		}
		if _, err := flowtrace.ReadFile(filepath.Join(traceDir, e.Name())); err != nil {
			t.Fatal(err)
		}
	}

	replaySpec := func() *campaign.Spec {
		s := sweepSpec()
		s.Workload = scenario.Workload{Kind: scenario.WorkloadTrace, TracePath: traceDir}
		return s
	}

	oneStream := filepath.Join(dir, "replay1.jsonl")
	sink, err = CreateJSONL(oneStream, false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(replaySpec(), Options{Workers: 4}, sink); err != nil {
		t.Fatal(err)
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}

	shardStreams := []string{filepath.Join(dir, "s0.jsonl"), filepath.Join(dir, "s1.jsonl")}
	for i, path := range shardStreams {
		sink, err := CreateJSONL(path, false)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Run(replaySpec(), Options{Workers: 2, Shard: Shard{i, 2}}, sink); err != nil {
			t.Fatal(err)
		}
		if err := sink.Close(); err != nil {
			t.Fatal(err)
		}
	}

	liveRes := resultsByName(t, liveStream)
	oneRes := resultsByName(t, oneStream)
	shardRes := resultsByName(t, shardStreams...)
	if len(liveRes) != live.Size() || len(oneRes) != live.Size() || len(shardRes) != live.Size() {
		t.Fatalf("cell counts differ: live %d, replay %d, sharded replay %d (want %d)",
			len(liveRes), len(oneRes), len(shardRes), live.Size())
	}
	for name, want := range liveRes {
		if got := oneRes[name]; got != want {
			t.Errorf("cell %s: single-process replay differs from live:\nlive:   %s\nreplay: %s", name, want, got)
		}
		if got := shardRes[name]; got != want {
			t.Errorf("cell %s: sharded replay differs from live:\nlive:   %s\nreplay: %s", name, want, got)
		}
	}

	// The merged sharded replay report must equal the single-process
	// replay report byte for byte (the usual merge determinism
	// contract, now over trace-kind cells).
	mergedOne, err := Merge([]string{oneStream})
	if err != nil {
		t.Fatal(err)
	}
	mergedShards, err := Merge(shardStreams)
	if err != nil {
		t.Fatal(err)
	}
	if a, b := renderReport(t, mergedOne), renderReport(t, mergedShards); a != b {
		t.Fatal("sharded trace replay renders differently from single-process replay")
	}
}
