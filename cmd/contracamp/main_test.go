package main

import (
	"crypto/sha256"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"contra/internal/campaign"
	"contra/internal/dist"
	"contra/internal/fabric"
)

// tinySpec is 2 schemes × 2 seeds with every per-cell artifact on:
// decision tracing and telemetry in the spec (both are part of the cell
// key, so they must reach a coordinator through it), flow recording via
// -record-dir.
const tinySpec = `{
  "name": "modes",
  "topos": ["dc"],
  "schemes": ["contra", "ecmp"],
  "loads": [0.3],
  "seeds": [1, 2],
  "workload": {"dist": "cache", "duration_ns": 2000000, "max_flows": 60},
  "trace_level": "decisions",
  "metrics_interval_ns": 500000
}`

// outputs is everything one way of running the campaign leaves behind.
type outputs struct {
	json, csv            string
	flow, trace, metrics map[string]string // file name -> content
}

func readDir(t *testing.T, dir string) map[string]string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	files := map[string]string{}
	for _, e := range entries {
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		files[e.Name()] = string(b)
	}
	return files
}

// TestEveryModeWritesTheSameBytes drives run(options) through the four
// ways a cell can execute — in-memory, streamed then merged, two shards
// then merged, and a fabric worker against an in-process coordinator —
// and requires identical report JSON/CSV and file-for-file identical
// flow-trace, decision-trace and telemetry dirs from all of them.
func TestEveryModeWritesTheSameBytes(t *testing.T) {
	root := t.TempDir()
	specPath := filepath.Join(root, "spec.json")
	if err := os.WriteFile(specPath, []byte(tinySpec), 0o644); err != nil {
		t.Fatal(err)
	}
	// base returns the flags every mode shares, writing under its own dir.
	base := func(mode string) (options, string) {
		dir := filepath.Join(root, mode)
		return options{
			quiet: true, noTable: true, workers: 2,
			metricsInterval: -1, cellTimeout: -1,
			recordDir:  filepath.Join(dir, "flow"),
			traceDir:   filepath.Join(dir, "trace"),
			metricsDir: filepath.Join(dir, "metrics"),
		}, dir
	}
	must := func(o options) {
		t.Helper()
		if err := run(o); err != nil {
			t.Fatal(err)
		}
	}
	collect := func(o options, dir string) outputs {
		t.Helper()
		j, err := os.ReadFile(o.out)
		if err != nil {
			t.Fatal(err)
		}
		c, err := os.ReadFile(o.csvOut)
		if err != nil {
			t.Fatal(err)
		}
		return outputs{string(j), string(c),
			readDir(t, filepath.Join(dir, "flow")),
			readDir(t, filepath.Join(dir, "trace")),
			readDir(t, filepath.Join(dir, "metrics"))}
	}
	// merge renders the streams into dir's report files.
	merge := func(dir, streams string) options {
		o := options{quiet: true, noTable: true, merge: streams,
			out: filepath.Join(dir, "out.json"), csvOut: filepath.Join(dir, "out.csv")}
		must(o)
		return o
	}

	got := map[string]outputs{}

	o, dir := base("inmem")
	o.spec = specPath
	o.out, o.csvOut = filepath.Join(dir, "out.json"), filepath.Join(dir, "out.csv")
	must(o)
	got["in-memory"] = collect(o, dir)

	o, dir = base("stream")
	o.spec, o.stream = specPath, filepath.Join(root, "stream.jsonl")
	must(o)
	got["-stream + -merge"] = collect(merge(dir, o.stream), dir)

	o, dir = base("shards")
	o.spec = specPath
	for _, sh := range []string{"0/2", "1/2"} {
		o.shard, o.stream = sh, filepath.Join(root, "shard"+sh[:1]+".jsonl")
		must(o)
	}
	got["two shards + -merge"] = collect(merge(dir, filepath.Join(root, "shard0.jsonl")+","+filepath.Join(root, "shard1.jsonl")), dir)

	spec, err := campaign.LoadFile(specPath)
	if err != nil {
		t.Fatal(err)
	}
	coordStream := filepath.Join(root, "coord.jsonl")
	sink, err := dist.CreateJSONL(coordStream, false)
	if err != nil {
		t.Fatal(err)
	}
	coord, err := fabric.New(spec, sink, nil, fabric.Options{})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(coord.Handler())
	defer srv.Close()
	o, dir = base("worker")
	o.worker, o.workerDir, o.workerID = srv.URL, filepath.Join(dir, "durable"), "w0"
	must(o)
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	got["fabric worker"] = collect(merge(dir, coordStream), dir)

	want := got["in-memory"]
	if n := spec.Size(); len(want.flow) != n || len(want.trace) != n || len(want.metrics) != n {
		t.Fatalf("in-memory run wrote %d flow, %d trace, %d metrics files; want %d of each",
			len(want.flow), len(want.trace), len(want.metrics), n)
	}
	for mode, g := range got {
		if g.json != want.json || g.csv != want.csv {
			t.Errorf("%s: report JSON/CSV differ from the in-memory run", mode)
		}
		for kind, pair := range map[string][2]map[string]string{
			"flow": {g.flow, want.flow}, "trace": {g.trace, want.trace}, "metrics": {g.metrics, want.metrics},
		} {
			if !reflect.DeepEqual(pair[0], pair[1]) {
				t.Errorf("%s: %s dir differs from the in-memory run (%d vs %d files)", mode, kind, len(pair[0]), len(pair[1]))
			}
		}
	}
}

// TestGoldenCampaignDigests runs the four fixed-seed campaigns that
// scripts/golden.sh pins through run(options) and compares the report
// JSON and CSV with the committed digests, so `go test ./...` fails on a
// single moved byte of simulator output. The script keeps --update and
// the process-level variants (shards merged, tracing and telemetry
// forced off).
func TestGoldenCampaignDigests(t *testing.T) {
	if testing.Short() {
		t.Skip("runs four campaigns (~8s)")
	}
	const dir = "../../examples/campaign"
	for _, name := range []string{"fattree_smoke", "chaos_smoke", "packed_smoke", "cohorts_smoke"} {
		t.Run(name, func(t *testing.T) {
			golden, err := os.ReadFile(filepath.Join(dir, "golden", name+".sha256"))
			if err != nil {
				t.Fatal(err)
			}
			// sha256sum lines: "<hex>  <file>".
			want := map[string]string{}
			for _, line := range strings.Split(strings.TrimSpace(string(golden)), "\n") {
				sum, file, _ := strings.Cut(line, "  ")
				want[file] = sum
			}
			out := t.TempDir()
			o := options{
				spec: filepath.Join(dir, name+".json"), quiet: true, noTable: true, workers: 2,
				metricsInterval: -1, cellTimeout: -1,
				out: filepath.Join(out, name+".json"), csvOut: filepath.Join(out, name+".csv"),
			}
			if err := run(o); err != nil {
				t.Fatal(err)
			}
			for _, path := range []string{o.out, o.csvOut} {
				b, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				file := filepath.Base(path)
				if got := fmt.Sprintf("%x", sha256.Sum256(b)); got != want[file] {
					t.Errorf("%s: sha256 %s, golden %s", file, got, want[file])
				}
			}
		})
	}
}
