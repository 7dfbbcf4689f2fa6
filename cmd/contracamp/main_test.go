package main

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"contra/internal/campaign"
)

// update makes TestGoldenCampaignDigests rewrite the committed digests
// from its in-memory runs before it checks them, after an intentional
// change of simulator output:
//
//	go test ./cmd/contracamp -run TestGoldenCampaignDigests -update
var update = flag.Bool("update", false, "rewrite examples/campaign/golden/*.sha256")

// tinySpec is 2 schemes × 2 loads × 2 seeds (two loads so that there is
// an FCT-vs-load figure to draw) with every per-cell artifact on:
// decision tracing and telemetry in the spec (both are part of the cell
// key), flow recording via -record-dir.
const tinySpec = `{
  "name": "modes",
  "topos": ["dc"],
  "schemes": ["contra", "ecmp"],
  "loads": [0.2, 0.3],
  "seeds": [1, 2],
  "workload": {"dist": "cache", "duration_ns": 2000000, "max_flows": 60},
  "trace_level": "decisions",
  "metrics_interval_ns": 500000
}`

// outputs is everything one way of running the campaign leaves behind:
// every view render writes of the report (the figure data that survives
// a record stream is fct_vs_load.dat), and the per-cell artifact dirs.
type outputs struct {
	report               [6]string         // -out, -csv, -agg-csv, -fct-csv, -rec-csv, -figures
	flow, trace, metrics map[string]string // file name -> content
}

// reportFlags points every report output flag into dir.
func reportFlags(o *options, dir string) {
	o.out, o.csvOut = filepath.Join(dir, "out.json"), filepath.Join(dir, "out.csv")
	o.aggCSV, o.fctCSV, o.recCSV = filepath.Join(dir, "agg.csv"), filepath.Join(dir, "fct.csv"), filepath.Join(dir, "rec.csv")
	o.figuresDir = filepath.Join(dir, "figures")
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

// TestEveryModeWritesTheSameBytes drives run(options) through the three
// ways a cell can execute — in-memory, streamed then merged, and two
// shards then merged — and requires identical report outputs (JSON,
// CSV, the three aggregate CSVs, the FCT-vs-load figure data) and
// file-for-file identical flow-trace, decision-trace and telemetry dirs
// from all of them.
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
		out := outputs{
			flow:    readDir(t, filepath.Join(dir, "flow")),
			trace:   readDir(t, filepath.Join(dir, "trace")),
			metrics: readDir(t, filepath.Join(dir, "metrics")),
		}
		for i, path := range []string{o.out, o.csvOut, o.aggCSV, o.fctCSV, o.recCSV,
			filepath.Join(o.figuresDir, "fct_vs_load.dat")} {
			b, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			out.report[i] = string(b)
		}
		return out
	}
	// merge renders the streams into dir's report files.
	merge := func(dir, streams string) options {
		o := options{quiet: true, noTable: true, metricsInterval: -1, cellTimeout: -1, merge: streams}
		reportFlags(&o, dir)
		must(o)
		return o
	}

	got := map[string]outputs{}

	o, dir := base("inmem")
	o.spec = specPath
	reportFlags(&o, dir)
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
	want := got["in-memory"]
	if n := spec.Size(); len(want.flow) != n || len(want.trace) != n || len(want.metrics) != n {
		t.Fatalf("in-memory run wrote %d flow, %d trace, %d metrics files; want %d of each",
			len(want.flow), len(want.trace), len(want.metrics), n)
	}
	for mode, g := range got {
		for i, flag := range []string{"-out", "-csv", "-agg-csv", "-fct-csv", "-rec-csv", "-figures fct_vs_load.dat"} {
			if g.report[i] != want.report[i] {
				t.Errorf("%s: %s differs from the in-memory run", mode, flag)
			}
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

// TestMergeCountsEachCellOnce is the crash/resume double-count
// regression: a record that reached the stream twice (a crash between
// the stream write and the checkpoint mark leaves exactly that) must not
// become an extra seed of its cell in the aggregate, a repeat that
// disagrees on the index is refused, and so is a second campaign's
// stream. A report JSON written by -out is a -merge input too, and
// renders the CSV it was written next to.
func TestMergeCountsEachCellOnce(t *testing.T) {
	root := t.TempDir()
	at := func(name string) string { return filepath.Join(root, name) }
	write := func(name, content string) string {
		t.Helper()
		if err := os.WriteFile(at(name), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		return at(name)
	}
	read := func(name string) string {
		t.Helper()
		b, err := os.ReadFile(at(name))
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	base := options{quiet: true, noTable: true, workers: 2, metricsInterval: -1, cellTimeout: -1}

	o := base
	o.spec, o.stream = write("spec.json", tinySpec), at("clean.jsonl")
	if err := run(o); err != nil {
		t.Fatal(err)
	}
	aggregate := func(stream, prefix string) error {
		o := base
		o.merge = stream
		o.out, o.csvOut, o.aggCSV = at(prefix+".json"), at(prefix+".csv"), at(prefix+".agg.csv")
		return run(o)
	}
	if err := aggregate(at("clean.jsonl"), "clean"); err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(read("clean.jsonl"), "\n")
	if err := aggregate(write("dup.jsonl", read("clean.jsonl")+lines[0]), "dup"); err != nil {
		t.Fatal(err)
	}
	if got, want := read("dup.agg.csv"), read("clean.agg.csv"); got != want {
		t.Errorf("a repeated record moved the aggregate:\n%s\nwant:\n%s", got, want)
	}
	// tinySpec has two seeds per cell; the aggregate must say so.
	for _, row := range strings.Split(strings.TrimSpace(read("dup.agg.csv")), "\n")[1:] {
		if f := strings.Split(row, ","); f[4] != "2" {
			t.Errorf("seeds = %s, want 2: %s", f[4], row)
		}
	}

	moved := strings.Replace(lines[0], `"index":`, `"index":1`, 1)
	if err := aggregate(write("conflict.jsonl", read("clean.jsonl")+moved), "conflict"); err == nil || !strings.Contains(err.Error(), "at both index") {
		t.Errorf("a repeat at another index: %v, want the collector's refusal", err)
	}
	other := strings.ReplaceAll(read("clean.jsonl"), `"campaign":"modes"`, `"campaign":"other"`)
	if err := aggregate(at("clean.jsonl")+","+write("other.jsonl", other), "mixed"); err == nil || !strings.Contains(err.Error(), "mixes campaign") {
		t.Errorf("two campaigns' streams: %v, want the collector's refusal", err)
	}

	if err := aggregate(at("clean.json"), "reloaded"); err != nil {
		t.Fatalf("-merge of a report JSON: %v", err)
	}
	for _, ext := range []string{".json", ".csv", ".agg.csv"} {
		if read("reloaded"+ext) != read("clean"+ext) {
			t.Errorf("reloaded%s differs from what the record stream rendered", ext)
		}
	}
}

// TestMergeRefusesRunOnlyFlags: -merge runs no cell, so each flag that
// only a -spec run reads is refused by name instead of being ignored,
// and the merge writes nothing: no report, no stream, no artifact dir.
func TestMergeRefusesRunOnlyFlags(t *testing.T) {
	root := t.TempDir()
	at := func(name string) string { return filepath.Join(root, name) }
	const oneCell = `{"name":"one","topos":["dc"],"schemes":["ecmp"],"loads":[0.2],` +
		`"workload":{"dist":"cache","duration_ns":1000000,"max_flows":10}}`
	if err := os.WriteFile(at("spec.json"), []byte(oneCell), 0o644); err != nil {
		t.Fatal(err)
	}
	base := options{quiet: true, noTable: true, workers: 1, metricsInterval: -1, cellTimeout: -1}
	o := base
	o.spec, o.stream = at("spec.json"), at("s.jsonl")
	if err := run(o); err != nil {
		t.Fatal(err)
	}
	merge := base
	merge.merge, merge.out = at("s.jsonl"), at("m.json")
	if err := run(merge); err != nil {
		t.Fatalf("plain -merge: %v", err)
	}
	if err := os.Remove(merge.out); err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		flag string
		set  func(*options)
	}{
		{"-shard", func(o *options) { o.shard = "1/2" }},
		{"-stream", func(o *options) { o.stream = at("other.jsonl") }},
		{"-checkpoint", func(o *options) { o.checkpoint = at("m.ck") }},
		{"-resume", func(o *options) { o.resume = true }},
		{"-trace-level", func(o *options) { o.traceLevel = "decisions" }},
		{"-trace-dir", func(o *options) { o.traceDir = at("td") }},
		{"-record-dir", func(o *options) { o.recordDir = at("rd") }},
		{"-metrics-dir", func(o *options) { o.metricsDir = at("md") }},
		{"-metrics-interval", func(o *options) { o.metricsInterval = 0 }},
		{"-cell-timeout", func(o *options) { o.cellTimeout = 0 }},
	} {
		o := merge
		tc.set(&o)
		if err := run(o); err == nil || !strings.HasPrefix(err.Error(), tc.flag+" ") {
			t.Errorf("-merge with %s: error %v, want one naming %s", tc.flag, err, tc.flag)
		}
	}
	for _, name := range []string{"m.json", "other.jsonl", "m.ck", "td", "rd", "md"} {
		if _, err := os.Stat(at(name)); !os.IsNotExist(err) {
			t.Errorf("a refused -merge left %s behind (%v)", name, err)
		}
	}
}

// TestGoldenCampaignDigests runs the five fixed-seed campaigns under
// examples/campaign/golden through run(options) twice — in memory, and
// as two -shard streams then -merge — and holds the report JSON and CSV
// of both to the committed digests, so `go test ./...` fails on a single
// moved byte of simulator output or a merge that drifts from the
// in-memory run. -update rewrites the digests from the in-memory run
// first. The runs are strict: every cell, under each scheme, must also
// pass scenario.Run's horizon audit — no register miss, every packet
// conserved, the event queue and timer slots in step — or run fails
// before any digest is compared.
func TestGoldenCampaignDigests(t *testing.T) {
	if testing.Short() {
		t.Skip("runs five campaigns twice each (~15s)")
	}
	const dir = "../../examples/campaign"
	for _, name := range []string{"fattree_smoke", "chaos_smoke", "packed_smoke", "cohorts_smoke", "fabric_smoke"} {
		t.Run(name, func(t *testing.T) {
			base := options{quiet: true, noTable: true, workers: 2, metricsInterval: -1, cellTimeout: -1, strict: true}
			// digests runs o, writing name.json and name.csv into dir, and
			// returns their digests as sha256sum prints them.
			digests := func(o options, dir string) string {
				t.Helper()
				o.out, o.csvOut = filepath.Join(dir, name+".json"), filepath.Join(dir, name+".csv")
				if err := run(o); err != nil {
					t.Fatal(err)
				}
				var sums strings.Builder
				for _, path := range []string{o.out, o.csvOut} {
					b, err := os.ReadFile(path)
					if err != nil {
						t.Fatal(err)
					}
					fmt.Fprintf(&sums, "%x  %s\n", sha256.Sum256(b), filepath.Base(path))
				}
				return sums.String()
			}

			o := base
			o.spec = filepath.Join(dir, name+".json")
			inmem := digests(o, t.TempDir())
			var streams []string
			for _, sh := range []string{"0/2", "1/2"} {
				o.shard, o.stream = sh, filepath.Join(t.TempDir(), "shard.jsonl")
				if err := run(o); err != nil {
					t.Fatal(err)
				}
				streams = append(streams, o.stream)
			}
			o = base
			o.merge = strings.Join(streams, ",")
			merged := digests(o, t.TempDir())

			golden := filepath.Join(dir, "golden", name+".sha256")
			if *update {
				if err := os.WriteFile(golden, []byte(inmem), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatal(err)
			}
			for mode, got := range map[string]string{"in-memory": inmem, "two shards + -merge": merged} {
				if got != string(want) {
					t.Errorf("%s run:\n%sgolden %s:\n%s", mode, got, golden, want)
				}
			}
		})
	}
}
