package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"contra/internal/campaign"
	"contra/internal/flowtrace"
	"contra/internal/golden"
	metricspkg "contra/internal/metrics"
	"contra/internal/scenario"
	tracepkg "contra/internal/trace"
)

// goldenPins holds TestGoldenCampaignDigests' pins: each golden
// campaign's report digests, and each of its FCT cells' FCT fields.
const goldenPins = "testdata/golden.txt"

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
	report               [4]string         // -out, -csv, -agg-csv, -figures
	flow, trace, metrics map[string]string // file name -> content
}

// reportFlags points every report output flag into dir.
func reportFlags(o *options, dir string) {
	o.out, o.csvOut = filepath.Join(dir, "out.json"), filepath.Join(dir, "out.csv")
	o.aggCSV = filepath.Join(dir, "agg.csv")
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

// modesBudget is the -cell-budget TestEveryModeWritesTheSameBytes runs
// tinySpec under in its second pass. Its seed-1 cells execute about
// 47 000 (ECMP) and 64 000 (Contra) events and its seed-2 cells 18 600
// and 22 000, so the four seed-1 cells run out and the rest finish.
const modesBudget = 35_000

// TestEveryModeWritesTheSameBytes drives run(options) through the three
// ways a cell can execute — in-memory, streamed then merged, and two
// shards then merged — and requires identical report outputs (JSON,
// CSV, the aggregate CSV, the FCT-vs-load figure data) and
// file-for-file identical flow-trace, decision-trace and telemetry dirs
// from all of them. It does so twice: once with every cell finishing,
// so that the aggregate merges two seeds per group, and once under
// modesBudget, where half the cells spend their event budget and must
// fail with the same error, in the same bytes, in every mode.
func TestEveryModeWritesTheSameBytes(t *testing.T) {
	for _, tc := range []struct {
		name   string
		budget int64 // -cell-budget; -1 leaves tinySpec's, which is none
		over   int   // cells that must run out
	}{
		{"unbounded", -1, 0},
		{"over budget", modesBudget, 4},
	} {
		t.Run(tc.name, func(t *testing.T) { everyModeWritesTheSameBytes(t, tc.budget, tc.over) })
	}
}

func everyModeWritesTheSameBytes(t *testing.T, budget int64, wantOver int) {
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
			metricsInterval: -1, cellBudget: budget,
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
		for i, path := range []string{o.out, o.csvOut, o.aggCSV,
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
	merge := func(dir string, streams ...string) options {
		o := options{quiet: true, noTable: true, metricsInterval: -1, cellBudget: -1, merge: streams}
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
	got["two shards + -merge"] = collect(merge(dir, filepath.Join(root, "shard0.jsonl"), filepath.Join(root, "shard1.jsonl")), dir)

	spec, err := campaign.LoadFile(specPath)
	if err != nil {
		t.Fatal(err)
	}
	want := got["in-memory"]
	over := strings.Count(want.report[0], `"error": "`+scenario.ErrCellBudget+": ")
	if n := spec.Size() - wantOver; over != wantOver || len(want.flow) != n || len(want.trace) != n || len(want.metrics) != n {
		t.Fatalf("in-memory run: %d cells over budget, %d flow, %d trace, %d metrics files; want %d over and %d of each",
			over, len(want.flow), len(want.trace), len(want.metrics), wantOver, n)
	}
	for mode, g := range got {
		for i, flag := range []string{"-out", "-csv", "-agg-csv", "-figures fct_vs_load.dat"} {
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
// stream. A report JSON written by -out is a merge input too, and
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
	base := options{quiet: true, noTable: true, workers: 2, metricsInterval: -1, cellBudget: -1}

	o := base
	o.spec, o.stream = write("spec.json", tinySpec), at("clean.jsonl")
	if err := run(o); err != nil {
		t.Fatal(err)
	}
	aggregate := func(prefix string, streams ...string) error {
		o := base
		o.merge = streams
		o.out, o.csvOut, o.aggCSV = at(prefix+".json"), at(prefix+".csv"), at(prefix+".agg.csv")
		return run(o)
	}
	if err := aggregate("clean", at("clean.jsonl")); err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(read("clean.jsonl"), "\n")
	if err := aggregate("dup", write("dup.jsonl", read("clean.jsonl")+lines[0])); err != nil {
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
	if err := aggregate("conflict", write("conflict.jsonl", read("clean.jsonl")+moved)); err == nil || !strings.Contains(err.Error(), "at both index") {
		t.Errorf("a repeat at another index: %v, want the collector's refusal", err)
	}
	other := strings.ReplaceAll(read("clean.jsonl"), `"campaign":"modes"`, `"campaign":"other"`)
	if err := aggregate("mixed", at("clean.jsonl"), write("other.jsonl", other)); err == nil || !strings.Contains(err.Error(), "mixes campaign") {
		t.Errorf("two campaigns' streams: %v, want the collector's refusal", err)
	}

	if err := aggregate("reloaded", at("clean.json")); err != nil {
		t.Fatalf("merging a report JSON: %v", err)
	}
	for _, ext := range []string{".json", ".csv", ".agg.csv"} {
		if read("reloaded"+ext) != read("clean"+ext) {
			t.Errorf("reloaded%s differs from what the record stream rendered", ext)
		}
	}
}

// TestMergeRefusesRunOnlyFlags drives the command line: merge runs no
// cell, so it defines none of the flags that shape one. Each of them,
// and -spec, is a usage error naming the flag, and the refused merge
// writes nothing: no report, no stream, no artifact dir.
func TestMergeRefusesRunOnlyFlags(t *testing.T) {
	root := t.TempDir()
	at := func(name string) string { return filepath.Join(root, name) }
	const oneCell = `{"name":"one","topos":["dc"],"schemes":["ecmp"],"loads":[0.2],` +
		`"workload":{"dist":"cache","duration_ns":1000000,"max_flows":10}}`
	if err := os.WriteFile(at("spec.json"), []byte(oneCell), 0o644); err != nil {
		t.Fatal(err)
	}
	contracamp := func(args ...string) (int, string) {
		var stdout, stderr bytes.Buffer
		return cli(args, &stdout, &stderr), stderr.String()
	}
	if status, stderr := contracamp("run", "-q", "-notable", "-workers", "1", "-spec", at("spec.json"), "-stream", at("s.jsonl")); status != 0 {
		t.Fatalf("run: exit %d: %s", status, stderr)
	}
	merge := []string{"merge", "-q", "-notable", "-out", at("m.json")}
	if status, stderr := contracamp(append(merge, at("s.jsonl"))...); status != 0 {
		t.Fatalf("plain merge: exit %d: %s", status, stderr)
	}
	if err := os.Remove(at("m.json")); err != nil {
		t.Fatal(err)
	}

	for _, runFlag := range [][]string{
		{"-shard", "1/2"},
		{"-stream", at("other.jsonl")},
		{"-checkpoint", at("m.ck")},
		{"-resume"},
		{"-trace-level", "decisions"},
		{"-trace-dir", at("td")},
		{"-record-dir", at("rd")},
		{"-metrics-dir", at("md")},
		{"-metrics-interval", "0"},
		{"-cell-budget", "0"},
		{"-workers", "7"},
		{"-spec", at("spec.json")},
	} {
		args := append(append(append([]string{}, merge...), runFlag...), at("s.jsonl"))
		if status, stderr := contracamp(args...); status != 2 || !strings.Contains(stderr, "flag provided but not defined: "+runFlag[0]+"\n") {
			t.Errorf("merge with %s: exit %d, stderr %q; want 2 and the flag named", runFlag[0], status, stderr)
		}
	}
	for _, name := range []string{"m.json", "other.jsonl", "m.ck", "td", "rd", "md"} {
		if _, err := os.Stat(at(name)); !os.IsNotExist(err) {
			t.Errorf("a refused merge left %s behind (%v)", name, err)
		}
	}
}

// TestUsage: a command line that names no subcommand, an unknown one,
// or a subcommand without its inputs prints the usage naming all three
// and exits 2. The -spec and -merge mode flags are gone, not aliased.
func TestUsage(t *testing.T) {
	for _, args := range [][]string{
		nil,
		{"sweep"},
		{"-spec", "spec.json"},
		{"-merge", "s0.jsonl,s1.jsonl"},
		{"run"},
		{"run", "-spec", "spec.json", "extra"},
		{"merge"},
		{"merge", "-spec", "spec.json", "s.jsonl"},
		{"check"},
	} {
		var stdout, stderr bytes.Buffer
		status := cli(args, &stdout, &stderr)
		for _, sub := range []string{"contracamp run ", "contracamp merge ", "contracamp check "} {
			if status != 2 || !strings.Contains(stderr.String(), sub) {
				t.Errorf("contracamp %q: exit %d, stderr %q; want 2 and usage naming %q", args, status, &stderr, sub)
			}
		}
	}
}

// TestCheck drives check over the owning packages' fixtures: the
// ok/FAIL lines and the 0/1/2 exit codes are the interface a shell
// script checking artifact files relies on. An ok line carries the
// summary of the owning package's Check on the same file; what that
// summary reads is pinned in the owning package.
func TestCheck(t *testing.T) {
	fix := func(pkg, name string) string { return filepath.Join("..", "..", "internal", pkg, "testdata", name) }
	trace, metrics := fix("trace", "cell.trace.jsonl"), fix("metrics", "cell.metrics.jsonl")
	flow := fix("flowtrace", "cell.flow.jsonl")
	ok := func(path string, check func(io.Reader) (string, error)) string {
		t.Helper()
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		summary, err := check(f)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		return "ok   " + path + ": " + summary
	}

	cases := []struct {
		args   []string
		status int
		stdout []string // one wanted prefix per output line
	}{
		{[]string{"trace", trace}, 0, []string{ok(trace, tracepkg.Check)}},
		{[]string{"metrics", metrics}, 0, []string{ok(metrics, metricspkg.Check)}},
		{[]string{"flow", flow}, 0, []string{ok(flow, flowtrace.Check)}},
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
		status := cli(append([]string{"check"}, tc.args...), &stdout, &stderr)
		lines := strings.Split(strings.TrimRight(stdout.String(), "\n"), "\n")
		if stdout.Len() == 0 {
			lines = nil
		}
		ok := status == tc.status && len(lines) == len(tc.stdout)
		for i := 0; ok && i < len(lines); i++ {
			ok = strings.HasPrefix(lines[i], tc.stdout[i])
		}
		if usage := strings.HasPrefix(stderr.String(), "usage: contracamp "); !ok || usage != (tc.status == 2) {
			t.Errorf("contracamp check %q = %d\nstdout: %sstderr: %swant %d and %q", tc.args, status, &stdout, &stderr, tc.status, tc.stdout)
		}
	}
}

// TestGoldenCampaignDigests runs the five fixed-seed campaigns under
// examples/campaign through run(options) twice — in memory, and as two
// -shard streams then -merge — and holds the report JSON and CSV of the
// in-memory run to the digests pinned in goldenPins, and the merged run
// to the in-memory one, so `go test ./...` fails on a single moved byte
// of simulator output or a merge that drifts from the in-memory run.
// Each FCT cell's FCT fields are pinned too, so that a moved digest
// names the FCTs that moved with it, if any. The runs are strict: every
// cell, under each scheme, must also pass scenario.Run's horizon audit
// — no register miss, every packet conserved, the event queue and timer
// slots in step — or run fails before any pin is compared.
func TestGoldenCampaignDigests(t *testing.T) {
	if testing.Short() {
		t.Skip("runs five campaigns twice each (~15s)")
	}
	const dir = "../../examples/campaign"
	for _, name := range []string{"fattree_smoke", "chaos_smoke", "packed_smoke", "cohorts_smoke", "fabric_smoke"} {
		t.Run(name, func(t *testing.T) {
			base := options{quiet: true, noTable: true, workers: 2, metricsInterval: -1, cellBudget: -1, strict: true}
			// digests runs o, writing name.json and name.csv into dir, and
			// returns their sha256 digests by file name.
			digests := func(o options, dir string) map[string]string {
				t.Helper()
				o.out, o.csvOut = filepath.Join(dir, name+".json"), filepath.Join(dir, name+".csv")
				if err := run(o); err != nil {
					t.Fatal(err)
				}
				sums := map[string]string{}
				for _, path := range []string{o.out, o.csvOut} {
					b, err := os.ReadFile(path)
					if err != nil {
						t.Fatal(err)
					}
					sums[filepath.Base(path)] = fmt.Sprintf("%x", sha256.Sum256(b))
				}
				return sums
			}

			o := base
			o.spec = filepath.Join(dir, name+".json")
			inDir := t.TempDir()
			inmem := digests(o, inDir)
			checkFCTs(t, name, filepath.Join(inDir, name+".json"))
			var streams []string
			for _, sh := range []string{"0/2", "1/2"} {
				o.shard, o.stream = sh, filepath.Join(t.TempDir(), "shard.jsonl")
				if err := run(o); err != nil {
					t.Fatal(err)
				}
				streams = append(streams, o.stream)
			}
			o = base
			o.merge = streams
			merged := digests(o, t.TempDir())

			for _, file := range []string{name + ".json", name + ".csv"} {
				sum := inmem[file]
				golden.Check(t, goldenPins, file, sum)
				if merged[file] != sum {
					t.Errorf("two shards + -merge: %s has sha256 %s, the in-memory run's %s", file, merged[file], sum)
				}
			}
		})
	}
}

// fctLine is one FCT cell's pin in goldenPins: its completions, FCT
// statistics and class stats, the fields a change to when a cell stops
// or what it counts must leave alone. CBR cells have none.
type fctLine struct {
	RateBps   float64         `json:"rate_bps,omitempty"`
	Flows     int             `json:"flows"`
	Completed int64           `json:"completed"`
	MeanFCT   float64         `json:"mean_fct"`
	P50FCT    float64         `json:"p50_fct"`
	P95FCT    float64         `json:"p95_fct"`
	P99FCT    float64         `json:"p99_fct"`
	Classes   json.RawMessage `json:"classes,omitempty"`
}

// checkFCTs holds each FCT cell of campaign name's report at path to its
// pin, keyed campaign/cell. A cell added or dropped moves the digests.
func checkFCTs(t *testing.T, name, path string) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var report struct {
		Scenarios []struct {
			Result struct {
				Name string `json:"name"`
				fctLine
			}
		}
	}
	if err := json.Unmarshal(b, &report); err != nil {
		t.Fatal(err)
	}
	for _, sc := range report.Scenarios {
		if l := sc.Result.fctLine; l.RateBps == 0 { // not a CBR cell
			line, err := json.Marshal(l)
			if err != nil {
				t.Fatal(err)
			}
			golden.Check(t, goldenPins, name+"/"+sc.Result.Name, string(line))
		}
	}
}
