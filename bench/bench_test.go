package main

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"testing"
	"time"
)

// TestMain lets the test binary stand in for the harness executable:
// the smoke test re-executes it as a child exactly as main does.
func TestMain(m *testing.M) {
	if cfg := os.Getenv(childEnv); cfg != "" {
		// A workload that never finishes setting up, for the budget test.
		workloads = append(workloads, workload{name: "stall", prepare: func(int64, bool, string, *spanLog) (*prepared, error) {
			time.Sleep(time.Hour)
			return nil, nil
		}})
		if err := childMain(cfg, time.Now(), os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "bench child:", err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

func TestClassifier(t *testing.T) {
	const pre = "contra/internal/"
	cases := []struct {
		name  string
		stack []string // leaf first
		layer string
		cost  string
	}{
		{"calendar queue", []string{pre + "sim.(*calQueue).push", pre + "sim.(*Engine).schedule", pre + "sim.(*Engine).Run"}, "sim.engine", ""},
		{"transmit", []string{pre + "sim.(*Network).transmit", pre + "sim.(*SwitchDev).Send", pre + "baseline.(*ECMP).Handle"}, "sim.network", ""},
		{"host transport", []string{pre + "sim.(*HostDev).onAck", pre + "sim.(*HostDev).receive"}, "sim.transport", ""},
		{"runtime leaf under dataplane probe", []string{"runtime.memhash64", "runtime.mapaccess2", pre + "dataplane.(*Contra).handlePacked", pre + "dataplane.(*Contra).Handle", pre + "sim.(*Network).deliverChan"}, "dataplane.probe", "map"},
		{"swiss map under dataplane data", []string{"internal/runtime/maps.(*Map).getWithKey", "runtime.mapaccess1", pre + "dataplane.(*Contra).lookupAlive", pre + "dataplane.(*Contra).forwardTransit"}, "dataplane.data", "map"},
		{"shared helper takes its caller's side", []string{pre + "dataplane.(*Contra).expired", pre + "dataplane.(*Contra).rescanBest", pre + "dataplane.(*Contra).handleProbe"}, "dataplane.probe", ""},
		{"shared helper with no sided caller", []string{pre + "dataplane.(*Contra).Handle", pre + "sim.(*Network).deliverChan"}, "other", ""},
		{"growslice under topo", []string{"runtime.memmove", "runtime.growslice", pre + "topo.(*Graph).SwitchNeighbors", pre + "topo.(*Graph).ECMPNextHops", pre + "baseline.(*ECMP).Attach"}, "topo", "alloc_gc"},
		{"math under stats", []string{"math.archExp", "math.Exp", pre + "stats.(*DRE).decay", pre + "sim.(*Network).accountTx"}, "stats", "math"},
		{"math/rand is not math", []string{"math/rand.(*Rand).Int63", pre + "workload.Generate"}, "workload", ""},
		{"rank evaluation", []string{pre + "policy.(*Policy).EvalAppend", pre + "analysis.(*Evaluator).Rank", pre + "dataplane.(*Contra).policyRank"}, "policy", ""},
		{"hula", []string{pre + "baseline.(*Hula).handlePacked"}, "baseline", ""},
		{"compiler", []string{pre + "pg.Build", pre + "core.Compile", "contra.Compile"}, "pg", ""},
		{"fabric handler", []string{"encoding/json.(*Decoder).Decode", pre + "fabric.decodeJSON", pre + "fabric.(*Coordinator).Handler.func1", "net/http.HandlerFunc.ServeHTTP"}, "fabric", ""},
		{"unknown repo package", []string{pre + "cliutil.BuildTopology", pre + "scenario.Run"}, "other", ""},
		{"gc worker", []string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "other", "alloc_gc"},
		{"harness only", []string{"crypto/sha256.block", "main.sha"}, "other", ""},
		{"root package wrapper", []string{"contra.RunScenario", "main.runOp"}, "other", ""},
	}
	for _, c := range cases {
		if got := layerOf(c.stack); got != c.layer {
			t.Errorf("%s: layer %q, want %q", c.name, got, c.layer)
		}
		if got := runtimeCost(c.stack); got != c.cost {
			t.Errorf("%s: runtime cost %q, want %q", c.name, got, c.cost)
		}
	}
}

func TestAttributeSharesSumToOne(t *testing.T) {
	const pre = "contra/internal/"
	got := attribute([]stackSample{
		{[]string{pre + "sim.(*calQueue).pop", pre + "sim.(*Engine).Run", pre + "scenario.runFCT"}, 6},
		{[]string{"runtime.mallocgc", pre + "core.Compile", pre + "scenario.Deploy"}, 3},
		{[]string{"runtime.gcBgMarkWorker"}, 1},
	})
	want := map[string]float64{
		"sim.engine.cpu_frac": 0.6, "core.cpu_frac": 0.3, "other.cpu_frac": 0.1,
		"runtime.alloc_gc_frac": 0.4, "trace.samples": 10,
		"scenario.phase.engine_run_frac": 0.6, "scenario.phase.compile_frac": 0.3, "scenario.phase.deploy_frac": 0.3,
	}
	for k, v := range want {
		if math.Abs(got[k]-v) > 1e-12 {
			t.Errorf("%s = %v, want %v", k, got[k], v)
		}
	}
	var sum float64
	for _, l := range cpuLayers {
		sum += got[l+".cpu_frac"]
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Errorf("layer shares sum to %v, want 1", sum)
	}
}

// Protobuf encoding helpers for a hand-built profile.
func pbVarint(b []byte, v uint64) []byte {
	for v >= 0x80 {
		b = append(b, byte(v)|0x80)
		v >>= 7
	}
	return append(b, byte(v))
}
func pbInt(b []byte, field int, v uint64) []byte { return pbVarint(pbVarint(b, uint64(field)<<3), v) }
func pbBytes(b []byte, field int, data []byte) []byte {
	return append(pbVarint(pbVarint(b, uint64(field)<<3|2), uint64(len(data))), data...)
}

func TestParseProfile(t *testing.T) {
	strs := []string{"", "samples", "runtime.mallocgc", "contra/internal/sim.(*Engine).schedule", "contra/internal/sim.(*Engine).Run"}
	var p []byte
	p = pbBytes(p, 1, pbInt(pbInt(nil, 1, 1), 2, 1)) // sample_type, skipped
	// Sample 1: packed ids, two values (count first).
	p = pbBytes(p, 2, pbBytes(pbBytes(nil, 1, []byte{1, 2}), 2, []byte{7, 70}))
	// Sample 2: the same fields unpacked.
	p = pbBytes(p, 2, pbInt(pbInt(nil, 1, 2), 2, 3))
	// Location 1 holds an inlined pair: mallocgc inlined into schedule.
	loc1 := pbInt(nil, 1, 1)
	loc1 = pbBytes(loc1, 4, pbInt(pbInt(nil, 1, 10), 2, 42))
	loc1 = pbBytes(loc1, 4, pbInt(nil, 1, 11))
	p = pbBytes(p, 4, loc1)
	p = pbBytes(p, 4, pbBytes(pbInt(nil, 1, 2), 4, pbInt(nil, 1, 12)))
	for i, id := range []uint64{10, 11, 12} {
		p = pbBytes(p, 5, pbInt(pbInt(nil, 1, id), 2, uint64(i+2)))
	}
	for _, s := range strs {
		p = pbBytes(p, 6, []byte(s))
	}
	p = pbInt(p, 9, 123) // time_nanos, skipped
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	zw.Write(p)
	zw.Close()

	got, err := parseProfile(gz.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	want := []stackSample{
		{[]string{strs[2], strs[3], strs[4]}, 7},
		{[]string{strs[4]}, 3},
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("parsed %v, want %v", got, want)
	}
	if _, err := parseProfile([]byte("not gzip")); err == nil {
		t.Error("garbage accepted")
	}
	gz.Reset()
	zw = gzip.NewWriter(&gz)
	zw.Write([]byte{0x12, 0x7f, 1}) // length past the end
	zw.Close()
	if _, err := parseProfile(gz.Bytes()); err == nil {
		t.Error("truncated message accepted")
	}
}

func TestSpanSelfTime(t *testing.T) {
	spans := []span{
		{Name: "fabric.run", StartNs: 0, EndNs: 100, Parent: -1, Op: 1},
		{Name: "dist.merge", StartNs: 60, EndNs: 90, Parent: 0, Op: 1},
		{Name: "inner", StartNs: 70, EndNs: 80, Parent: 1, Op: 1},
		{Name: "fabric.run", StartNs: 200, EndNs: 260, Parent: -1, Op: 2},
		{Name: "dist.merge", StartNs: 250, EndNs: 260, Parent: 3, Op: 2},
		{Name: "campaign.load", StartNs: 0, EndNs: 5, Parent: -1, Op: 0},
	}
	self := selfTimes(spans)
	// A parent loses only its direct children: the grandchild's 10 ns
	// come out of dist.merge, not out of fabric.run a second time.
	if got := self[1]["fabric.run"]; got != 70 {
		t.Errorf("op 1 fabric.run self = %d, want 70", got)
	}
	if got := self[1]["dist.merge"]; got != 20 {
		t.Errorf("op 1 dist.merge self = %d, want 20", got)
	}
	m := spanMetrics(spans)
	if got, want := m["fabric.run_s"], 60e-9; math.Abs(got-want) > 1e-18 { // median of 70 and 50 ns
		t.Errorf("fabric.run_s = %v, want %v", got, want)
	}
	if got, want := m["campaign.load_ms"], 5e-6; math.Abs(got-want) > 1e-15 { // set-up only
		t.Errorf("campaign.load_ms = %v, want %v", got, want)
	}

	// The recorder nests by call order and a nil recorder is inert.
	l := newSpanLog()
	endOuter := l.begin("outer")
	endInner := l.begin("inner")
	endInner()
	endOuter()
	l.begin("next")()
	if l.spans[1].Parent != 0 || l.spans[0].Parent != -1 || l.spans[2].Parent != -1 {
		t.Errorf("parents = %d %d %d, want -1 0 -1", l.spans[0].Parent, l.spans[1].Parent, l.spans[2].Parent)
	}
	var off *spanLog
	off.begin("x")()
	off.setOp(3)
}

func TestWorsening(t *testing.T) {
	lower := metricDecl{Name: "wall_s", Better: "lower", Bound: 0.10}
	higher := metricDecl{Name: "work_per_s", Better: "higher", Bound: 0.10}
	cases := []struct {
		m         metricDecl
		base, cur float64
		want      float64
	}{
		{lower, 2.0, 2.3, 0.15}, // slower: worse by 15% of the base
		{lower, 2.3, 2.0, -0.3 / 2.3},
		{higher, 100, 80, 0.20},  // less work per second: worse
		{higher, 80, 100, -0.25}, // the base is the first argument
		{lower, 5, 5, 0},
	}
	for _, c := range cases {
		if got := c.m.worsening(c.base, c.cur); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("%s %v -> %v: worsening %v, want %v", c.m.Name, c.base, c.cur, got, c.want)
		}
	}

	a := &passResult{Metrics: map[string]summary{}, Exact: map[string]float64{"sim.fabric_MB": 10}, Digest: "d"}
	b := &passResult{Metrics: map[string]summary{}, Exact: map[string]float64{"sim.fabric_MB": 10}, Digest: "d"}
	for _, m := range endToEnd {
		a.Metrics[m.Name] = summary{Value: 100}
		b.Metrics[m.Name] = summary{Value: 100}
	}
	if bad := compareSets("w", a, b); len(bad) != 0 {
		t.Errorf("identical sets disagree: %v", bad)
	}
	var wallBound float64
	for _, m := range endToEnd {
		if m.Name == "wall_s" {
			wallBound = m.Bound
		}
	}
	b.Metrics["wall_s"] = summary{Value: 100 * (1 + wallBound + 0.01)}
	b.Exact["sim.fabric_MB"] = 10.5
	bad := compareSets("w", a, b)
	if len(bad) != 2 {
		t.Fatalf("want a wall_s and an exact-metric disagreement, got %v", bad)
	}
	// Either order of the two sets is reported.
	if rev := compareSets("w", b, a); len(rev) != 2 {
		t.Errorf("reversed sets: %v", rev)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	v := []float64{3, 1, 2, 10, 9, 8, 4, 5, 7, 6}
	q1, q3 := quartiles(v)
	if q1 != 2.75 || q3 != 8.25 || median(v) != 5.5 {
		t.Errorf("got q1=%v median=%v q3=%v", q1, median(v), q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	if q1, q3 := quartiles([]float64{1, 2, 4}); q1 != 1 || q3 != 4 {
		t.Errorf("three samples: q1=%v q3=%v", q1, q3)
	}
}

// benchmarkFile mirrors BENCHMARK.json at the repository root.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDecl `json:"end_to_end"`
	PerLayer []metricDecl `json:"per_layer"`
}

func TestDeclarationsMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&f); err != nil {
		t.Fatal(err)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	checkName := func(n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("name %q is outside the benchmark contract", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}

	if len(f.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the harness has %d", len(f.Workloads), len(workloads))
	}
	for i, w := range workloads {
		checkName(w.name)
		if f.Workloads[i].Name != w.name || f.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q / %q, the harness %q / %q", i, f.Workloads[i].Name, f.Workloads[i].Why, w.name, w.why)
		}
		if len(w.why) > 200 {
			t.Errorf("workload %s: why is %d characters, limit 200", w.name, len(w.why))
		}
	}
	same := func(kind string, file, decl []metricDecl) {
		if len(file) != len(decl) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the harness declares %d", kind, len(file), len(decl))
		}
		for i, m := range decl {
			checkName(m.Name)
			if !unitRE.MatchString(m.Unit) {
				t.Errorf("%s: unit %q is outside the benchmark contract", m.Name, m.Unit)
			}
			if m.Better != "lower" && m.Better != "higher" {
				t.Errorf("%s: better = %q", m.Name, m.Better)
			}
			if file[i] != m {
				t.Errorf("%s %d: BENCHMARK.json has %+v, the harness %+v", kind, i, file[i], m)
			}
		}
	}
	same("end_to_end", f.EndToEnd, endToEnd)
	same("per_layer", f.PerLayer, perLayer)
	for _, m := range endToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if len(perLayer) > 128 {
		t.Errorf("%d per-layer metrics, limit 128", len(perLayer))
	}
	if f.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, the harness default is %d", f.RunSeconds, defaultSeconds)
	}
	for _, w := range workloads {
		if _, err := os.Stat(filepath.Join("expected", w.name+".sha256")); err != nil {
			t.Errorf("no pinned digest for %s: %v", w.name, err)
		}
	}
}

// TestQuickSmoke runs every workload through both passes at smoke size
// in real child processes and checks that each declared metric comes
// out exactly once per workload.
func TestQuickSmoke(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("runs all six workloads in subprocesses")
	}
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	r := &runner{exe: exe, outDir: dir, scratch: dir, expected: "expected", seed: 3, quick: true, children: 1, minOps: 1, opBudget: 15 * time.Second}
	for i := range workloads {
		wl := &workloads[i]
		t.Run(wl.name, func(t *testing.T) {
			for _, pass := range []struct {
				res   *passResult
				decls []metricDecl
			}{
				{r.untraced(wl), endToEnd},
				{r.traced(wl), perLayer},
			} {
				if !pass.res.correct() || pass.res.Attempted < 1 {
					t.Fatalf("attempted %d, failed %d: %v", pass.res.Attempted, pass.res.Failed, pass.res.Errors)
				}
				if len(pass.res.Metrics) != len(pass.decls) {
					t.Errorf("%d metrics emitted, %d declared", len(pass.res.Metrics), len(pass.decls))
				}
				for _, m := range pass.decls {
					s, ok := pass.res.Metrics[m.Name]
					if !ok {
						t.Errorf("metric %s not emitted", m.Name)
					}
					if s.Unit != m.Unit {
						t.Errorf("metric %s has unit %q, declared %q", m.Name, s.Unit, m.Unit)
					}
				}
			}
			if _, err := os.Stat(filepath.Join(dir, wl.name+".spans.jsonl")); err != nil {
				t.Errorf("span log: %v", err)
			}
		})
	}
}

// TestRunawayChildIsKilled checks the per-op wall budget: a child that
// makes no progress is killed and counted as one failed op.
func TestRunawayChildIsKilled(t *testing.T) {
	if testing.Short() {
		t.Skip("starts a subprocess")
	}
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	r := &runner{exe: exe, outDir: dir, scratch: dir, seed: 1, quick: true, opBudget: 200 * time.Millisecond}
	stall := workload{name: "stall"} // TestMain defines it in the child
	res := r.runChild(&stall, childConfig{MinOps: 1})
	if res.failed != 1 || res.attempted != 1 {
		t.Errorf("attempted %d, failed %d, errors %v", res.attempted, res.failed, res.errs)
	}
}
