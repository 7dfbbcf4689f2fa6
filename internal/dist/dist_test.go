package dist

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"contra/internal/campaign"
	"contra/internal/scenario"
)

// sweepSpec is a small multi-seed, multi-load matrix cheap enough to
// run several times per test: 1 topo × 2 schemes × 2 loads × 2 seeds.
func sweepSpec() *campaign.Spec {
	return &campaign.Spec{
		Name:    "sweep",
		Topos:   []string{"dc"},
		Schemes: []scenario.Scheme{scenario.SchemeECMP, scenario.SchemeSP},
		Loads:   []float64{0.2, 0.3},
		Seeds:   []int64{1, 2},
		Workload: scenario.Workload{
			Dist: "cache", DurationNs: 2_000_000, MaxFlows: 120,
		},
	}
}

// renderReport renders the deterministic JSON+CSV view of a report.
func renderReport(t *testing.T, r *campaign.Report) string {
	t.Helper()
	var j, c bytes.Buffer
	if err := r.WriteJSON(&j); err != nil {
		t.Fatal(err)
	}
	if err := r.WriteCSV(&c); err != nil {
		t.Fatal(err)
	}
	return j.String() + "\n===\n" + c.String()
}

func TestParseShard(t *testing.T) {
	good := map[string]Shard{
		"":    {0, 1},
		"0/1": {0, 1},
		"2/4": {2, 4},
	}
	for in, want := range good {
		got, err := ParseShard(in)
		if err != nil || got != want {
			t.Errorf("ParseShard(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	for _, in := range []string{"3", "x/y", "4/4", "-1/2", "1/0", "1/2/3"} {
		if _, err := ParseShard(in); err == nil {
			t.Errorf("ParseShard(%q) accepted", in)
		}
	}
}

func TestShardsPartitionTheExpansion(t *testing.T) {
	for _, total := range []int{1, 2, 3, 4, 7} {
		for i := 0; i < 32; i++ {
			owners := 0
			for idx := 0; idx < total; idx++ {
				if (Shard{idx, total}).Owns(i) {
					owners++
				}
			}
			if owners != 1 {
				t.Fatalf("index %d owned by %d of %d shards", i, owners, total)
			}
		}
	}
}

// chaosSpec is a fixed-seed chaos campaign: whole-switch failure and
// reboot, seeded probe loss, and a live policy swap on a fattree. The
// CBR workload fixes the simulated horizon so every chaos event fires.
func chaosSpec() *campaign.Spec {
	return &campaign.Spec{
		Name:    "chaos",
		Topos:   []string{"fattree:4:1"},
		Schemes: []scenario.Scheme{scenario.SchemeContra},
		Seeds:   []int64{1, 2},
		Workload: scenario.Workload{
			Kind: scenario.WorkloadCBR, EndNs: 20_000_000,
		},
		Scripts: []campaign.Script{{
			Name: "chaos",
			Events: []scenario.Event{
				{Kind: scenario.ProbeLoss, AtNs: 500_000, Node: "auto", Rate: 0.25},
				{Kind: scenario.SwitchDown, AtNs: 6_000_000, Node: "auto"},
				{Kind: scenario.SwitchUp, AtNs: 9_000_000, Node: "auto"},
				{Kind: scenario.PolicySwap, AtNs: 13_000_000, NewPolicy: "minimize(path.len)"},
			},
		}},
	}
}

// TestChaosCampaignShardMergeDeterminism pins the chaos subsystem's
// determinism contract end to end: a fixed-seed chaos campaign must be
// byte-identical between a single-process run and a 2-shard merged
// run — probe-loss draws, switch reboots, and swap convergence windows
// included.
func TestChaosCampaignShardMergeDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	spec := chaosSpec()
	direct, err := campaign.Run(spec, campaign.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	want := renderReport(t, direct)
	// The campaign must actually measure chaos, not just run: every
	// outcome carries a converged swap window and realized probe loss.
	for _, o := range direct.Outcomes {
		if o.Result == nil {
			t.Fatalf("scenario %s failed: %s", o.Scenario.Name, o.Err)
		}
		if ns, ok := o.Result.SwapConvergenceNs(); !ok || ns <= 0 {
			t.Fatalf("scenario %s: empty swap convergence window (%d, %v)", o.Scenario.Name, ns, ok)
		}
		if o.Result.ProbeLossDropped == 0 {
			t.Fatalf("scenario %s: no probes dropped", o.Scenario.Name)
		}
	}

	dir := t.TempDir()
	var paths []string
	for idx := 0; idx < 2; idx++ {
		path := filepath.Join(dir, fmt.Sprintf("chaos%d.jsonl", idx))
		paths = append(paths, path)
		sink, err := CreateJSONL(path, false)
		if err != nil {
			t.Fatal(err)
		}
		st, err := Run(spec, Options{Workers: 2, Shard: Shard{idx, 2}}, sink)
		if err != nil {
			t.Fatal(err)
		}
		if err := sink.Close(); err != nil {
			t.Fatal(err)
		}
		if st.Failed > 0 {
			t.Fatalf("shard %d/2: %d scenarios failed", idx, st.Failed)
		}
	}
	merged, err := Merge(paths)
	if err != nil {
		t.Fatal(err)
	}
	if got := renderReport(t, merged); got != want {
		t.Fatalf("chaos 2-shard merge differs from single-process run:\n--- merged\n%.1500s\n--- direct\n%.1500s", got, want)
	}
}

func TestShardMergeIsByteIdenticalToSingleProcess(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	spec := sweepSpec()
	direct, err := campaign.Run(spec, campaign.Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	want := renderReport(t, direct)

	dir := t.TempDir()
	for _, total := range []int{1, 2, 4} {
		var paths []string
		for idx := 0; idx < total; idx++ {
			path := filepath.Join(dir, fmt.Sprintf("s%d_of_%d.jsonl", idx, total))
			paths = append(paths, path)
			sink, err := CreateJSONL(path, false)
			if err != nil {
				t.Fatal(err)
			}
			st, err := Run(spec, Options{Workers: 3, Shard: Shard{idx, total}}, sink)
			if err != nil {
				t.Fatal(err)
			}
			if err := sink.Close(); err != nil {
				t.Fatal(err)
			}
			if st.Failed > 0 {
				t.Fatalf("shard %d/%d: %d scenarios failed", idx, total, st.Failed)
			}
		}
		merged, err := Merge(paths)
		if err != nil {
			t.Fatal(err)
		}
		if got := renderReport(t, merged); got != want {
			t.Fatalf("%d-shard merge differs from single-process run:\n--- merged\n%.1500s\n--- direct\n%.1500s", total, got, want)
		}
	}
}

// failAfter simulates a crash: it forwards limit emits to the real
// sink, then errors, aborting the stream mid-campaign.
type failAfter struct {
	inner Sink
	n     int
	limit int
}

func (f *failAfter) Emit(r *Record) error {
	if f.n >= f.limit {
		return errors.New("simulated crash")
	}
	f.n++
	return f.inner.Emit(r)
}

func (f *failAfter) Close() error { return f.inner.Close() }

func TestCrashResumeMatchesUninterruptedRun(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	spec := sweepSpec()
	dir := t.TempDir()

	// Uninterrupted reference run.
	refPath := filepath.Join(dir, "ref.jsonl")
	refSink, err := CreateJSONL(refPath, false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(spec, Options{Workers: 2}, refSink); err != nil {
		t.Fatal(err)
	}
	refSink.Close()
	refReport, err := Merge([]string{refPath})
	if err != nil {
		t.Fatal(err)
	}
	want := renderReport(t, refReport)

	// Interrupted run: 3 scenarios land, then the sink "crashes".
	streamPath := filepath.Join(dir, "run.jsonl")
	ckPath := filepath.Join(dir, "run.ck")
	ck, err := OpenCheckpoint(ckPath)
	if err != nil {
		t.Fatal(err)
	}
	sink, err := CreateJSONL(streamPath, false)
	if err != nil {
		t.Fatal(err)
	}
	_, err = Run(spec, Options{Workers: 1, Checkpoint: ck, Shard: Shard{0, 1}},
		&failAfter{inner: sink, limit: 3})
	if err == nil {
		t.Fatal("interrupted run reported no error")
	}
	sink.Close()
	ck.Close()

	// Simulate the torn trailing writes of a hard kill.
	for _, p := range []string{streamPath, ckPath} {
		f, err := os.OpenFile(p, os.O_APPEND|os.O_WRONLY, 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.WriteString(`{"torn`); err != nil {
			t.Fatal(err)
		}
		f.Close()
	}

	// Resume from the checkpoint: completed scenarios must not re-run.
	ck, err = OpenCheckpoint(ckPath)
	if err != nil {
		t.Fatal(err)
	}
	if ck.Len() != 3 {
		t.Fatalf("checkpoint reloaded %d keys, want 3", ck.Len())
	}
	sink, err = CreateJSONL(streamPath, true)
	if err != nil {
		t.Fatal(err)
	}
	st, err := Run(spec, Options{Workers: 2, Checkpoint: ck}, sink)
	if err != nil {
		t.Fatal(err)
	}
	sink.Close()
	ck.Close()
	if st.Planned != spec.Size() || st.Skipped != 3 || st.Ran != spec.Size()-3 {
		t.Fatalf("resume stats = %+v, want planned=%d skipped=3", st, spec.Size())
	}

	merged, err := Merge([]string{streamPath})
	if err != nil {
		t.Fatal(err)
	}
	if got := renderReport(t, merged); got != want {
		t.Fatalf("crash/resume output differs from uninterrupted run:\n--- resumed\n%.1500s\n--- reference\n%.1500s", got, want)
	}
}

func TestRetainReRunsCheckpointedKeysWithLostRecords(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	spec := sweepSpec()
	spec.Loads = spec.Loads[:1] // 4 scenarios
	dir := t.TempDir()
	streamPath := filepath.Join(dir, "run.jsonl")
	ckPath := filepath.Join(dir, "run.ck")
	ck, err := OpenCheckpoint(ckPath)
	if err != nil {
		t.Fatal(err)
	}
	sink, err := CreateJSONL(streamPath, false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(spec, Options{Workers: 1, Checkpoint: ck}, sink); err != nil {
		t.Fatal(err)
	}
	sink.Close()
	ck.Close()
	want := renderReport(t, mustMerge(t, streamPath))

	// Power-loss shape: the checkpoint flushed but one record did not.
	b, err := os.ReadFile(streamPath)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(b, []byte("\n"))
	if err := os.WriteFile(streamPath, bytes.Join(lines[1:], nil), 0o644); err != nil {
		t.Fatal(err)
	}

	ck, err = OpenCheckpoint(ckPath)
	if err != nil {
		t.Fatal(err)
	}
	keys, err := StreamKeys(streamPath)
	if err != nil {
		t.Fatal(err)
	}
	if dropped := ck.Retain(func(k string) bool { return keys[k] }); dropped != 1 {
		t.Fatalf("Retain dropped %d keys, want 1", dropped)
	}
	sink, err = CreateJSONL(streamPath, true)
	if err != nil {
		t.Fatal(err)
	}
	st, err := Run(spec, Options{Workers: 2, Checkpoint: ck}, sink)
	if err != nil {
		t.Fatal(err)
	}
	sink.Close()
	ck.Close()
	if st.Ran != 1 || st.Skipped != 3 {
		t.Fatalf("resume stats = %+v, want the lost scenario re-run", st)
	}
	if got := renderReport(t, mustMerge(t, streamPath)); got != want {
		t.Fatal("re-run after lost record did not restore the full report")
	}
}

func TestMergeDeduplicatesCrashWindowRecords(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	spec := sweepSpec()
	spec.Loads = spec.Loads[:1]
	spec.Seeds = spec.Seeds[:1] // 2 scenarios
	dir := t.TempDir()
	path := filepath.Join(dir, "run.jsonl")
	sink, err := CreateJSONL(path, false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(spec, Options{Workers: 1}, sink); err != nil {
		t.Fatal(err)
	}
	sink.Close()
	want := renderReport(t, mustMerge(t, path))

	// A crash between stream-write and checkpoint-mark re-emits the
	// same record on resume: duplicate the first line.
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	first := b[:bytes.IndexByte(b, '\n')+1]
	if err := os.WriteFile(path, append(b, first...), 0o644); err != nil {
		t.Fatal(err)
	}
	if got := renderReport(t, mustMerge(t, path)); got != want {
		t.Fatal("duplicate record changed merged output")
	}
}

func mustMerge(t *testing.T, paths ...string) *campaign.Report {
	t.Helper()
	r, err := Merge(paths)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestMergeRejectsMixedCampaignsAndIndexConflicts(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, lines ...string) string {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	a := write("a.jsonl", `{"campaign":"x","key":"k1","index":0,"scenario":{"topo":"dc","scheme":"ecmp","workload":{}}}`)
	b := write("b.jsonl", `{"campaign":"y","key":"k2","index":1,"scenario":{"topo":"dc","scheme":"ecmp","workload":{}}}`)
	if _, err := Merge([]string{a, b}); err == nil || !strings.Contains(err.Error(), "mixes campaign") {
		t.Fatalf("mixed campaigns not rejected: %v", err)
	}
	c := write("c.jsonl",
		`{"campaign":"x","key":"k1","index":0,"scenario":{"topo":"dc","scheme":"ecmp","workload":{}}}`,
		`{"campaign":"x","key":"k3","index":0,"scenario":{"topo":"dc","scheme":"sp","workload":{}}}`)
	if _, err := Merge([]string{c}); err == nil || !strings.Contains(err.Error(), "index") {
		t.Fatalf("index conflict not rejected: %v", err)
	}
	d := write("d.jsonl",
		`{"campaign":"x","key":"k1","index":0,"scenario":{"topo":"dc","scheme":"ecmp","workload":{}}}`,
		`{"campaign":"x","key":"k1","index":4,"scenario":{"topo":"dc","scheme":"ecmp","workload":{}}}`)
	if _, err := Merge([]string{d}); err == nil || !strings.Contains(err.Error(), "index") {
		t.Fatalf("same key at two indices not rejected: %v", err)
	}
}

// TestMergeSniffsBothFormats feeds the one loader each kind of results
// file: a record stream, a report JSON (compact, and indented as
// WriteJSON leaves it, which must come back out byte for byte), both
// together, and garbage.
func TestMergeSniffsBothFormats(t *testing.T) {
	dir := t.TempDir()
	write := func(name, content string) string {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	const result = `{"topo":"dc","scheme":"ecmp","seed":1,"flows":10,"completed":10,"mean_fct":0.001,"fabric_bytes":1,"data_bytes":1,"ack_bytes":0,"probe_bytes":0,"tag_bytes":0,"queue_drops":0,"linkdown_drops":0,"simulated_ns":5}`
	report := write("report.json", `{"name":"x","scenarios":[{"result":`+result+`},{"error":"boom"}]}`)
	r := mustMerge(t, report)
	if r.Name != "x" || len(r.Outcomes) != 2 || r.Outcomes[0].Result == nil || r.Outcomes[1].Err != "boom" {
		t.Fatalf("report load: name %q, outcomes %+v", r.Name, r.Outcomes)
	}
	var indented bytes.Buffer
	if err := r.WriteJSON(&indented); err != nil {
		t.Fatal(err)
	}
	if got, want := renderReport(t, mustMerge(t, write("indented.json", indented.String()))), renderReport(t, r); got != want {
		t.Fatalf("a report does not survive WriteJSON -> Merge:\n%s\nwant:\n%s", got, want)
	}

	stream := write("s.jsonl", `{"campaign":"x","key":"k","index":0,"scenario":{"topo":"dc","scheme":"ecmp","workload":{}},"result":`+result+`}`+"\n")
	r = mustMerge(t, stream)
	if len(r.Outcomes) != 1 || r.Outcomes[0].Scenario.TopoSpec != "dc" {
		t.Fatalf("record stream load: %+v", r.Outcomes)
	}
	// Report outcomes carry no key: they follow the collected records,
	// as given.
	if r = mustMerge(t, report, stream, report); len(r.Outcomes) != 5 || r.Outcomes[0].Scenario.TopoSpec != "dc" {
		t.Fatalf("mixed load: %d outcomes, first %+v", len(r.Outcomes), r.Outcomes[0])
	}
	if _, err := Merge([]string{write("garbage", "not json\n")}); err == nil {
		t.Fatal("garbage accepted")
	}
	if _, err := Merge([]string{write("torn.json", indented.String()[:indented.Len()/2])}); err == nil {
		t.Fatal("truncated report accepted")
	}
}

func TestReadRecordsToleratesTornFinalLineOnly(t *testing.T) {
	full := `{"campaign":"x","key":"k1","index":0,"scenario":{"topo":"dc","scheme":"ecmp","workload":{}}}`
	recs, err := ReadRecords(strings.NewReader(full + "\n" + `{"torn":`))
	if err != nil || len(recs) != 1 {
		t.Fatalf("torn final line: recs=%d err=%v, want 1 record", len(recs), err)
	}
	if _, err := ReadRecords(strings.NewReader(`{"torn":` + "\n" + full + "\n")); err == nil {
		t.Fatal("mid-file corruption silently skipped")
	}
}

func TestCheckpointRoundTrip(t *testing.T) {
	// Canonical-shaped keys (name#16hex): the loader only vouches for
	// lines of that shape, anything else is treated as torn debris.
	const (
		a = "a#1111111111111111"
		b = "b#2222222222222222"
		c = "c#3333333333333333"
	)
	path := filepath.Join(t.TempDir(), "ck")
	ck, err := OpenCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{a, b, a} {
		if err := ck.Mark(k); err != nil {
			t.Fatal(err)
		}
	}
	if ck.Len() != 2 {
		t.Fatalf("Len = %d, want 2 (duplicate mark collapsed)", ck.Len())
	}
	ck.Close()
	ck, err = OpenCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	defer ck.Close()
	if !ck.Done(a) || !ck.Done(b) || ck.Done(c) {
		t.Fatal("reloaded key set wrong")
	}
	if err := ck.Mark("bad\nkey"); err == nil {
		t.Fatal("newline key accepted")
	}
}
