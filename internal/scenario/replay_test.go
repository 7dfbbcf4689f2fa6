package scenario

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"contra/internal/flowtrace"
	"contra/internal/workload"
)

// recordThenReplay runs live with recording on, writes the trace, and
// runs the replay twin (same scenario, workload swapped for the trace
// kind); both Result JSON encodings must be byte-identical, the sampled
// queue-length summary included, and so must the artifact the encoding
// leaves out: the delivered-throughput series.
func recordThenReplay(t *testing.T, live Scenario) (*Result, *Result) {
	t.Helper()
	live.RecordFlows = true
	live.SampleQueues = true
	if live.BinNs == 0 {
		live.BinNs = 500_000
	}
	liveRes, err := Run(live)
	if err != nil {
		t.Fatal(err)
	}
	if liveRes.FlowTrace == nil {
		t.Fatal("RecordFlows produced no trace artifact")
	}
	path := filepath.Join(t.TempDir(), flowtrace.FileName(live.Name))
	if err := liveRes.FlowTrace.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	rep := live
	rep.RecordFlows = false
	rep.Workload = Workload{Kind: WorkloadTrace, TracePath: path}
	repRes, err := Run(rep)
	if err != nil {
		t.Fatal(err)
	}
	a, err := json.Marshal(liveRes)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(repRes)
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Fatalf("replayed Result differs from live run:\nlive:   %s\nreplay: %s", a, b)
	}
	if liveRes.Queues == nil || liveRes.Queues.Samples == 0 {
		t.Fatalf("sample_queues on, queue summary %+v (want non-zero samples)", liveRes.Queues)
	}
	if len(liveRes.Series) == 0 || !reflect.DeepEqual(liveRes.Series, repRes.Series) {
		t.Fatalf("throughput series differs (live %d bins, replay %d bins)", len(liveRes.Series), len(repRes.Series))
	}
	return liveRes, repRes
}

func TestRecordReplayFCT(t *testing.T) {
	live := Scenario{
		Name: "rr-fct", TopoSpec: "fattree:4:2", Scheme: SchemeContra, Seed: 3,
		Workload: Workload{Kind: WorkloadFCT, Dist: "websearch", Load: 0.3, DurationNs: 2_000_000, MaxFlows: 150},
		Observe:  Observe{ClassStats: true},
		Events: []Event{
			{Kind: Surge, AtNs: 4_000_000, Load: 0.2, DurationNs: 1_000_000},
			{Kind: LinkDown, AtNs: 4_000_000, Link: "auto"},
		},
	}
	liveRes, _ := recordThenReplay(t, live)
	// The trace labels surge flows so attribution survives replay.
	classes := map[string]bool{}
	for _, f := range liveRes.FlowTrace.Flows {
		classes[f.Class] = true
	}
	if !classes["base"] || !classes["surge1"] {
		t.Fatalf("trace classes = %v, want base and surge1", classes)
	}
}

func TestRecordReplayCBR(t *testing.T) {
	live := Scenario{
		Name: "rr-cbr", TopoSpec: "fattree:4:2", Scheme: SchemeECMP, Seed: 1,
		Workload: Workload{Kind: WorkloadCBR, RateBps: 2e9, EndNs: 20_000_000},
		Events:   []Event{{Kind: LinkDown, AtNs: 10_000_000, Link: "auto"}},
	}
	liveRes, _ := recordThenReplay(t, live)
	if liveRes.FlowTrace.Meta.Kind != flowtrace.KindCBR || liveRes.FlowTrace.Meta.EndNs != 20_000_000 {
		t.Fatalf("cbr trace meta = %+v", liveRes.FlowTrace.Meta)
	}
}

func TestRecordReplayCohorts(t *testing.T) {
	live := Scenario{
		Name: "rr-cohorts", TopoSpec: "fattree:4:2", Scheme: SchemeContra, Seed: 7,
		Workload: Workload{
			Kind:       WorkloadCohorts,
			DurationNs: 2_000_000,
			MaxFlows:   200,
			Cohorts: []workload.CohortSpec{
				{Name: "web", Load: 0.2},
				{Name: "bulk", RateFPS: 3000, Process: workload.ProcGamma, Shape: 0.5,
					Size: workload.SizeSpec{Dist: workload.SizeLogNormal, MeanBytes: 5e5, Sigma: 1}},
			},
		},
		Observe: Observe{ClassStats: true},
	}
	liveRes, _ := recordThenReplay(t, live)
	classes := map[string]bool{}
	for _, f := range liveRes.FlowTrace.Flows {
		classes[f.Class] = true
	}
	if !classes["web"] || !classes["bulk"] {
		t.Fatalf("trace classes = %v, want the cohort names", classes)
	}
	if liveRes.Classes == nil || len(liveRes.Classes.Cohorts) < 2 {
		t.Fatalf("cohort class stats missing: %+v", liveRes.Classes)
	}
}

// TestReplayFromRecordDir exercises the campaign layout: traces live in
// a directory keyed by sanitized cell name, and a trace path naming the
// directory resolves each cell's own recording.
func TestReplayFromRecordDir(t *testing.T) {
	live := Scenario{
		Name: "fattree:4:2/ecmp/load0.3/steady/seed1", TopoSpec: "fattree:4:2",
		Scheme: SchemeECMP, Seed: 1,
		Workload: Workload{Kind: WorkloadFCT, Load: 0.3, DurationNs: 1_000_000, MaxFlows: 50},
	}
	live.RecordFlows = true
	liveRes, err := Run(live)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := liveRes.FlowTrace.WriteFile(filepath.Join(dir, flowtrace.FileName(live.Name))); err != nil {
		t.Fatal(err)
	}
	rep := live
	rep.RecordFlows = false
	rep.Workload = Workload{Kind: WorkloadTrace, TracePath: dir}
	repRes, err := Run(rep)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := json.Marshal(liveRes)
	b, _ := json.Marshal(repRes)
	if string(a) != string(b) {
		t.Fatalf("record-dir replay differs:\nlive:   %s\nreplay: %s", a, b)
	}
}

// TestReplayErrors pins the trace-workload failure modes to precise
// one-line errors.
func TestReplayErrors(t *testing.T) {
	dir := t.TempDir()
	v2 := filepath.Join(dir, "v2.flow.jsonl")
	if err := os.WriteFile(v2, []byte(`{"type":"meta","v":2,"kind":"fct","topo":"fattree:4:2","seed":1,"flows":0}`+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	otherTopo := filepath.Join(dir, "other.flow.jsonl")
	tr := &flowtrace.Trace{
		Meta:  flowtrace.Meta{Kind: flowtrace.KindFCT, Topo: "leafspine:4:4:2", Seed: 1, DeadlineNs: 10},
		Flows: []flowtrace.Flow{{ID: 1, Src: "x", Dst: "y", Bytes: 10, StartNs: 1}},
	}
	if err := tr.WriteFile(otherTopo); err != nil {
		t.Fatal(err)
	}

	// Traces that used to reach sim.StartFlows and kill the process
	// there ("panic: sim: duplicate flow id 1", "panic: sim: flows
	// connect hosts"); both are committed in flowtrace's fuzz corpus.
	raw := func(name string, flows ...string) string {
		meta := fmt.Sprintf(`{"type":"meta","v":1,"kind":"fct","topo":"fattree:4:2","seed":5,"deadline_ns":1023072000,"flows":%d}`, len(flows))
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(meta+"\n"+strings.Join(flows, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	const flow1 = `{"type":"flow","id":1,"src":"h2_0_0","dst":"h0_1_1","bytes":32607,"start_ns":3124450}`
	dupID := raw("dup.flow.jsonl", flow1, `{"type":"flow","id":2,"src":"h1_0_0","dst":"h3_0_1","bytes":338494,"start_ns":3151441}`, flow1)
	switchSrc := raw("switch-src.flow.jsonl", strings.Replace(flow1, `"src":"h2_0_0"`, `"src":"e0_0"`, 1))
	switchDst := raw("switch-dst.flow.jsonl", strings.Replace(flow1, `"dst":"h0_1_1"`, `"dst":"c3"`, 1))
	noNode := raw("no-node.flow.jsonl", flow1, strings.Replace(flow1, `"id":1,"src":"h2_0_0"`, `"id":2,"src":"h9_9_9"`, 1))
	// Reached StartFlows' per-packet allocation: "makeslice: len out of range".
	huge := raw("huge.flow.jsonl", strings.Replace(flow1, `"bytes":32607`, `"bytes":9000000000000000000`, 1))

	base := Scenario{Name: "re", TopoSpec: "fattree:4:2", Scheme: SchemeECMP, Seed: 1}
	cases := []struct {
		name string
		path string
		want string
	}{
		{"missing file", filepath.Join(dir, "nope.flow.jsonl"), "nope.flow.jsonl"},
		{"wrong version", v2, "unsupported trace version 2"},
		{"topo mismatch", otherTopo, `recorded on topo "leafspine:4:4:2"`},
		{"duplicate flow id", dupID, "dup.flow.jsonl: flowtrace: line 4: duplicate flow id 1"},
		{"switch as source", switchSrc, `trace flow 0: node "e0_0" is a switch; flows connect hosts`},
		{"switch as destination", switchDst, `trace flow 0: node "c3" is a switch; flows connect hosts`},
		{"unknown node", noNode, `trace flow 1: no node "h9_9_9" in topo`},
		{"flow too large to simulate", huge, "huge.flow.jsonl: flowtrace: line 2: flow 1: bytes 9000000000000000000 past the simulator's"},
	}
	for _, tc := range cases {
		s := base
		s.Workload = Workload{Kind: WorkloadTrace, TracePath: tc.path}
		_, err := Run(s)
		if err == nil {
			t.Errorf("%s: ran", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}

// TestOversizedFlowIsAnError: a flow too large for StartFlows' per-packet
// allocation used to kill the process ("makeslice: len out of range"),
// and with it every other cell of a campaign. A spec that asks for one
// outright is refused by validation, naming the field; one whose heavy
// tail merely can produce one gets as far as play, which names the flow.
func TestOversizedFlowIsAnError(t *testing.T) {
	base := Scenario{Name: "big", TopoSpec: "fattree:4:2", Scheme: SchemeECMP, Seed: 1}

	spec := base
	spec.Workload = Workload{Kind: WorkloadCohorts, Cohorts: []workload.CohortSpec{
		{Name: "bulk", RateFPS: 1000, Size: workload.SizeSpec{Dist: workload.SizeFixed, Bytes: 9e18}},
	}}
	tail := base
	tail.Workload = Workload{Kind: WorkloadCohorts, DurationNs: 1_000_000, Cohorts: []workload.CohortSpec{
		{Name: "bulk", RateFPS: 1e5, Size: workload.SizeSpec{Dist: workload.SizePareto, MinBytes: 6e10, Alpha: 1.01}},
	}}

	for _, tc := range []struct {
		name string
		s    Scenario
		want string
	}{
		{"fixed size in the spec", spec, `scenario "big": workload: cohort 0 ("bulk"): size bytes 9e+18 is past the simulator's`},
		{"pareto tail", tail, `scenario "big": flow 1 (h`},
	} {
		_, err := Run(tc.s)
		if err == nil {
			t.Errorf("%s: ran", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) || !strings.Contains(err.Error(), "bytes") {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}

// TestWorkloadKindValidation pins the cross-kind spec errors.
func TestWorkloadKindValidation(t *testing.T) {
	mk := func(w Workload, evs ...Event) Scenario {
		return Scenario{Name: "v", TopoSpec: "fattree:4:2", Scheme: SchemeECMP, Workload: w, Events: evs}
	}
	cohort := []workload.CohortSpec{{Name: "web", Load: 0.2}}
	cases := []struct {
		name string
		s    Scenario
		want string
	}{
		{"unknown kind", mk(Workload{Kind: "voodoo"}), `unknown workload kind "voodoo"`},
		{"trace without path", mk(Workload{Kind: WorkloadTrace}), "trace workload needs a trace file"},
		{"trace with dist", mk(Workload{Kind: WorkloadTrace, TracePath: "x", Dist: "cache"}), "takes only a trace path"},
		{"cohorts without cohorts", mk(Workload{Kind: WorkloadCohorts}), "declares no cohorts"},
		{"cohorts with dist", mk(Workload{Kind: WorkloadCohorts, Dist: "cache", Cohorts: cohort}), "does not take dist"},
		{"cohorts with pattern", mk(Workload{Kind: WorkloadCohorts, Pattern: "incast", Cohorts: cohort}), "does not take pattern"},
		{"cohorts with pairs", mk(Workload{Kind: WorkloadCohorts, Pairs: [][2]string{{"a", "b"}}, Cohorts: cohort}), "does not take pairs"},
		{"cohorts on fct", mk(Workload{Kind: WorkloadFCT, Cohorts: cohort}), `cohorts require workload kind "cohorts"`},
		{"trace path on fct", mk(Workload{Kind: WorkloadFCT, TracePath: "x"}), `a trace path requires workload kind "trace"`},
		{"bad cohort bubbles", mk(Workload{Kind: WorkloadCohorts, Cohorts: []workload.CohortSpec{{Name: "w", RateFPS: -1, Load: 0.1}}}),
			"rate_fps -1 is negative"},
		{"surge on cohorts", mk(Workload{Kind: WorkloadCohorts, Cohorts: cohort},
			Event{Kind: Surge, AtNs: 1, Load: 0.1, DurationNs: 1}), "surge events require an fct workload"},
		{"ramp on cbr", mk(Workload{Kind: WorkloadCBR},
			Event{Kind: Ramp, AtNs: 1, Load: 0.1, DurationNs: 1}), "ramp events require an fct workload"},
	}
	for _, tc := range cases {
		err := tc.s.Validate()
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}

// TestNewWorkloadFieldsKeepKeysStable guards the checkpoint contract:
// scenarios that do not use the new fields must key exactly as before
// they existed (absent omitempty fields leave the canonical encoding
// untouched), and RecordFlows must never enter the key at all.
func TestNewWorkloadFieldsKeepKeysStable(t *testing.T) {
	s := Scenario{Name: "k", TopoSpec: "fattree:4:2", Scheme: SchemeContra, Seed: 1,
		Workload: Workload{Kind: WorkloadFCT, Load: 0.4}}
	base := s.Key()
	rec := s
	rec.RecordFlows = true
	if rec.Key() != base {
		t.Fatal("RecordFlows changed the scenario key")
	}
	enc, err := json.Marshal(&s.Workload)
	if err != nil {
		t.Fatal(err)
	}
	for _, field := range []string{"cohorts", "trace"} {
		if strings.Contains(string(enc), field) {
			t.Fatalf("unused field %q leaks into the canonical encoding: %s", field, enc)
		}
	}
}
