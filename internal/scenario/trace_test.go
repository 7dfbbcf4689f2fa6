package scenario

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"testing"

	"contra/internal/golden"
	"contra/internal/trace"
)

// TestTraceOffLeavesResultIdentical is the zero-cost contract: an
// explicit trace_level "off" (and the absent default) must produce a
// byte-identical Result to a run that never heard of tracing.
func TestTraceOffLeavesResultIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	base := fastFCT(SchemeContra)
	off := base
	off.TraceLevel = "off"

	br, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	or, err := Run(off)
	if err != nil {
		t.Fatal(err)
	}
	bb, _ := json.Marshal(br)
	ob, _ := json.Marshal(or)
	if !bytes.Equal(bb, ob) {
		t.Fatalf("trace_level off perturbed the result:\n%s\n%s", bb, ob)
	}
	if br.Trace != nil || or.Trace != nil {
		t.Fatal("untraced runs must not carry a recorder")
	}
	// Key stability: "off" normalizes away, so checkpoints match.
	if base.Key() != off.Key() {
		t.Fatalf("explicit off changed the scenario key: %q vs %q", base.Key(), off.Key())
	}
}

// TestTraceDeterministicJSONL runs the same traced scenario twice and
// requires byte-identical JSONL, and requires that tracing does not
// perturb the simulation outcome.
func TestTraceDeterministicJSONL(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	plain, err := Run(fastFCT(SchemeContra))
	if err != nil {
		t.Fatal(err)
	}

	s := fastFCT(SchemeContra)
	s.TraceLevel = "decisions"
	var prev []byte
	for i := 0; i < 2; i++ {
		res, err := Run(s)
		if err != nil {
			t.Fatal(err)
		}
		if res.Trace == nil {
			t.Fatal("decisions run recorded no trace")
		}
		if res.MeanFCT != plain.MeanFCT || res.Completed != plain.Completed ||
			res.QueueDrops != plain.QueueDrops {
			t.Fatalf("tracing perturbed the run: traced mean=%v done=%d drops=%v, plain mean=%v done=%d drops=%v",
				res.MeanFCT, res.Completed, res.QueueDrops,
				plain.MeanFCT, plain.Completed, plain.QueueDrops)
		}
		var buf bytes.Buffer
		if err := res.Trace.WriteJSONL(&buf); err != nil {
			t.Fatal(err)
		}
		if buf.Len() == 0 {
			t.Fatal("empty trace JSONL")
		}
		if prev != nil && !bytes.Equal(prev, buf.Bytes()) {
			t.Fatal("same seed, different trace JSONL")
		}
		prev = buf.Bytes()
		if res.TraceFlows == 0 || res.TraceDecisions == 0 {
			t.Fatalf("trace totals empty: flows=%d decisions=%d", res.TraceFlows, res.TraceDecisions)
		}
	}
}

// TestFlowsLevelRecordsSummariesOnly checks the cheaper level: flow
// summaries with paths and FCTs, but no decision stream.
func TestFlowsLevelRecordsSummariesOnly(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	s := fastFCT(SchemeContra)
	s.TraceLevel = "flows"
	res, err := Run(s)
	if err != nil {
		t.Fatal(err)
	}
	if res.Trace == nil || res.TraceFlows == 0 {
		t.Fatalf("flows level recorded nothing: %+v", res)
	}
	if res.TraceDecisions != 0 {
		t.Fatalf("flows level must not record decisions, got %d", res.TraceDecisions)
	}
	done := 0
	for _, ft := range res.Trace.Flows() {
		if ft.FctNs > 0 {
			done++
			if len(ft.Path) == 0 || ft.Hops == 0 {
				t.Fatalf("completed flow %d has no path: %+v", ft.ID, ft)
			}
		}
	}
	if int64(done) != res.Completed {
		t.Fatalf("trace saw %d completions, result says %d", done, res.Completed)
	}
}

// TestClassStatsAttribution checks the per-class FCT block: every
// completion lands in exactly one class, and the fairness index is a
// valid Jain value.
func TestClassStatsAttribution(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	s := fastFCT(SchemeContra)
	s.ClassStats = true
	res, err := Run(s)
	if err != nil {
		t.Fatal(err)
	}
	c := res.Classes
	if c == nil {
		t.Fatal("class_stats on but Classes nil")
	}
	if c.ElephantBytes != 1_000_000 {
		t.Fatalf("elephant threshold = %d, want the fixed 1 MB", c.ElephantBytes)
	}
	if c.Mice.Flows+c.Elephants.Flows != res.Completed {
		t.Fatalf("classes cover %d flows, result completed %d",
			c.Mice.Flows+c.Elephants.Flows, res.Completed)
	}
	if c.Jain <= 0 || c.Jain > 1 {
		t.Fatalf("jain = %v out of (0, 1]", c.Jain)
	}
	if len(c.Cohorts) != 1 || c.Cohorts[0].Cohort != 0 {
		t.Fatalf("base workload should be a single cohort 0: %+v", c.Cohorts)
	}
	// Without class_stats the block stays absent.
	plain, err := Run(fastFCT(SchemeContra))
	if err != nil {
		t.Fatal(err)
	}
	if plain.Classes != nil {
		t.Fatal("Classes set without class_stats")
	}
}

// TestCounterfactualTopKDeterministic runs the replay twice on a
// scenario busy enough to have >= 10 divergent completed flows and
// requires identical reports.
func TestCounterfactualTopKDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	s := fastFCT(SchemeContra)
	s.Workload.Load = 0.5
	s.Counterfactual = &CounterfactualConfig{TopK: 10}
	var prev *CounterfactualReport
	for i := 0; i < 2; i++ {
		res, err := Run(s)
		if err != nil {
			t.Fatal(err)
		}
		if res.Trace == nil || res.TraceLevel != "decisions" {
			t.Fatal("counterfactual dropped the base run's decision trace")
		}
		rep := res.Counterfactual
		if rep == nil || rep.Mode != trace.ModeRunnerUp {
			t.Fatalf("report = %+v, want mode %q", rep, trace.ModeRunnerUp)
		}
		if len(rep.Flows) < 10 {
			t.Fatalf("pinned %d flows, want >= 10 (candidates %d, divergent %d)",
				len(rep.Flows), rep.Candidates, rep.BaseDivergent)
		}
		for _, f := range rep.Flows {
			if f.BaseFctNs <= 0 || f.Divergent == 0 {
				t.Fatalf("bad candidate: %+v", f)
			}
		}
		if prev != nil && !reflect.DeepEqual(prev, rep) {
			t.Fatalf("same seed, different counterfactual report:\n%+v\n%+v", prev, rep)
		}
		prev = rep
	}
}

// TestCounterfactualHulaMode replays the same workload under HULA and
// lines flow IDs up across schemes.
func TestCounterfactualHulaMode(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	s := fastFCT(SchemeContra)
	s.Counterfactual = &CounterfactualConfig{TopK: 5, Mode: "hula"}
	res, err := Run(s)
	if err != nil {
		t.Fatal(err)
	}
	rep := res.Counterfactual
	if len(rep.Flows) == 0 {
		t.Fatal("hula replay pinned no flows")
	}
	completedAlt := 0
	for _, f := range rep.Flows {
		if f.AltFctNs > 0 {
			completedAlt++
		}
	}
	if completedAlt == 0 {
		t.Fatal("no pinned flow completed under hula; flow IDs are misaligned across schemes")
	}
}

// TestCounterfactualSettingReproducesTable pins the setting, decoded
// from a spec, at the per-flow ΔFCT table the retired single-experiment
// command printed for the same cell with its top-3 replay, as re-pinned
// since by the protocol changes CHANGES.md names. The table's rows are
// pinned in testdata/golden.txt.
func TestCounterfactualSettingReproducesTable(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	s, err := Decode([]byte(`{"name":"fattree:4:2/contra","topo":"fattree:4:2","scheme":"contra","seed":5,` +
		`"workload":{"dist":"websearch","load":0.4,"duration_ns":20000000,"max_flows":40},` +
		`"counterfactual":{"top_k":3}}`))
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(*s)
	if err != nil {
		t.Fatal(err)
	}
	rep := res.Counterfactual
	if len(rep.Flows) != min(3, rep.Candidates) {
		t.Fatalf("%d flows in the top-3 table of %d candidates", len(rep.Flows), rep.Candidates)
	}
	rows := []string{fmt.Sprintf("%s: %d/%d divergent, %d candidates",
		rep.Mode, rep.BaseDivergent, rep.BaseDecisions, rep.Candidates)}
	for _, f := range rep.Flows {
		rows = append(rows, fmt.Sprintf("flow %d: %.3f -> %.3f ms", f.Flow, float64(f.BaseFctNs)/1e6, float64(f.AltFctNs)/1e6))
	}
	for i, row := range rows {
		golden.Check(t, "testdata/golden.txt", fmt.Sprintf("counterfactual/%d", i), row)
	}
}

// TestCounterfactualRejectsInvalid covers the guard rails: a setting
// no replay can answer fails Validate, before anything runs.
func TestCounterfactualRejectsInvalid(t *testing.T) {
	for name, bad := range map[string]func(*Scenario){
		"non-contra base scheme": func(s *Scenario) { s.Scheme = SchemeHula },
		"CBR workload":           func(s *Scenario) { s.Workload = Workload{Kind: WorkloadCBR} },
		"bogus mode":             func(s *Scenario) { s.Counterfactual.Mode = "bogus" },
		"negative top_k":         func(s *Scenario) { s.Counterfactual.TopK = -1 },
	} {
		s := fastFCT(SchemeContra)
		s.Counterfactual = &CounterfactualConfig{}
		if err := s.Validate(); err != nil {
			t.Fatalf("valid counterfactual refused: %v", err)
		}
		bad(&s)
		if err := s.Validate(); err == nil {
			t.Errorf("accepted a %s", name)
		}
	}
}

// TestOverridesRequireContra: pinning is a Contra-only mechanism.
func TestOverridesRequireContra(t *testing.T) {
	s := fastFCT(SchemeHula)
	s.Overrides = trace.NewOverrides(trace.ModeRunnerUp, []uint64{1})
	if err := s.Validate(); err == nil {
		t.Fatal("overrides accepted on a non-contra scheme")
	}
}
