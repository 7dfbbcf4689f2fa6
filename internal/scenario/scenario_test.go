package scenario

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"contra/internal/core"
	"contra/internal/workload"
)

func TestSpecJSONRoundTrip(t *testing.T) {
	s := Scenario{
		Name:     "dc/contra/linkfail",
		TopoSpec: "dc",
		Scheme:   SchemeContra,
		Policy:   "minimize(path.util)",
		Seed:     7,
		Workload: Workload{
			Kind: WorkloadFCT, Dist: "cache", Load: 0.4,
			DurationNs: 5_000_000, MaxFlows: 300,
			Pairs: [][2]string{{"h0_0", "h3_1"}},
		},
		Events: []Event{
			{Kind: LinkDown, AtNs: 6_000_000, Link: "l0-s0"},
			{Kind: LinkUp, AtNs: 12_000_000, Link: "l0-s0"},
			{Kind: Degrade, AtNs: 8_000_000, Link: "auto", Scale: 0.25},
			{Kind: Surge, AtNs: 7_000_000, Load: 0.3, DurationNs: 2_000_000},
		},
		Script:  "everything",
		Options: core.Options{ProbePeriodNs: 128_000},
		Observe: Observe{
			BinNs: 500_000, SampleQueues: true, TrackLoops: true,
			Counterfactual: &CounterfactualConfig{TopK: 3, Mode: "ecmp"},
		},
	}
	b, err := json.Marshal(&s)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(b)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(*got, s) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", *got, s)
	}
}

func TestDecodeRejectsUnknownFieldsAndBadValues(t *testing.T) {
	cases := map[string]string{
		"unknown field":        `{"topo":"dc","scheme":"contra","worload":{}}`,
		"unknown scheme":       `{"topo":"dc","scheme":"ospf"}`,
		"unknown kind":         `{"topo":"dc","scheme":"ecmp","events":[{"kind":"meteor","at_ns":1}]}`,
		"unknown dist":         `{"topo":"dc","scheme":"ecmp","workload":{"dist":"uniform"}}`,
		"surge in cbr":         `{"topo":"dc","scheme":"ecmp","workload":{"kind":"cbr"},"events":[{"kind":"surge","at_ns":1,"load":0.1,"duration_ns":1}]}`,
		"empty surge":          `{"topo":"dc","scheme":"ecmp","events":[{"kind":"surge","at_ns":1}]}`,
		"no topology":          `{"scheme":"ecmp"}`,
		"pre-fail switch":      `{"topo":"dc","scheme":"contra","events":[{"kind":"switch_down","at_ns":0}]}`,
		"probe_loss rate":      `{"topo":"dc","scheme":"contra","events":[{"kind":"probe_loss","at_ns":1,"rate":1.5}]}`,
		"probe_loss two nodes": `{"topo":"dc","scheme":"contra","events":[{"kind":"probe_loss","at_ns":1,"rate":0.1,"link":"auto","node":"s0"}]}`,
		"swap on ecmp":         `{"topo":"dc","scheme":"ecmp","events":[{"kind":"policy_swap","at_ns":1,"policy":"minimize(path.len)"}]}`,
		"swap no policy":       `{"topo":"dc","scheme":"contra","events":[{"kind":"policy_swap","at_ns":1}]}`,
		"swap at zero":         `{"topo":"dc","scheme":"contra","events":[{"kind":"policy_swap","at_ns":0,"policy":"minimize(path.len)"}]}`,
		"empty ramp":           `{"topo":"dc","scheme":"ecmp","events":[{"kind":"ramp","at_ns":1}]}`,
		"ramp in cbr":          `{"topo":"dc","scheme":"ecmp","workload":{"kind":"cbr"},"events":[{"kind":"ramp","at_ns":1,"load":0.2,"duration_ns":1000}]}`,
		"probe_loss past":      `{"topo":"dc","scheme":"contra","events":[{"kind":"probe_loss","at_ns":-1,"rate":0.1}]}`,
		"counterfactual ecmp":  `{"topo":"dc","scheme":"ecmp","counterfactual":{}}`,
		"counterfactual cbr":   `{"topo":"dc","scheme":"contra","workload":{"kind":"cbr"},"counterfactual":{}}`,
		"counterfactual mode":  `{"topo":"dc","scheme":"contra","counterfactual":{"mode":"bogus"}}`,
		"counterfactual top_k": `{"topo":"dc","scheme":"contra","counterfactual":{"top_k":-1}}`,
	}
	for name, spec := range cases {
		if _, err := Decode([]byte(spec)); err == nil {
			t.Errorf("%s: decode accepted %s", name, spec)
		}
	}
}

func TestRampExpandsIntoSurgeChain(t *testing.T) {
	s := Scenario{
		TopoSpec: "dc",
		Events: []Event{
			{Kind: LinkDown, AtNs: 1_000_000, Link: "auto"},
			{Kind: Ramp, AtNs: 10_000_000, Load: 0.8, DurationNs: 7_000_000, Steps: 2},
		},
	}
	shared := s.Events
	s.fill()
	// Steps=2 -> 3 segments: up 0.4, peak 0.8, down 0.4.
	if len(s.Events) != 4 {
		t.Fatalf("expanded to %d events, want link_down + 3 surges: %+v", len(s.Events), s.Events)
	}
	want := []Event{
		{Kind: LinkDown, AtNs: 1_000_000, Link: "auto"},
		{Kind: Surge, AtNs: 10_000_000, Load: 0.4, DurationNs: 2_333_333},
		{Kind: Surge, AtNs: 12_333_333, Load: 0.8, DurationNs: 2_333_333},
		{Kind: Surge, AtNs: 14_666_666, Load: 0.4, DurationNs: 2_333_333},
	}
	if !reflect.DeepEqual(s.Events, want) {
		t.Fatalf("expansion mismatch:\n got %+v\nwant %+v", s.Events, want)
	}
	// The caller's slice must be untouched (campaign cells share it).
	if shared[1].Kind != Ramp {
		t.Fatal("expansion mutated the shared events slice")
	}
	// Default step count: 4 levels -> 7 segments.
	d := Scenario{TopoSpec: "dc", Events: []Event{{Kind: Ramp, AtNs: 1, Load: 0.6, DurationNs: 7000}}}
	d.fill()
	if len(d.Events) != 7 {
		t.Fatalf("default ramp expanded to %d segments, want 7", len(d.Events))
	}
	peak := d.Events[3]
	if peak.Load != 0.6 {
		t.Fatalf("ramp peak load %g, want 0.6", peak.Load)
	}
	if d.Events[0].Load != 0.15 || d.Events[6].Load != 0.15 {
		t.Fatalf("ramp edges %g/%g, want 0.15", d.Events[0].Load, d.Events[6].Load)
	}
}

func TestRunRejectsMalformedRampBeforeExpansion(t *testing.T) {
	// Go-constructed scenarios skip Decode, so Run itself must reject
	// a bad ramp before fill() expands (and would silently drop) it.
	s := fastFCT(SchemeECMP)
	s.Events = []Event{{Kind: Ramp, AtNs: 1, Load: 0.5, DurationNs: 1_000_000, Steps: -1}}
	if _, err := Run(s); err == nil {
		t.Fatal("Run accepted a negative-steps ramp")
	}
}

func TestRampAddsTraffic(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	base := fastFCT(SchemeECMP)
	plain, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	ramped := base
	ramped.Events = []Event{{Kind: Ramp, AtNs: 4_000_000, Load: 0.5, DurationNs: 3_000_000, Steps: 3}}
	got, err := Run(ramped)
	if err != nil {
		t.Fatal(err)
	}
	if got.Flows <= plain.Flows {
		t.Fatalf("ramp added no flows: %d vs %d", got.Flows, plain.Flows)
	}
}

func TestDisruptionSeverityCoalescing(t *testing.T) {
	s := Scenario{
		TopoSpec: "dc",
		Events: []Event{
			// Same instant: degrade + link_down + switch_down coalesce
			// into one window labeled with the most severe kind.
			{Kind: Degrade, AtNs: 5_000_000, Link: "auto", Scale: 0.1},
			{Kind: LinkDown, AtNs: 5_000_000, Link: "auto"},
			{Kind: SwitchDown, AtNs: 5_000_000, Node: "auto"},
			// A switch_down inside the open window: its own window.
			{Kind: SwitchDown, AtNs: 9_000_000, Node: "auto"},
			// Recovery actions never open windows.
			{Kind: SwitchUp, AtNs: 12_000_000, Node: "auto"},
			{Kind: LinkUp, AtNs: 13_000_000, Link: "auto"},
		},
	}
	ds := s.disruptions()
	if len(ds) != 2 {
		t.Fatalf("got %d windows, want 2: %+v", len(ds), ds)
	}
	if ds[0].AtNs != 5_000_000 || ds[0].Kind != SwitchDown {
		t.Fatalf("coalesced window = %+v, want switch_down at 5ms", ds[0])
	}
	if ds[1].AtNs != 9_000_000 || ds[1].Kind != SwitchDown {
		t.Fatalf("nested window = %+v, want switch_down at 9ms", ds[1])
	}
}

// TestChaosScenarioEndToEnd exercises the whole chaos stack through
// scenario.Run: a fattree CBR run scripting probe loss, a whole-core
// failure and reboot, and a live policy swap, checking every chaos
// metric the Result carries.
func TestChaosScenarioEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	s := Scenario{
		Name:     "chaos-e2e",
		TopoSpec: "fattree:4:1",
		Scheme:   SchemeContra,
		Seed:     3,
		Workload: Workload{Kind: WorkloadCBR, EndNs: 30_000_000},
		Events: []Event{
			{Kind: ProbeLoss, AtNs: 1_000_000, Node: "auto", Rate: 0.2},
			{Kind: SwitchDown, AtNs: 8_000_000, Node: "auto"},
			{Kind: SwitchUp, AtNs: 12_000_000, Node: "auto"},
			{Kind: PolicySwap, AtNs: 18_000_000, NewPolicy: "minimize(path.len)"},
		},
	}
	res, err := Run(s)
	if err != nil {
		t.Fatal(err)
	}
	if res.ProbeLossSeen == 0 || res.ProbeLossDropped == 0 {
		t.Fatalf("probe loss idle: seen=%d dropped=%d", res.ProbeLossSeen, res.ProbeLossDropped)
	}
	if res.ProbeLossFrac < 0.1 || res.ProbeLossFrac > 0.3 {
		t.Fatalf("realized probe loss %.3f far from configured 0.2", res.ProbeLossFrac)
	}
	if res.NodeDownDrops == 0 {
		t.Fatal("whole-switch failure dropped nothing")
	}
	if len(res.Swaps) != 1 {
		t.Fatalf("got %d swap windows, want 1: %+v", len(res.Swaps), res.Swaps)
	}
	w := res.Swaps[0]
	if w.AtNs != 18_000_000 || w.Pairs == 0 {
		t.Fatalf("swap window %+v: wrong anchor or empty snapshot", w)
	}
	if w.ConvergenceNs <= 0 {
		t.Fatalf("swap never converged inside the run: %+v", w)
	}
	if ns, ok := res.SwapConvergenceNs(); !ok || ns != w.ConvergenceNs {
		t.Fatalf("SwapConvergenceNs = (%d,%v), want (%d,true)", ns, ok, w.ConvergenceNs)
	}
	// The switch failure must surface as a recovery window labeled
	// with its kind.
	var found bool
	for _, rw := range res.Recoveries {
		if rw.AtNs == 8_000_000 && rw.Kind == SwitchDown {
			found = true
		}
	}
	if !found {
		t.Fatalf("no switch_down recovery window at 8ms: %+v", res.Recoveries)
	}
}

// TestChaosScenarioDeterminism pins the acceptance bar: the same chaos
// scenario must produce byte-identical results on every run.
func TestChaosScenarioDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	s := Scenario{
		Name:     "chaos-det",
		TopoSpec: "fattree:4:1",
		Scheme:   SchemeContra,
		Seed:     5,
		Workload: Workload{Kind: WorkloadCBR, EndNs: 20_000_000},
		Events: []Event{
			{Kind: ProbeLoss, AtNs: 500_000, Link: "auto", Rate: 0.3},
			{Kind: SwitchDown, AtNs: 6_000_000, Node: "auto"},
			{Kind: SwitchUp, AtNs: 9_000_000, Node: "auto"},
			{Kind: PolicySwap, AtNs: 12_000_000, NewPolicy: "minimize((path.util, path.len))"},
		},
	}
	var prev []byte
	for i := 0; i < 2; i++ {
		res, err := Run(s)
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		if prev != nil && !reflect.DeepEqual(prev, b) {
			t.Fatalf("same chaos scenario, different results:\n%s\n%s", prev, b)
		}
		prev = b
	}
}

// fastFCT is a small deterministic FCT scenario used across tests.
func fastFCT(scheme Scheme) Scenario {
	return Scenario{
		Name:     "test/" + string(scheme),
		TopoSpec: "dc",
		Scheme:   scheme,
		Seed:     3,
		Workload: Workload{
			Kind: WorkloadFCT, Dist: "cache", Load: 0.3,
			DurationNs: 4_000_000, MaxFlows: 200,
		},
	}
}

func TestRunDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	s := fastFCT(SchemeContra)
	s.Events = []Event{
		{Kind: LinkDown, AtNs: 5_000_000, Link: "auto"},
		{Kind: LinkUp, AtNs: 8_000_000, Link: "auto"},
	}
	var prev []byte
	for i := 0; i < 2; i++ {
		res, err := Run(s)
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		if prev != nil && !reflect.DeepEqual(prev, b) {
			t.Fatalf("same scenario, different results:\n%s\n%s", prev, b)
		}
		prev = b
	}
}

func TestKeyIsStableAndParameterSensitive(t *testing.T) {
	s := fastFCT(SchemeContra)
	k1, k2 := s.Key(), s.Key()
	if k1 != k2 {
		t.Fatalf("Key not stable: %q vs %q", k1, k2)
	}
	// A decode round-trip (what checkpoint/resume sees across process
	// restarts) must preserve the key.
	b, err := json.Marshal(&s)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(b)
	if err != nil {
		t.Fatal(err)
	}
	if got.Key() != k1 {
		t.Fatalf("Key changed across JSON round trip: %q vs %q", got.Key(), k1)
	}
	// Every execution-relevant parameter must move the key.
	muts := map[string]func(*Scenario){
		"seed":    func(s *Scenario) { s.Seed++ },
		"scheme":  func(s *Scenario) { s.Scheme = SchemeECMP },
		"topo":    func(s *Scenario) { s.TopoSpec = "fattree:4:1" },
		"load":    func(s *Scenario) { s.Workload.Load = 0.7 },
		"pattern": func(s *Scenario) { s.Workload.Pattern = "incast" },
		"events":  func(s *Scenario) { s.Events = []Event{{Kind: LinkDown, AtNs: 1}} },
	}
	for name, mut := range muts {
		m := fastFCT(SchemeContra)
		mut(&m)
		if m.Key() == k1 {
			t.Errorf("mutating %s did not change the key", name)
		}
	}
	// The name is a label, not identity: only the readable prefix moves.
	renamed := fastFCT(SchemeContra)
	renamed.Name = "other"
	if ki, kj := k1[strings.IndexByte(k1, '#'):], renamed.Key(); !strings.HasSuffix(kj, ki) {
		t.Errorf("renaming changed the parameter hash: %q vs %q", k1, kj)
	}
}

func TestIncastScenarioRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	s := fastFCT(SchemeECMP)
	s.Workload.Pattern = "incast"
	res, err := Run(s)
	if err != nil {
		t.Fatal(err)
	}
	if res.Pattern != "incast" {
		t.Fatalf("res.Pattern = %q", res.Pattern)
	}
	if res.Completed == 0 {
		t.Fatal("no incast flows completed")
	}
}

func TestPatternValidation(t *testing.T) {
	if _, err := Decode([]byte(`{"topo":"dc","scheme":"ecmp","workload":{"load":0.3,"pattern":"hotspot"}}`)); err == nil {
		t.Fatal("decode accepted an unknown traffic pattern")
	}
	if _, err := Decode([]byte(`{"topo":"dc","scheme":"ecmp","workload":{"load":0.3,"pattern":"all_to_all","incast_targets":2}}`)); err != nil {
		t.Fatal(err)
	}
}

func TestP95TracksBetweenP50AndP99(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	res, err := Run(fastFCT(SchemeECMP))
	if err != nil {
		t.Fatal(err)
	}
	if res.P95FCT <= 0 {
		t.Fatal("no p95 FCT reported")
	}
	// All three percentiles interpolate one sorted sample, so they are
	// ordered exactly.
	if res.P95FCT < res.P50FCT || res.P95FCT > res.P99FCT {
		t.Fatalf("p95 %.6f outside [p50 %.6f, p99 %.6f]", res.P95FCT, res.P50FCT, res.P99FCT)
	}
}

// TestAllMiceCellReportsOneP95: in a cell whose flows are all mice, the
// mice class holds the same completions as the cell, so its p95 is the
// cell's, bit for bit: one sample, one answer.
func TestAllMiceCellReportsOneP95(t *testing.T) {
	s := Scenario{
		Name: "all-mice", TopoSpec: "fattree:4:2", Scheme: SchemeECMP, Seed: 1,
		Workload: Workload{
			Kind:       WorkloadCohorts,
			DurationNs: 2_000_000,
			MaxFlows:   60,
			Cohorts: []workload.CohortSpec{{Name: "mice", RateFPS: 30_000,
				Size: workload.SizeSpec{Dist: workload.SizeFixed, Bytes: 20_000}}},
		},
		Observe: Observe{ClassStats: true},
	}
	res, err := Run(s)
	if err != nil {
		t.Fatal(err)
	}
	c := res.Classes
	if c == nil || c.Elephants.Flows != 0 || c.Mice.Flows != res.Completed || res.Completed < 20 {
		t.Fatalf("classes %+v of %d completions, want every one a mouse", c, res.Completed)
	}
	if got, want := c.Mice.P95Ms, res.P95FCT*1e3; got != want {
		t.Errorf("mice p95 %v ms, cell p95 %v ms: one sample must give one p95", got, want)
	}
}

func TestMultiDisruptionRecoveryWindows(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	s := Scenario{
		TopoSpec: "dc",
		Scheme:   SchemeECMP,
		Seed:     2,
		Workload: Workload{Kind: WorkloadCBR, EndNs: 60_000_000},
		Events: []Event{
			// Two separate disruption instants; the same-time pair at
			// 15ms must coalesce into one window.
			{Kind: Degrade, AtNs: 15_000_000, Link: "l0-s0", Scale: 0.05},
			{Kind: Degrade, AtNs: 15_000_000, Link: "l0-s1", Scale: 0.05},
			{Kind: Degrade, AtNs: 20_000_000, Link: "l0-s0", Scale: 1}, // restore
			{Kind: Degrade, AtNs: 20_000_000, Link: "l0-s1", Scale: 1},
			{Kind: Degrade, AtNs: 40_000_000, Link: "l1-s0", Scale: 0.05},
			{Kind: Degrade, AtNs: 40_000_000, Link: "l1-s1", Scale: 0.05},
		},
	}
	res, err := Run(s)
	if err != nil {
		t.Fatal(err)
	}
	// Restores are recovery actions, not disruptions: two windows.
	if len(res.Recoveries) != 2 {
		t.Fatalf("got %d recovery windows, want 2 (15ms and 40ms): %+v",
			len(res.Recoveries), res.Recoveries)
	}
	w0, w2 := res.Recoveries[0], res.Recoveries[1]
	if w0.AtNs != 15_000_000 || w2.AtNs != 40_000_000 {
		t.Fatalf("window anchors wrong: %+v", res.Recoveries)
	}
	for i, w := range []RecoveryWindow{w0, w2} {
		if w.BaselineBps <= 0 {
			t.Fatalf("window %d: no baseline", i)
		}
		if w.MinBps > 0.95*w.BaselineBps {
			t.Fatalf("window %d: degradation invisible (min %.2f of %.2f Gbps)",
				i, w.MinBps/1e9, w.BaselineBps/1e9)
		}
	}
	// Legacy top-level fields must mirror the first window.
	if res.FailAtNs != w0.AtNs || res.BaselineBps != w0.BaselineBps ||
		res.MinBps != w0.MinBps || res.RecoveryNs != w0.RecoveryNs {
		t.Fatalf("top-level fields diverge from first window: %+v vs %+v", res, w0)
	}
	// The first disruption is undone at 20ms, so its recovery must
	// land shortly after that restore and, in any case, before the
	// second disruption bounds the window at 40ms.
	if w0.RecoveryNs < 4_000_000 || w0.RecoveryNs > 25_000_000 {
		t.Fatalf("first window recovery %.1fms, want ~5ms (restore at +5ms)",
			float64(w0.RecoveryNs)/1e6)
	}
}

func TestCloseSpacedDisruptionBaselineIsClipped(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	// Second disruption 5ms after the first (within the 10ms baseline
	// horizon) while the first is still in force: its baseline must be
	// measured on the already-depressed throughput, not on healthy
	// pre-15ms bins whose floor would mask the second dip.
	s := Scenario{
		TopoSpec: "dc",
		Scheme:   SchemeECMP,
		Seed:     2,
		Workload: Workload{Kind: WorkloadCBR, EndNs: 40_000_000},
		Events: []Event{
			{Kind: Degrade, AtNs: 15_000_000, Link: "l0-s0", Scale: 0.05},
			{Kind: Degrade, AtNs: 15_000_000, Link: "l0-s1", Scale: 0.05},
			{Kind: Degrade, AtNs: 20_000_000, Link: "l1-s0", Scale: 0.05},
			{Kind: Degrade, AtNs: 20_000_000, Link: "l1-s1", Scale: 0.05},
		},
	}
	res, err := Run(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Recoveries) != 2 {
		t.Fatalf("got %d windows, want 2: %+v", len(res.Recoveries), res.Recoveries)
	}
	w0, w1 := res.Recoveries[0], res.Recoveries[1]
	if w0.BaselineBps <= 0 || w1.BaselineBps <= 0 {
		t.Fatalf("missing baselines: %+v", res.Recoveries)
	}
	if w1.BaselineBps >= 0.95*w0.BaselineBps {
		t.Fatalf("second window baseline %.2f Gbps not clipped to the depressed regime (first baseline %.2f)",
			w1.BaselineBps/1e9, w0.BaselineBps/1e9)
	}
}

func TestDegradeEventDepressesThroughput(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	s := Scenario{
		TopoSpec: "dc",
		Scheme:   SchemeECMP, // static hashing keeps traffic on the slow link
		Seed:     2,
		Workload: Workload{Kind: WorkloadCBR, EndNs: 30_000_000},
		// Choke both of leaf 0's uplinks so its share of the CBR load
		// cannot fit whatever the hashing does.
		Events: []Event{
			{Kind: Degrade, AtNs: 15_000_000, Link: "l0-s0", Scale: 0.05},
			{Kind: Degrade, AtNs: 15_000_000, Link: "l0-s1", Scale: 0.05},
		},
	}
	res, err := Run(s)
	if err != nil {
		t.Fatal(err)
	}
	if res.BaselineBps <= 0 {
		t.Fatal("no baseline throughput")
	}
	if res.MinBps > 0.95*res.BaselineBps {
		t.Fatalf("degradation invisible: min %.2f of baseline %.2f Gbps",
			res.MinBps/1e9, res.BaselineBps/1e9)
	}
	if res.FailAtNs != 15_000_000 {
		t.Fatalf("FailAtNs = %d, want the degrade time", res.FailAtNs)
	}
}

func TestSurgeAddsTraffic(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	base := fastFCT(SchemeECMP)
	plain, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	surged := base
	surged.Events = []Event{{Kind: Surge, AtNs: 4_000_000, Load: 0.4, DurationNs: 3_000_000}}
	got, err := Run(surged)
	if err != nil {
		t.Fatal(err)
	}
	if got.Flows <= plain.Flows {
		t.Fatalf("surge added no flows: %d vs %d", got.Flows, plain.Flows)
	}
	if got.Completed < int64(got.Flows)*9/10 {
		t.Fatalf("surge run completed only %d/%d", got.Completed, got.Flows)
	}
}

func TestPreFailAsymmetricTopology(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	// A link_down at t<=0 must reach the topology before deploy, so
	// even schemes with offline path computation route around it.
	for _, scheme := range []Scheme{SchemeSP, SchemeECMP} {
		s := fastFCT(scheme)
		s.Events = []Event{{Kind: LinkDown, AtNs: 0, Link: "l0-s0"}}
		res, err := Run(s)
		if err != nil {
			t.Fatal(err)
		}
		if res.Completed != int64(res.Flows) {
			t.Fatalf("%s: completed %d/%d across the pre-failed fabric", scheme, res.Completed, res.Flows)
		}
		if res.LinkDownDrops > 0 {
			t.Fatalf("%s: %v packets hit the pre-failed link", scheme, res.LinkDownDrops)
		}
	}
}

// TestValidateAllocatesNothing: Validate checks workload.dist by name
// without building the distribution, so a valid fct cell validates
// without allocating.
func TestValidateAllocatesNothing(t *testing.T) {
	s := Scenario{TopoSpec: "dc", Scheme: SchemeContra, Workload: Workload{Kind: WorkloadFCT, Dist: "websearch", Load: 0.3}}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() { _ = s.Validate() }); n != 0 {
		t.Errorf("Validate allocates %v times, want 0", n)
	}
}

// TestValidateRefusesPairsNamingASwitch: a fixed pair names hosts. A
// switch named as an endpoint would be a destination that originates
// no probes (on the dc topology, a spine no host attaches to), so
// Validate refuses it at expansion instead of letting a cell run.
func TestValidateRefusesPairsNamingASwitch(t *testing.T) {
	for _, tc := range []struct {
		pair [2]string
		want string
	}{
		{[2]string{"h0_0", "h3_1"}, ""},
		{[2]string{"h0_0", "s0"}, `node "s0" is a switch; flows connect hosts, and only a switch a host attaches to originates probes`},
		{[2]string{"l1", "h0_0"}, `node "l1" is a switch`},
		{[2]string{"h0_0", "nope"}, `no node "nope" in topo`},
	} {
		s := Scenario{Name: "pairs", TopoSpec: "dc", Scheme: SchemeContra,
			Workload: Workload{Load: 0.3, Pairs: [][2]string{tc.pair}}}
		err := s.Validate()
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%v: %v", tc.pair, err)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("%v: Validate() = %v, want an error containing %q", tc.pair, err, tc.want)
		}
	}
}

// TestTrackLoopsRefusesUncoveredSwitchIDs: loop accounting counts
// revisits only at switch ids below sim.TrackVisitedLimit, so
// track_loops on a topology with a switch past it fails Validate with an
// error naming the limit instead of silently undercounting; the
// topologies the loop experiments run on stay below it.
func TestTrackLoopsRefusesUncoveredSwitchIDs(t *testing.T) {
	for _, tc := range []struct {
		spec    string
		refused bool
	}{
		{"dc", false},
		{"abilene+hosts", false},
		{"fattree:4:2", false},
		{"fattree:8:2", true},
	} {
		s := Scenario{TopoSpec: tc.spec, Scheme: SchemeContra, Workload: Workload{Load: 0.3}, Observe: Observe{TrackLoops: true}}
		err := s.Validate()
		if (err != nil) != tc.refused {
			t.Errorf("%s with track_loops: Validate() = %v, want refused %v", tc.spec, err, tc.refused)
		}
		if err != nil && !strings.Contains(err.Error(), "below 64") {
			t.Errorf("%s: error %q does not name the limit", tc.spec, err)
		}
		s.TrackLoops = false
		if err := s.Validate(); err != nil {
			t.Errorf("%s without track_loops: %v", tc.spec, err)
		}
	}
}
