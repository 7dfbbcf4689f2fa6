package campaign

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"

	"contra/internal/flowtrace"
	"contra/internal/scenario"
)

// matrixSpec is the acceptance-criteria matrix: 2 topologies × 3
// schemes × 2 loads × 2 event scripts × 1 seed = 24 scenarios, kept
// small enough to run in test time.
func matrixSpec() *Spec {
	return &Spec{
		Name:    "matrix",
		Topos:   []string{"dc", "fattree:4:1"},
		Schemes: []scenario.Scheme{scenario.SchemeECMP, scenario.SchemeContra, scenario.SchemeHula},
		Loads:   []float64{0.2, 0.4},
		Scripts: []Script{
			{Name: "steady"},
			{Name: "linkfail", Events: []scenario.Event{
				{Kind: scenario.LinkDown, AtNs: 5_000_000, Link: "auto"},
				{Kind: scenario.LinkUp, AtNs: 9_000_000, Link: "auto"},
			}},
		},
		Workload: scenario.Workload{
			Dist: "cache", DurationNs: 3_000_000, MaxFlows: 150,
		},
	}
}

func TestExpandMatrixCount(t *testing.T) {
	spec := matrixSpec()
	scens, err := spec.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(scens) != 24 || spec.Size() != 24 {
		t.Fatalf("expanded %d scenarios, Size()=%d, want 24", len(scens), spec.Size())
	}
	seen := map[string]bool{}
	for _, s := range scens {
		if seen[s.Name] {
			t.Fatalf("duplicate scenario name %q", s.Name)
		}
		seen[s.Name] = true
		if s.Workload.Load == 0 || s.TopoSpec == "" || s.Scheme == "" {
			t.Fatalf("incomplete scenario %+v", s)
		}
	}
	// Defaults: no scripts -> steady; no seeds -> seed 1.
	minimal := &Spec{Topos: []string{"dc"}, Schemes: []scenario.Scheme{scenario.SchemeECMP}, Loads: []float64{0.1}}
	scens, err = minimal.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(scens) != 1 || scens[0].Seed != 1 || scens[0].Script != "steady" {
		t.Fatalf("minimal expansion = %+v", scens)
	}
}

func TestExpandRejectsDuplicateAxisValues(t *testing.T) {
	// Duplicate axis values expand to identical canonical scenario
	// keys, which the sharded merge path can only detect after the
	// sweep has run — so expansion must fail upfront.
	dups := map[string]func(*Spec){
		"seed":   func(s *Spec) { s.Seeds = []int64{1, 1} },
		"load":   func(s *Spec) { s.Loads = []float64{0.2, 0.2} },
		"topo":   func(s *Spec) { s.Topos = []string{"dc", "dc"} },
		"scheme": func(s *Spec) { s.Schemes = append(s.Schemes, s.Schemes[0]) },
	}
	for axis, mut := range dups {
		spec := matrixSpec()
		mut(spec)
		if _, err := spec.Expand(); err == nil {
			t.Errorf("Expand accepted a duplicate %s", axis)
		}
	}
}

func TestExpandRejectsBadCell(t *testing.T) {
	spec := matrixSpec()
	spec.Schemes = append(spec.Schemes, "ospf")
	if _, err := spec.Expand(); err == nil {
		t.Fatal("Expand accepted an unknown scheme")
	}
}

// TestBadWorkloadFailsExpansion: a load, window or cap the generators
// cannot draw from fails the whole campaign at expansion, naming the
// field, before any cell runs: it neither panics a worker nor runs a
// cohorts cell under a load it does not offer.
func TestBadWorkloadFailsExpansion(t *testing.T) {
	for _, tc := range []struct{ spec, want string }{
		{`{"name":"x","topos":["dc"],"schemes":["ecmp"],"loads":[-0.3],"seeds":[1]}`,
			"fct workload load -0.3 must be > 0"},
		{`{"name":"x","topos":["dc"],"schemes":["ecmp"],"loads":[0.3],"seeds":[1],"workload":{"duration_ns":-5}}`,
			"workload duration_ns -5 is negative"},
		{`{"name":"x","topos":["fattree:4:2"],"schemes":["ecmp"],"loads":[-0.5,1],"seeds":[1],` +
			`"workload":{"kind":"cohorts","cohorts":[{"name":"web","load":0.15}]}}`,
			"cohorts workload load -0.5 is negative"},
		{`{"name":"x","topos":["dc"],"schemes":["ecmp"],"loads":[0.3],"seeds":[1],"workload":{"max_flows":-1}}`,
			"workload max_flows -1 is negative"},
	} {
		spec, err := Parse([]byte(tc.spec))
		if err == nil {
			_, err = spec.Jobs()
		}
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want one naming %q", tc.spec, err, tc.want)
		}
	}
}

func TestParseRejectsUnknownField(t *testing.T) {
	if _, err := Parse([]byte(`{"topos":["dc"],"schemes":["ecmp"],"loads":[0.1],"workloads":{}}`)); err == nil {
		t.Fatal("Parse accepted a misspelled field")
	}
	if _, err := Parse([]byte(`{"topos":["dc"],"schemes":["ecmp"]}`)); err == nil {
		t.Fatal("Parse accepted an fct campaign without loads")
	}
}

func TestSerialAndParallelCampaignsAreByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	spec := matrixSpec()
	var dumps []string
	for _, workers := range []int{1, 8} {
		report, err := Run(spec, Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if report.Failed() > 0 {
			for _, o := range report.Outcomes {
				if o.Err != "" {
					t.Errorf("%s: %s", o.Scenario.Name, o.Err)
				}
			}
			t.Fatalf("%d scenarios failed with %d workers", report.Failed(), workers)
		}
		var j, c bytes.Buffer
		if err := report.WriteJSON(&j); err != nil {
			t.Fatal(err)
		}
		if err := report.WriteCSV(&c); err != nil {
			t.Fatal(err)
		}
		dumps = append(dumps, j.String()+"\n===\n"+c.String())
	}
	if dumps[0] != dumps[1] {
		t.Fatalf("worker count changed campaign output:\n--- workers=1\n%.2000s\n--- workers=8\n%.2000s", dumps[0], dumps[1])
	}
}

// TestCellsSharingATopologyAreByteIdenticalInParallel runs Contra cells
// that share one topology and policy, among them a cell that fails a
// link before its routers deploy and a cell that swaps its policy, on
// two workers and on one. Two workers share the process's graph and
// programs while both run; under -race this is the fence on that
// sharing. The two runs must write the same bytes.
func TestCellsSharingATopologyAreByteIdenticalInParallel(t *testing.T) {
	spec := &Spec{
		Name:    "shared",
		Topos:   []string{"dc"},
		Schemes: []scenario.Scheme{scenario.SchemeContra},
		Loads:   []float64{0.2, 0.4},
		Scripts: []Script{
			{Name: "steady"},
			{Name: "prefail", Events: []scenario.Event{{Kind: scenario.LinkDown, AtNs: 0, Link: "l0-s0"}}},
			{Name: "swap", Events: []scenario.Event{{Kind: scenario.PolicySwap, AtNs: 3_000_000, NewPolicy: "minimize(path.len)"}}},
		},
		Workload: scenario.Workload{Dist: "cache", DurationNs: 3_000_000, MaxFlows: 80},
	}
	var dumps []string
	for _, workers := range []int{2, 1} {
		report, err := Run(spec, Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		for _, o := range report.Outcomes {
			if o.Err != "" {
				t.Fatalf("%d workers: %s: %s", workers, o.Scenario.Name, o.Err)
			}
		}
		var j, c bytes.Buffer
		if err := report.WriteJSON(&j); err != nil {
			t.Fatal(err)
		}
		if err := report.WriteCSV(&c); err != nil {
			t.Fatal(err)
		}
		dumps = append(dumps, j.String()+"\n===\n"+c.String())
	}
	if dumps[0] != dumps[1] {
		t.Fatalf("cells sharing a topology wrote different bytes on two workers and on one:\n--- workers=2\n%.2000s\n--- workers=1\n%.2000s", dumps[0], dumps[1])
	}
}

func TestScenarioFailureIsRecordedNotFatal(t *testing.T) {
	spec := &Spec{
		Topos:   []string{"dc"},
		Schemes: []scenario.Scheme{scenario.SchemeECMP},
		Loads:   []float64{0.2},
		Scripts: []Script{{Name: "bad", Events: []scenario.Event{
			{Kind: scenario.LinkDown, AtNs: 1_000_000, Link: "no-such"},
		}}},
		Workload: scenario.Workload{Dist: "cache", DurationNs: 2_000_000, MaxFlows: 50},
	}
	report, err := Run(spec, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if report.Failed() != 1 {
		t.Fatalf("Failed() = %d, want 1", report.Failed())
	}
	if !strings.Contains(report.Outcomes[0].Err, "no-such") {
		t.Fatalf("error %q does not name the bad link", report.Outcomes[0].Err)
	}
}

// TestHulaOffClosFailsItsCellOnly: HULA on Abilene, which has no Clos
// switch roles, used to panic in Attach and kill the process; now that
// cell fails naming the topology, and the fat-tree cells beside it,
// run by two workers on each other's recycled packet slabs, complete.
func TestHulaOffClosFailsItsCellOnly(t *testing.T) {
	spec := &Spec{
		Topos:    []string{"fattree:4:2", "abilene+hosts"},
		Schemes:  []scenario.Scheme{scenario.SchemeHula, scenario.SchemeECMP},
		Loads:    []float64{0.3},
		Seeds:    []int64{1, 2},
		Workload: scenario.Workload{Dist: "cache", DurationNs: 2_000_000, MaxFlows: 40},
	}
	report, err := Run(spec, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range report.Outcomes {
		offClos := o.Scenario.Scheme == scenario.SchemeHula && o.Scenario.TopoSpec == "abilene+hosts"
		switch {
		case offClos && !strings.Contains(o.Err, `scheme "hula" on topology "abilene+hosts"`):
			t.Errorf("%s: error %q, want one naming HULA and abilene+hosts", o.Scenario.Name, o.Err)
		case !offClos && o.Err != "":
			t.Errorf("%s: %s", o.Scenario.Name, o.Err)
		case !offClos && o.Result.Completed == 0:
			t.Errorf("%s: no flow completed", o.Scenario.Name)
		}
	}
	if report.Failed() != 2 {
		t.Fatalf("Failed() = %d of %d cells, want the 2 HULA cells on Abilene", report.Failed(), len(report.Outcomes))
	}
}

// TestOversizedFlowFailsItsCellOnly: a replayed trace asking for a flow
// too large to simulate used to panic inside sim.StartFlows and take the
// whole campaign down; now the cell that replays it carries the error
// and its neighbour completes.
func TestOversizedFlowFailsItsCellOnly(t *testing.T) {
	dir := t.TempDir()
	spec := &Spec{
		Topos:    []string{"fattree:4:2"},
		Schemes:  []scenario.Scheme{scenario.SchemeECMP},
		Seeds:    []int64{1, 2},
		Workload: scenario.Workload{Kind: scenario.WorkloadTrace, TracePath: dir},
	}
	cells, err := spec.Expand()
	if err != nil {
		t.Fatal(err)
	}
	for i, bytes := range []int64{9e18, 20_000} {
		tr := &flowtrace.Trace{
			Meta:  flowtrace.Meta{Kind: flowtrace.KindFCT, Topo: "fattree:4:2", Seed: cells[i].Seed, DeadlineNs: 50_000_000},
			Flows: []flowtrace.Flow{{ID: 1, Src: "h0_0_0", Dst: "h3_1_1", Bytes: bytes, StartNs: 4_000_000}},
		}
		if err := tr.WriteFile(filepath.Join(dir, flowtrace.FileName(cells[i].Name))); err != nil {
			t.Fatal(err)
		}
	}
	report, err := Run(spec, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if got := report.Outcomes[0].Err; !strings.Contains(got, "line 2: flow 1: bytes 9000000000000000000 past") {
		t.Errorf("oversized cell: error %q does not name the flow and its line", got)
	}
	if o := report.Outcomes[1]; o.Err != "" || o.Result == nil || o.Result.Completed != 1 {
		t.Errorf("neighbouring cell did not complete: %+v", o)
	}
}

func TestComparisonTableGroupsSchemes(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	spec := matrixSpec()
	spec.Topos = spec.Topos[:1]
	spec.Schemes = spec.Schemes[:2]
	spec.Scripts = spec.Scripts[:1]
	report, err := Run(spec, Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	header, rows := report.ComparisonTable(spec.Schemes)
	// 4 key columns + 5 per scheme (mean, p95, p99, drops, jain).
	if len(header) != 4+5*len(spec.Schemes) {
		t.Fatalf("header = %v", header)
	}
	// One row per (topo, load, script, seed) group: 1*2*1*1.
	if len(rows) != 2 {
		t.Fatalf("rows = %d, want 2: %v", len(rows), rows)
	}
	for _, r := range rows {
		if len(r) != len(header) {
			t.Fatalf("row has %d cells under %d headers: %v", len(r), len(header), r)
		}
		for i, cell := range r {
			if cell == "-" {
				t.Fatalf("missing scheme cell %d in row %v", i, r)
			}
		}
	}
}
