package campaign

import (
	"runtime"
	"strings"
	"testing"
	"time"

	"contra/internal/scenario"
)

// slowSpec is a single cell of millions of events, so that a budget of
// a few thousand runs out in its warm-up.
func slowSpec() *Spec {
	return &Spec{
		Name:    "slow",
		Topos:   []string{"fattree:4:2"},
		Schemes: []scenario.Scheme{scenario.SchemeContra},
		Loads:   []float64{0.5},
		Workload: scenario.Workload{
			Dist: "websearch", DurationNs: 20_000_000, MaxFlows: 4000,
		},
		Policy: "minimize(path.util)",
	}
}

// TestCellBudgetRecordsFailureInsteadOfHanging: a cell past its event
// budget is a failed outcome naming the budget, with no result and a
// partial CSV row, and it stops: no goroutine outlives the campaign.
// Its error is the same on every run.
func TestCellBudgetRecordsFailureInsteadOfHanging(t *testing.T) {
	spec := slowSpec()
	spec.CellBudgetEvents = 5000
	start := runtime.NumGoroutine()
	report, err := Run(spec, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Stream has waited for its workers; give the last one the moment
	// it needs to return after its Done, up to 2 s.
	for wait := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > start && time.Now().Before(wait); {
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n != start {
		t.Errorf("%d goroutines after the campaign, %d before", n, start)
	}
	if len(report.Outcomes) != 1 {
		t.Fatalf("%d outcomes, want 1", len(report.Outcomes))
	}
	o := report.Outcomes[0]
	if !strings.HasPrefix(o.Err, scenario.ErrCellBudget+": ") {
		t.Fatalf("outcome error %q, want %q prefix", o.Err, scenario.ErrCellBudget)
	}
	for _, part := range []string{"its 5000 events", " ns simulated", "probes {New:"} {
		if !strings.Contains(o.Err, part) {
			t.Errorf("outcome error %q does not name %q", o.Err, part)
		}
	}
	if o.Result != nil {
		t.Fatal("a cell over its budget carries a result")
	}
	if report.Failed() != 1 {
		t.Fatalf("Failed() = %d, want 1", report.Failed())
	}
	// The failed cell still renders as a partial CSV row whose error
	// column names the budget — graceful degradation, not a lost row.
	var csv strings.Builder
	if err := report.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(csv.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("CSV has %d lines, want header + 1 row", len(lines))
	}
	if !strings.Contains(lines[1], scenario.ErrCellBudget) {
		t.Fatalf("CSV row %q lacks the budget reason", lines[1])
	}
	again, err := Run(spec, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if got := again.Outcomes[0].Err; got != o.Err {
		t.Fatalf("a second run failed with\n%s\nthe first with\n%s", got, o.Err)
	}
}

func TestGenerousCellBudgetIsInvisible(t *testing.T) {
	spec := &Spec{
		Name:    "quick",
		Topos:   []string{"dc"},
		Schemes: []scenario.Scheme{scenario.SchemeECMP},
		Loads:   []float64{0.2},
		Workload: scenario.Workload{
			Dist: "cache", DurationNs: 1_000_000, MaxFlows: 50,
		},
	}
	ref, err := Run(spec, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	spec.CellBudgetEvents = 1 << 40
	budgeted, err := Run(spec, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	var a, b strings.Builder
	if err := ref.WriteJSON(&a); err != nil {
		t.Fatal(err)
	}
	if err := budgeted.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatal("a generous cell budget perturbed campaign output")
	}
}

func TestSpecCellBudgetValidation(t *testing.T) {
	if _, err := Parse([]byte(`{"name":"x","topos":["dc"],"schemes":["ecmp"],"loads":[0.2],"cell_budget_events":-5}`)); err == nil {
		t.Fatal("negative cell_budget_events accepted")
	}
	spec, err := Parse([]byte(`{"name":"x","topos":["dc"],"schemes":["ecmp"],"loads":[0.2],"cell_budget_events":2000000}`))
	if err != nil {
		t.Fatal(err)
	}
	with, err := spec.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if with[0].BudgetEvents != 2_000_000 {
		t.Fatalf("the expanded cell's BudgetEvents = %d, want 2000000", with[0].BudgetEvents)
	}
	// The knob is an execution knob: it must not shift scenario keys
	// (checkpoints and golden digests key on them).
	spec.CellBudgetEvents = 0
	without, err := spec.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if with[0].Key() != without[0].Key() {
		t.Fatal("cell_budget_events leaked into scenario keys")
	}
}
