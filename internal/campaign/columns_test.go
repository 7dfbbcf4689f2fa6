package campaign

import (
	"bytes"
	"encoding/csv"
	"fmt"
	"slices"
	"testing"

	"contra/internal/chaos"
	"contra/internal/scenario"
)

// columnFixtures are synthetic results that switch every applies-rule
// of the column table on and off.
func columnFixtures() map[string]*scenario.Result {
	classes := func(mice, eleph int64) *scenario.ClassStats {
		return &scenario.ClassStats{
			Mice:      scenario.ClassFCT{Flows: mice, P99Ms: 0.25},
			Elephants: scenario.ClassFCT{Flows: eleph, P99Ms: 7.5},
			Jain:      0.875,
		}
	}
	return map[string]*scenario.Result{
		"bare": {},
		"steady fct": {
			Flows: 50, Completed: 50,
			MeanFCT: 0.0011, P50FCT: 0.0007, P95FCT: 0.0042, P99FCT: 0.0098,
			FabricBytes: 4e6, ProbeBytes: 1e5, QueueDrops: 3, LoopedFrac: 0.0125,
		},
		"zero completions": {Flows: 50, MeanFCT: 0.5, QueueDrops: 1234567},
		"classes on":       {Flows: 9, Completed: 9, P99FCT: 0.002, Classes: classes(6, 3)},
		"classes on, no elephant completed": {
			Flows: 9, Completed: 6, P99FCT: 0.002, Classes: classes(6, 0),
		},
		"loss armed":                    {ProbeLossSeen: 400, ProbeLossDropped: 100, ProbeLossFrac: 0.25},
		"loss armed, none hit":          {ProbeLossSeen: 400},
		"aggregation on, nothing saved": {ProbeAggOn: true},
		"aggregation on":                {ProbeAggOn: true, ProbeTxSaved: 812, ProbeSuppressed: 1e6},
		"telemetry on":                  {MetricsOn: true, MetricsSamples: 1234567},
		"one recovery": {
			BaselineBps: 4.275e9, MinBps: 2.137e9, RecoveryNs: 1_000_000, LinkDownDrops: 17,
			Recoveries: []scenario.RecoveryWindow{{RecoveryNs: 1_000_000}},
		},
		"three disruptions, one unrecovered": {
			BaselineBps: 4e9, MinBps: 1e9, RecoveryNs: 2_500_000, NodeDownDrops: 40,
			Recoveries: []scenario.RecoveryWindow{{RecoveryNs: 2_500_000}, {RecoveryNs: -1}, {RecoveryNs: 750_000}},
		},
		"recovery from before windows existed": {BaselineBps: 4e9, MinBps: 1e9, RecoveryNs: 3_000_000},
		"two swaps converged": {
			Swaps: []chaos.SwapWindow{{ConvergenceNs: 300_000}, {ConvergenceNs: 1_200_000}},
		},
		"a swap never converged": {
			Swaps: []chaos.SwapWindow{{ConvergenceNs: 300_000}, {ConvergenceNs: -1}},
		},
	}
}

// TestColumnCellFollowsObservations is the table's one rule: a column
// with no declared cell override prints blank exactly when its
// extractor yields no observation, and otherwise the single observation
// in the column's format. The overrides are pinned by value below.
func TestColumnCellFollowsObservations(t *testing.T) {
	var overridden []string
	for i := range Columns {
		c := &Columns[i]
		if c.cell != nil {
			overridden = append(overridden, c.Name)
			continue
		}
		for name, r := range columnFixtures() {
			obs, got := c.Obs(r), c.Cell(r)
			switch len(obs) {
			case 0:
				if got != "" {
					t.Errorf("%s on %q: cell %q with no observation, want blank", c.Name, name, got)
				}
			case 1:
				if want := fmt.Sprintf(c.format, obs[0]); got != want || got == "" {
					t.Errorf("%s on %q: cell %q, want %q", c.Name, name, got, want)
				}
			default:
				t.Errorf("%s on %q: %d observations but no cell override says which to print", c.Name, name, len(obs))
			}
		}
	}
	want := []string{"mean_fct_ms", "p50_fct_ms", "p95_fct_ms", "p99_fct_ms",
		"baseline_gbps", "min_gbps", "recovery_ms", "swap_conv_ms"}
	if !slices.Equal(overridden, want) {
		t.Errorf("columns with a cell override: %v, want %v", overridden, want)
	}
}

// TestColumnOverridesAndApplies pins, per fixture, what the override
// columns print next to what they contribute to an aggregate, and the
// cells of the gated columns on both sides of their gate.
func TestColumnOverridesAndApplies(t *testing.T) {
	fix := columnFixtures()
	for _, tc := range []struct {
		fixture, column, cell string
		obs                   []float64
	}{
		{"zero completions", "mean_fct_ms", "500.000", nil},
		{"steady fct", "mean_fct_ms", "1.100", []float64{1.1}},
		{"steady fct", "p99_fct_ms", "9.800", []float64{9.8}},
		{"steady fct", "baseline_gbps", "0.000", nil},
		{"steady fct", "min_gbps", "0.000", nil},
		{"steady fct", "recovery_ms", "0.000", nil},
		{"steady fct", "swap_conv_ms", "", nil},
		{"one recovery", "baseline_gbps", "4.275", []float64{4.275}},
		{"one recovery", "min_gbps", "2.137", []float64{2.137}},
		{"one recovery", "recovery_ms", "1.000", []float64{1}},
		{"three disruptions, one unrecovered", "recovery_ms", "2.500", []float64{2.5, 0.75}},
		{"recovery from before windows existed", "recovery_ms", "3.000", []float64{3}},
		{"two swaps converged", "swap_conv_ms", "1.200", []float64{0.3, 1.2}},
		{"a swap never converged", "swap_conv_ms", "-1", []float64{0.3}},

		{"steady fct", "probe_frac", "0.02500", []float64{0.025}},
		{"steady fct", "looped_frac", "0.01250", []float64{0.0125}},
		{"zero completions", "queue_drops", "1.234567e+06", []float64{1234567}},
		{"classes on", "eleph_p99_ms", "7.500", []float64{7.5}},
		{"classes on, no elephant completed", "eleph_p99_ms", "", nil},
		{"classes on, no elephant completed", "mice_p99_ms", "0.250", []float64{0.25}},
		{"classes on, no elephant completed", "jain", "0.8750", []float64{0.875}},
		{"steady fct", "jain", "", nil},
		{"loss armed", "probe_loss_frac", "0.25000", []float64{0.25}},
		{"loss armed, none hit", "probe_loss_frac", "0.00000", []float64{0}},
		{"steady fct", "probe_loss_frac", "", nil},
		{"aggregation on, nothing saved", "probe_tx_saved", "0", []float64{0}},
		{"aggregation on", "probe_suppressed", "1e+06", []float64{1e6}},
		{"steady fct", "probe_tx_saved", "", nil},
		{"telemetry on", "metrics_samples", "1234567", []float64{1234567}},
		{"steady fct", "metrics_samples", "", nil},
	} {
		c, r := &Columns[Columns.Index(tc.column)], fix[tc.fixture]
		if got := c.Cell(r); got != tc.cell {
			t.Errorf("%s on %q: cell %q, want %q", tc.column, tc.fixture, got, tc.cell)
		}
		got := c.Obs(r)
		same := len(got) == len(tc.obs)
		for i := 0; same && i < len(got); i++ {
			same = got[i]-tc.obs[i] < 1e-12 && tc.obs[i]-got[i] < 1e-12
		}
		if !same {
			t.Errorf("%s on %q: observations %v, want %v", tc.column, tc.fixture, got, tc.obs)
		}
	}
}

// TestCSVHeaderOrder pins the per-scenario CSV header, which the golden
// digests cover, as a literal: identity columns, the table, error.
func TestCSVHeaderOrder(t *testing.T) {
	var buf bytes.Buffer
	if err := (&Report{}).WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	rows, err := csv.NewReader(&buf).ReadAll()
	if err != nil || len(rows) != 1 {
		t.Fatalf("empty report: %d rows, %v", len(rows), err)
	}
	want := []string{
		"name", "topo", "scheme", "script", "dist", "load", "seed",
		"flows", "completed", "mean_fct_ms", "p50_fct_ms", "p95_fct_ms", "p99_fct_ms",
		"probe_frac", "queue_drops", "linkdown_drops", "looped_frac",
		"baseline_gbps", "min_gbps", "recovery_ms",
		"nodedown_drops", "probe_loss_frac", "swap_conv_ms",
		"probe_tx_saved", "probe_suppressed", "metrics_samples",
		"mice_p99_ms", "eleph_p99_ms", "jain", "error",
	}
	if !slices.Equal(rows[0], want) {
		t.Errorf("CSV header\n got %v\nwant %v", rows[0], want)
	}
}
