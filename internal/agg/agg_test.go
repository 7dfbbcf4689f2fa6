package agg

import (
	"bytes"
	"encoding/csv"
	"math"
	"strconv"
	"strings"
	"testing"

	"contra/internal/campaign"
	"contra/internal/scenario"
)

// outcomesFixture builds a synthetic 2-scheme × 2-load × 3-seed matrix
// with known FCT values so the aggregate columns can be checked
// exactly.
func outcomesFixture() []campaign.Outcome {
	var out []campaign.Outcome
	for _, scheme := range []scenario.Scheme{scenario.SchemeECMP, scenario.SchemeContra} {
		for _, load := range []float64{0.2, 0.6} {
			for seed := int64(1); seed <= 3; seed++ {
				// p99 in seconds: deterministic function of the cell
				// and seed, spread 1ms per seed.
				p99 := load/10 + float64(seed)*0.001
				res := &scenario.Result{
					Topo: "dc", Scheme: scheme, Script: "steady",
					Load: load, Seed: seed,
					Flows: 100, Completed: 100,
					MeanFCT: p99 / 4, P50FCT: p99 / 8, P95FCT: p99 / 2, P99FCT: p99,
					FabricBytes: 1e9, ProbeBytes: 1e7,
				}
				out = append(out, campaign.Outcome{
					Scenario: scenario.Scenario{TopoSpec: "dc", Scheme: scheme, Script: "steady",
						Workload: scenario.Workload{Load: load}, Seed: seed},
					Result: res,
				})
			}
		}
	}
	return out
}

func parseCSV(t *testing.T, s string) (header []string, rows [][]string) {
	t.Helper()
	recs, err := csv.NewReader(strings.NewReader(s)).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	return recs[0], recs[1:]
}

func col(t *testing.T, header []string, name string) int {
	t.Helper()
	for i, h := range header {
		if h == name {
			return i
		}
	}
	t.Fatalf("no column %q in %v", name, header)
	return -1
}

func TestAggregateCollapsesSeeds(t *testing.T) {
	tab := FromOutcomes(outcomesFixture())
	if len(tab.Groups) != 4 {
		t.Fatalf("got %d groups, want 4 (2 schemes × 2 loads)", len(tab.Groups))
	}
	var buf bytes.Buffer
	if err := tab.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	header, rows := parseCSV(t, buf.String())
	if len(rows) != 4 {
		t.Fatalf("got %d rows", len(rows))
	}
	seeds := col(t, header, "seeds")
	meanIdx := col(t, header, "p99_fct_ms_mean")
	sdIdx := col(t, header, "p99_fct_ms_stddev")
	minIdx := col(t, header, "p99_fct_ms_min")
	maxIdx := col(t, header, "p99_fct_ms_max")
	schemeIdx := col(t, header, "scheme")
	loadIdx := col(t, header, "load")
	for _, row := range rows {
		if row[seeds] != "3" {
			t.Fatalf("seeds = %s, want 3: %v", row[seeds], row)
		}
		load, _ := strconv.ParseFloat(row[loadIdx], 64)
		// Seeds contribute p99 = load/10 + {1,2,3}ms: mean at seed 2,
		// min at 1, max at 3, stddev exactly 1ms.
		wantMean := (load/10 + 0.002) * 1e3
		gotMean, _ := strconv.ParseFloat(row[meanIdx], 64)
		if math.Abs(gotMean-wantMean) > 1e-9*wantMean {
			t.Errorf("%s load %s: p99 mean %v, want %v", row[schemeIdx], row[loadIdx], gotMean, wantMean)
		}
		gotSD, _ := strconv.ParseFloat(row[sdIdx], 64)
		if math.Abs(gotSD-1) > 1e-6 {
			t.Errorf("p99 stddev %v, want 1ms", gotSD)
		}
		gotMin, _ := strconv.ParseFloat(row[minIdx], 64)
		gotMax, _ := strconv.ParseFloat(row[maxIdx], 64)
		if math.Abs(gotMax-gotMin-2) > 1e-6 {
			t.Errorf("p99 min/max spread %v..%v, want 2ms apart", gotMin, gotMax)
		}
	}
	// Deterministic group order: sorted by topo, script, load, scheme.
	var buf2 bytes.Buffer
	if err := FromOutcomes(outcomesFixture()).WriteCSV(&buf2); err != nil {
		t.Fatal(err)
	}
	if buf.String() != buf2.String() {
		t.Fatal("aggregation is not deterministic")
	}
	if rows[0][schemeIdx] != "contra" || rows[1][schemeIdx] != "ecmp" {
		t.Fatalf("rows not sorted by scheme within load: %v", rows)
	}
}

// TestFCTCurveColumns: the FCT-versus-load curve is the aggregate's
// *_fct_ms columns, one row per load in load order.
func TestFCTCurveColumns(t *testing.T) {
	var buf bytes.Buffer
	if err := FromOutcomes(outcomesFixture()).WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	header, rows := parseCSV(t, buf.String())
	if len(rows) != 4 {
		t.Fatalf("got %d curve rows, want 4", len(rows))
	}
	loadIdx := col(t, header, "load")
	if rows[0][loadIdx] != "0.2" || rows[2][loadIdx] != "0.6" {
		t.Fatalf("curve rows not ordered by load: %v", rows)
	}
	// The contra cell at load 0.2: p99 is 21, 22 and 23 ms over seeds
	// 1-3, and every other quantile a fixed fraction of it.
	for name, want := range map[string]string{
		"mean_fct_ms_mean": "5.5", "mean_fct_ms_stddev": "0.25",
		"p50_fct_ms_mean": "2.75", "p50_fct_ms_stddev": "0.125",
		"p95_fct_ms_mean": "11", "p95_fct_ms_stddev": "0.5",
		"p99_fct_ms_mean": "22", "p99_fct_ms_stddev": "1",
	} {
		if got := rows[0][col(t, header, name)]; got != want {
			t.Errorf("%s = %q, want %q", name, got, want)
		}
	}
}

func TestRecoveryCurveUsesPerEventWindows(t *testing.T) {
	mk := func(seed int64, recMs ...float64) campaign.Outcome {
		res := &scenario.Result{
			Topo: "dc", Scheme: scenario.SchemeContra, Script: "linkfail",
			Load: 0.4, Seed: seed, BaselineBps: 4e9, MinBps: 2e9,
		}
		for i, ms := range recMs {
			res.Recoveries = append(res.Recoveries, scenario.RecoveryWindow{
				Kind: scenario.LinkDown, AtNs: int64(i+1) * 1_000_000,
				BaselineBps: 4e9, MinBps: 2e9, RecoveryNs: int64(ms * 1e6),
			})
		}
		if len(recMs) > 0 {
			res.RecoveryNs = int64(recMs[0] * 1e6)
		}
		return campaign.Outcome{Result: res}
	}
	// Two seeds, two disruptions each: four observations in one cell.
	tab := FromOutcomes([]campaign.Outcome{mk(1, 2, 4), mk(2, 6, 8)})
	var buf bytes.Buffer
	if err := tab.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	header, rows := parseCSV(t, buf.String())
	if len(rows) != 1 {
		t.Fatalf("got %d rows, want 1", len(rows))
	}
	get := func(name string) string { return rows[0][col(t, header, name)] }
	if m := get("recovery_ms_mean"); m != "5" {
		t.Errorf("recovery mean %s, want 5 (per-event windows, not first-event only)", m)
	}
	if get("recovery_ms_min") != "2" || get("recovery_ms_max") != "8" {
		t.Errorf("recovery min/max = %s/%s, want 2/8", get("recovery_ms_min"), get("recovery_ms_max"))
	}
	if sd, want := get("recovery_ms_stddev"), cell(math.Sqrt(20.0/3)); sd != want {
		t.Errorf("recovery stddev %s, want %s", sd, want)
	}
	if get("baseline_gbps_mean") != "4" || get("min_gbps_mean") != "2" {
		t.Errorf("throughput context %s/%s Gbps, want 4/2", get("baseline_gbps_mean"), get("min_gbps_mean"))
	}
	// A steady-state cell leaves its recovery and throughput columns
	// blank.
	buf.Reset()
	if err := FromOutcomes(outcomesFixture()).WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	header, rows = parseCSV(t, buf.String())
	for _, row := range rows {
		for _, name := range []string{"recovery_ms_mean", "recovery_ms_max", "baseline_gbps_mean", "min_gbps_mean"} {
			if v := row[col(t, header, name)]; v != "" {
				t.Errorf("steady cell %v: %s = %q, want blank", row[:4], name, v)
			}
		}
	}
}

func TestFailedOutcomesAreCountedNotAggregated(t *testing.T) {
	outs := outcomesFixture()
	outs = append(outs, campaign.Outcome{
		Scenario: scenario.Scenario{TopoSpec: "dc", Scheme: scenario.SchemeECMP, Script: "steady",
			Workload: scenario.Workload{Load: 0.2}, Seed: 9},
		Err: "boom",
	})
	tab := FromOutcomes(outs)
	for _, g := range tab.Groups {
		if g.Scheme == scenario.SchemeECMP && g.Load == 0.2 {
			if g.Failed != 1 || g.Seeds != 3 {
				t.Fatalf("failed=%d seeds=%d, want 1/3", g.Failed, g.Seeds)
			}
			return
		}
	}
	t.Fatal("cell not found")
}
