package scenario

import (
	"math"
	"testing"

	"contra/internal/core"
)

// TestSuppressionFCTMatchesUnsuppressed is the workload half of the
// suppression-correctness property: with epsilon 0, delta suppression
// may only skip re-advertisements that change nothing, so a steady
// fixed-seed FCT run must complete the same flows with an
// indistinguishable FCT distribution. Exact byte equality is not
// required — fewer probe frames on the wire shift queueing by
// nanoseconds — but the distribution must agree tightly. The property
// is stated over a steady script: suppression deliberately stretches
// the failure-detection horizons by the forced-refresh bound, so
// disruption scripts legitimately react on a different clock (chaos
// convergence under the knobs is covered separately below).
func TestSuppressionFCTMatchesUnsuppressed(t *testing.T) {
	base := Scenario{
		Name:     "suppress-equiv",
		TopoSpec: "fattree:4:2",
		Scheme:   SchemeContra,
		Seed:     3,
		Workload: Workload{Load: 0.3, DurationNs: 3_000_000, DrainNs: 100_000_000, MaxFlows: 200},
	}
	plain, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	sup := base
	sup.SuppressEps = 0
	sup.RefreshEvery = 4
	got, err := Run(sup)
	if err != nil {
		t.Fatal(err)
	}
	if got.Completed != plain.Completed || got.Flows != plain.Flows {
		t.Fatalf("completion diverged: suppressed %d/%d vs plain %d/%d",
			got.Completed, got.Flows, plain.Completed, plain.Flows)
	}
	within := func(name string, a, b, tol float64) {
		if b == 0 && a == 0 {
			return
		}
		if d := math.Abs(a-b) / math.Max(a, b); d > tol {
			t.Errorf("%s diverged by %.1f%%: suppressed %g vs plain %g", name, 100*d, a, b)
		}
	}
	within("mean FCT", got.MeanFCT, plain.MeanFCT, 0.10)
	within("p99 FCT", got.P99FCT, plain.P99FCT, 0.15)
}

// TestPackedCampaignKnobsConverge drives packing+suppression through
// the declarative layer with a whole-switch failure and reboot: the
// run must stay lossless at the flow level (everything completes after
// the fabric re-converges) and must report aggregation savings.
func TestPackedCampaignKnobsConverge(t *testing.T) {
	s := Scenario{
		Name:     "packed-chaos",
		TopoSpec: "fattree:4:2",
		Scheme:   SchemeContra,
		Seed:     1,
		Options:  core.Options{ProbePacking: true, SuppressEps: 0.02, RefreshEvery: 4},
		Workload: Workload{Load: 0.3, DurationNs: 8_000_000, MaxFlows: 300},
		Events: []Event{
			{Kind: SwitchDown, AtNs: 5_000_000, Node: "auto"},
			{Kind: SwitchUp, AtNs: 9_000_000, Node: "auto"},
		},
	}
	res, err := Run(s)
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != int64(res.Flows) {
		t.Fatalf("only %d/%d flows completed under packed chaos", res.Completed, res.Flows)
	}
	if res.ProbeTxSaved <= 0 {
		t.Errorf("probe_tx_saved = %g, want > 0", res.ProbeTxSaved)
	}
	if res.ProbeSuppressed <= 0 {
		t.Errorf("probe_suppressed = %g, want > 0", res.ProbeSuppressed)
	}
	if res.ProbeFrac() > 0.05 {
		t.Errorf("probe share %.2f%% with packing+suppression on, want well under 5%%", 100*res.ProbeFrac())
	}
}
