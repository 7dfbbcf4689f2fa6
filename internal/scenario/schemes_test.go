package scenario

import (
	"strings"
	"testing"

	"contra/internal/topo"
)

// The behaviour checks of the retired figure harness (package exp),
// asked of Run directly: every scheme completes its flows on the
// paper's fabrics, probe overhead and failover recovery stay in the
// paper's range, and the load reference is the one §6 normalizes by.

func fct(topoSpec string, scheme Scheme, dist string, load float64, durationNs int64, maxFlows int, seed int64) Scenario {
	return Scenario{
		TopoSpec: topoSpec, Scheme: scheme, Seed: seed,
		Workload: Workload{Dist: dist, Load: load, DurationNs: durationNs, MaxFlows: maxFlows},
	}
}

func TestRunFCTAllSchemesOnDataCenter(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	for _, scheme := range []Scheme{SchemeContra, SchemeECMP, SchemeHula} {
		res, err := Run(fct("dc", scheme, "cache", 0.3, 5_000_000, 300, 1))
		if err != nil {
			t.Fatalf("%s: %v", scheme, err)
		}
		if res.Completed < int64(res.Flows)*95/100 {
			t.Errorf("%s: only %d/%d flows completed", scheme, res.Completed, res.Flows)
		}
		if res.MeanFCT <= 0 {
			t.Errorf("%s: zero FCT", scheme)
		}
		t.Logf("%s: mean FCT %.3f ms, %d/%d done", scheme, res.MeanFCT*1e3, res.Completed, res.Flows)
	}
}

func TestRunFCTWANSchemes(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	for _, scheme := range []Scheme{SchemeContra, SchemeSP, SchemeSpain} {
		s := fct("abilene+hosts", scheme, "cache", 0.3, 5_000_000, 200, 2)
		s.Workload.CapacityBps = 40e9
		res, err := Run(s)
		if err != nil {
			t.Fatalf("%s: %v", scheme, err)
		}
		if res.Completed < int64(res.Flows)*9/10 {
			t.Errorf("%s: only %d/%d flows completed", scheme, res.Completed, res.Flows)
		}
	}
}

func TestRunFCTWithPairs(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	// §6.4's setup: the paper specs' Abilene file (delays scaled by
	// 0.002), traffic between fixed host pairs named in the spec.
	s := fct("@../../examples/paper/abilene_x0.002.topo", SchemeContra, "cache", 0.3, 4_000_000, 200, 5)
	s.Workload.CapacityBps = 40e9
	s.Workload.Pairs = [][2]string{{"H_SEA", "H_NYC"}, {"H_LA", "H_CHI"}}
	res, err := Run(s)
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed < int64(res.Flows)*9/10 {
		t.Fatalf("completed %d/%d", res.Completed, res.Flows)
	}
}

func TestRunFCTDrainBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	// A tiny drain budget cuts the run short; Run must still return
	// statistics for the flows that finished.
	s := fct("dc", SchemeECMP, "websearch", 0.5, 4_000_000, 300, 6)
	s.Workload.DrainNs = 10_000_000
	res, err := Run(s)
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed == 0 {
		t.Fatal("no flows completed within the drain budget")
	}
	if res.SimulatedNs <= 0 {
		t.Fatal("no simulated time recorded")
	}
}

func TestContraProbeOverheadSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	res, err := Run(fct("dc", SchemeContra, "websearch", 0.4, 10_000_000, 500, 3))
	if err != nil {
		t.Fatal(err)
	}
	// §6.5: Contra's overhead over ECMP is ~0.8%; probes should be a
	// small share of fabric bytes.
	if frac := res.ProbeFrac(); frac > 0.05 {
		t.Fatalf("probe fraction = %.3f, want < 0.05", frac)
	}
	if res.ProbeBytes == 0 {
		t.Fatal("no probe traffic recorded")
	}
}

// failover is the Figure 14 run: CBR traffic with the first
// edge-fabric link failing mid-run.
func failover(policy string, failAtNs, endNs, seed int64) Scenario {
	return Scenario{
		TopoSpec: "dc", Scheme: SchemeContra, Policy: policy, Seed: seed,
		Workload: Workload{Kind: WorkloadCBR, EndNs: endNs},
		Events:   []Event{{Kind: LinkDown, AtNs: failAtNs, Link: "auto"}},
	}
}

func TestRunFailoverContra(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	res, err := Run(failover("", 20_000_000, 40_000_000, 4))
	if err != nil {
		t.Fatal(err)
	}
	if res.BaselineBps < 1e9 {
		t.Fatalf("baseline throughput %.2g bps too low", res.BaselineBps)
	}
	if res.RecoveryNs < 0 {
		t.Fatal("throughput never recovered after failure")
	}
	// Paper: recovery within ~1ms of detection (3 probe periods
	// ~768us); allow a few ms of slack for binning.
	if res.RecoveryNs > 10_000_000 {
		t.Fatalf("recovery took %dms, want < 10ms", res.RecoveryNs/1_000_000)
	}
}

func TestFailoverBaselineSanity(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	res, err := Run(failover("minimize((path.len, path.util))", 15_000_000, 30_000_000, 2))
	if err != nil {
		t.Fatal(err)
	}
	// The snapped CBR rate should land near the requested 4.25 Gbps.
	if res.BaselineBps < 3.8e9 || res.BaselineBps > 4.7e9 {
		t.Fatalf("baseline %.2f Gbps not near 4.25", res.BaselineBps/1e9)
	}
	// The failure must actually be visible: flows cross the fabric.
	if res.MinBps > 0.9*res.BaselineBps {
		t.Fatalf("failure invisible: dip only to %.2f of baseline", res.MinBps/res.BaselineBps)
	}
	if res.RecoveryNs <= 0 || res.RecoveryNs > 5_000_000 {
		t.Fatalf("recovery = %.2fms, want (0, 5ms]", float64(res.RecoveryNs)/1e6)
	}
}

func TestFabricCapacity(t *testing.T) {
	// 4 leaves x 2 spines x 10G = 80G of leaf uplinks.
	if got := FabricCapacity(topo.PaperDataCenter()); got != 80e9 {
		t.Fatalf("capacity = %g, want 80e9", got)
	}
	if got := FabricCapacity(topo.AbileneWithHosts(0)); got != 40e9 {
		t.Fatalf("abilene reference = %g, want one 40G link", got)
	}
}

// TestHulaNeedsClosRoles: HULA on a topology without Clos switch roles
// fails its cell with an error naming the scheme and the topology
// instead of panicking in Attach; the Clos topologies still run.
func TestHulaNeedsClosRoles(t *testing.T) {
	for _, tc := range []struct {
		topo string
		ok   bool
	}{
		{"abilene+hosts", false},
		{"random:12:2", false},
		{"fattree:4:2", true},
		{"leafspine:4:2:4", true},
	} {
		t.Run(tc.topo, func(t *testing.T) {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("panic: %v", r)
				}
			}()
			res, err := Run(fct(tc.topo, SchemeHula, "cache", 0.2, 2_000_000, 40, 1))
			if tc.ok {
				if err != nil || res.Completed == 0 {
					t.Fatalf("HULA on %s: %v", tc.topo, err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), `scheme "hula" on topology "`+tc.topo+`"`) ||
				!strings.Contains(err.Error(), "switch roles") {
				t.Fatalf("HULA on %s: error %v, want one naming the scheme, the topology and switch roles", tc.topo, err)
			}
		})
	}
}
