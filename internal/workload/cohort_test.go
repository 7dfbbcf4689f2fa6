package workload

import (
	"fmt"
	"testing"

	"contra/internal/sim"
	"contra/internal/topo"
)

func cohortTopo(t *testing.T) *topo.Graph {
	t.Helper()
	return topo.Fattree(4, 2)
}

func baseCohort() CohortSpec {
	return CohortSpec{Name: "web", Load: 0.3}
}

func cohortCfg(g *topo.Graph, cs ...CohortSpec) CohortConfig {
	return CohortConfig{
		Cohorts: cs, CapacityBps: 64e9, StartNs: 3_000_000, DurationNs: 20_000_000,
		Seed: 1, MaxFlows: 4000,
	}
}

// TestCohortValidationErrors pins the one-line error for each way a
// cohort spec can be malformed, byte for byte: every message names the
// offending cohort and field, and a size mix component's names its
// path.
func TestCohortValidationErrors(t *testing.T) {
	mod := func(f func(*CohortSpec)) []CohortSpec {
		c := baseCohort()
		f(&c)
		return []CohortSpec{c}
	}
	web := func(msg string) string { return `workload: cohort 0 ("web"): ` + msg }
	limit := fmt.Sprintf("is past the simulator's %d-byte flow limit", sim.MaxFlowBytes)
	dists := "(want cache, websearch, lognormal, pareto or fixed)"
	cases := []struct {
		name string
		cs   []CohortSpec
		want string
	}{
		{"no cohorts", nil, "workload: cohorts workload declares no cohorts"},
		{"unnamed", mod(func(c *CohortSpec) { c.Name = "" }), "workload: cohort 0: name is required"},
		{"dup name", []CohortSpec{baseCohort(), baseCohort()}, `workload: cohort 1 reuses name "web"`},
		{"quoted name", mod(func(c *CohortSpec) { c.Name = `a"b`; c.Load = -1 }), `workload: cohort 0 ("a\"b"): load -1 is negative`},
		{"second cohort", []CohortSpec{baseCohort(), {Name: "db"}}, `workload: cohort 1 ("db"): needs rate_fps or load`},
		{"negative rate", mod(func(c *CohortSpec) { c.Load = 0; c.RateFPS = -5 }), web("rate_fps -5 is negative")},
		{"negative load", mod(func(c *CohortSpec) { c.Load = -0.1 }), web("load -0.1 is negative")},
		{"no rate", mod(func(c *CohortSpec) { c.Load = 0 }), web("needs rate_fps or load")},
		{"both rates", mod(func(c *CohortSpec) { c.RateFPS = 10 }), web("sets both rate_fps and load")},
		{"negative weight", mod(func(c *CohortSpec) { c.Weight = -1 }), web("weight -1 is negative")},
		{"unknown process", mod(func(c *CohortSpec) { c.Process = "lomax" }),
			web(`unknown process "lomax" (want one of [poisson gamma weibull])`)},
		{"negative shape", mod(func(c *CohortSpec) { c.Shape = -2 }), web("shape -2 is negative")},
		{"poisson shape", mod(func(c *CohortSpec) { c.Shape = 3 }), web("shape 3 needs a gamma or weibull process")},
		{"unknown size dist", mod(func(c *CohortSpec) { c.Size.Dist = "zipf" }), web(`unknown size dist "zipf" ` + dists)},
		{"lognormal no mean", mod(func(c *CohortSpec) { c.Size.Dist = SizeLogNormal }), web("lognormal size needs mean_bytes > 0")},
		{"lognormal sigma", mod(func(c *CohortSpec) { c.Size = SizeSpec{Dist: SizeLogNormal, MeanBytes: 10, Sigma: -1} }),
			web("lognormal sigma -1 is negative")},
		{"pareto no min", mod(func(c *CohortSpec) { c.Size.Dist = SizePareto }), web("pareto size needs min_bytes > 0")},
		{"pareto alpha", mod(func(c *CohortSpec) { c.Size = SizeSpec{Dist: SizePareto, MinBytes: 100, Alpha: 0.9} }),
			web("pareto alpha 0.9 must be > 1 for a finite mean")},
		{"fixed no bytes", mod(func(c *CohortSpec) { c.Size.Dist = SizeFixed }), web("fixed size needs bytes > 0")},
		{"fixed past sim.MaxFlowBytes", mod(func(c *CohortSpec) { c.Size = SizeSpec{Dist: SizeFixed, Bytes: 9e18} }),
			web("size bytes 9e+18 " + limit)},
		{"mix component past sim.MaxFlowBytes", mod(func(c *CohortSpec) {
			c.Size = SizeSpec{Mix: []SizeComponent{{Weight: 1, SizeSpec: SizeSpec{Dist: SizePareto, MinBytes: 2e12, Alpha: 2}}}}
		}), web("size mix component 0: size min_bytes 2e+12 " + limit)},
		{"mix component dist", mod(func(c *CohortSpec) {
			c.Size = SizeSpec{Mix: []SizeComponent{{Weight: 1}, {Weight: 1, SizeSpec: SizeSpec{Dist: "zipf"}}}}
		}), web(`size mix component 1: unknown size dist "zipf" ` + dists)},
		{"mix component weight", mod(func(c *CohortSpec) { c.Size = SizeSpec{Mix: []SizeComponent{{Weight: -1}}} }),
			web("size mix component 0 weight -1 is negative")},
		{"zero-weight mix", mod(func(c *CohortSpec) {
			c.Size = SizeSpec{Mix: []SizeComponent{{SizeSpec: SizeSpec{Dist: "cache"}}}}
		}), web("size mix weights sum to zero")},
		{"nested mix", mod(func(c *CohortSpec) {
			c.Size = SizeSpec{Mix: []SizeComponent{{Weight: 1, SizeSpec: SizeSpec{Mix: []SizeComponent{{Weight: 1}}}}}}
		}), web("size mix component 0 nests a mix")},
		{"mix and dist", mod(func(c *CohortSpec) {
			c.Size = SizeSpec{Dist: "cache", Mix: []SizeComponent{{Weight: 1}}}
		}), web(`size sets both dist "cache" and mix`)},
		{"unknown profile", mod(func(c *CohortSpec) { c.Profile = "sawtooth" }),
			web(`unknown profile "sawtooth" (want one of [flat ramp diurnal burst])`)},
		{"diurnal no period", mod(func(c *CohortSpec) { c.Profile = ProfileDiurnal }), web("diurnal profile needs period_ns > 0")},
		{"burst no period", mod(func(c *CohortSpec) { c.Profile = ProfileBurst }), web("burst profile needs period_ns > 0")},
		{"bad depth", mod(func(c *CohortSpec) { c.Depth = 1.5 }), web("depth 1.5 outside [0,1]")},
		{"bad duty", mod(func(c *CohortSpec) { c.Duty = -0.2 }), web("duty -0.2 outside [0,1]")},
		{"unknown placement", mod(func(c *CohortSpec) { c.Placement = "rackety" }),
			web(`unknown placement "rackety" (want one of [uniform rack_local incast])`)},
		{"negative incast targets", mod(func(c *CohortSpec) { c.IncastTargets = -1 }), web("incast_targets -1 is negative")},
		{"negative start", mod(func(c *CohortSpec) { c.StartNs = -1 }), web("start_ns -1 is negative")},
		{"negative duration", mod(func(c *CohortSpec) { c.DurationNs = -1 }), web("duration_ns -1 is negative")},
		{"negative max", mod(func(c *CohortSpec) { c.MaxFlows = -4 }), web("max_flows -4 is negative")},
	}
	for _, tc := range cases {
		err := ValidateCohorts(tc.cs)
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
			continue
		}
		if err.Error() != tc.want {
			t.Errorf("%s: error\n  %s\nwant\n  %s", tc.name, err, tc.want)
		}
	}
}

// TestValidCohortAllocatesNothing holds validation to the error path:
// a valid cohort, sized by a nested mix, formats no label.
func TestValidCohortAllocatesNothing(t *testing.T) {
	c := baseCohort()
	c.Size = SizeSpec{Mix: []SizeComponent{
		{Weight: 1, SizeSpec: SizeSpec{Dist: SizePareto, MinBytes: 100, Alpha: 1.5}},
		{Weight: 2, SizeSpec: SizeSpec{Dist: "cache"}},
	}}
	c.Profile = ProfileBurst
	c.PeriodNs = 1_000_000
	if allocs := testing.AllocsPerRun(100, func() {
		if err := c.validate(3); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("validating a valid cohort allocates %v times, want 0", allocs)
	}
}

func TestGenerateCohortsDeterministic(t *testing.T) {
	g := cohortTopo(t)
	cs := []CohortSpec{
		{Name: "web", Load: 0.2, Size: SizeSpec{Dist: "websearch"}},
		{Name: "bulk", RateFPS: 2000, Process: ProcGamma, Shape: 0.5,
			Size: SizeSpec{Dist: SizeLogNormal, MeanBytes: 2e6, Sigma: 1}},
		{Name: "burst", Load: 0.1, Profile: ProfileBurst, PeriodNs: 5_000_000, Duty: 0.2,
			Placement: PlaceIncast, IncastTargets: 2, Size: SizeSpec{Dist: "cache"}},
	}
	a, err := GenerateCohorts(g, cohortCfg(g, cs...))
	if err != nil {
		t.Fatal(err)
	}
	b, err := GenerateCohorts(g, cohortCfg(g, cs...))
	if err != nil {
		t.Fatal(err)
	}
	if len(a) == 0 {
		t.Fatal("no flows generated")
	}
	if fmt.Sprint(a) != fmt.Sprint(b) {
		t.Fatal("two generations with the same seed differ")
	}
	// Cohort attribution: every flow's top 32 bits name its cohort.
	counts := map[uint64]int{}
	for _, f := range a {
		counts[f.ID>>32]++
	}
	for i := range cs {
		if counts[uint64(i)] == 0 {
			t.Errorf("cohort %d (%s) produced no flows", i, cs[i].Name)
		}
	}
}

// TestCohortIndependence pins the per-cohort seed streams: editing one
// cohort's knobs must not perturb another cohort's flows.
func TestCohortIndependence(t *testing.T) {
	g := cohortTopo(t)
	web := CohortSpec{Name: "web", Load: 0.2}
	bulkA := CohortSpec{Name: "bulk", RateFPS: 500, Size: SizeSpec{Dist: SizeFixed, Bytes: 1e6}}
	bulkB := bulkA
	bulkB.RateFPS = 900

	flowsOf := func(cs ...CohortSpec) map[uint64]sim.FlowSpec {
		flows, err := GenerateCohorts(g, cohortCfg(g, cs...))
		if err != nil {
			t.Fatal(err)
		}
		out := map[uint64]sim.FlowSpec{}
		for _, f := range flows {
			if f.ID>>32 == 0 {
				out[f.ID] = f
			}
		}
		return out
	}
	a, b := flowsOf(web, bulkA), flowsOf(web, bulkB)
	if len(a) == 0 || fmt.Sprint(a) != fmt.Sprint(b) {
		t.Fatal("editing cohort 1 perturbed cohort 0's flows")
	}
}

func TestRackLocalPlacement(t *testing.T) {
	g := cohortTopo(t)
	cs := []CohortSpec{{Name: "local", Load: 0.3, Placement: PlaceRackLocal}}
	flows, err := GenerateCohorts(g, cohortCfg(g, cs...))
	if err != nil {
		t.Fatal(err)
	}
	local := 0
	for _, f := range flows {
		if g.HostEdge(f.Src) == g.HostEdge(f.Dst) {
			t.Fatalf("flow %d stays on one edge switch", f.ID)
		}
		if g.Node(f.Src).Pod >= 0 && g.Node(f.Src).Pod == g.Node(f.Dst).Pod {
			local++
		}
	}
	if local == 0 {
		t.Fatal("rack_local placement produced no pod-local flows")
	}
}

func TestBurstProfileGates(t *testing.T) {
	g := cohortTopo(t)
	period := int64(5_000_000)
	cs := []CohortSpec{{Name: "b", RateFPS: 200_000, Profile: ProfileBurst,
		PeriodNs: period, Duty: 0.2, Size: SizeSpec{Dist: SizeFixed, Bytes: 1000}}}
	cfg := cohortCfg(g, cs...)
	flows, err := GenerateCohorts(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range flows {
		phase := float64((f.Start-cfg.StartNs)%period) / float64(period)
		if phase >= 0.2 {
			t.Fatalf("flow at phase %.2f lands outside the burst duty window", phase)
		}
	}
}
