package sim_test

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"testing"

	"contra/internal/baseline"
	"contra/internal/campaign"
	"contra/internal/core"
	"contra/internal/dataplane"
	"contra/internal/policy"
	"contra/internal/scenario"
	"contra/internal/sim"
	"contra/internal/topo"
)

// TestCampaignCellsDrawReleasedState runs a 2-worker campaign of 12
// cells that mixes ECMP, HULA and Contra on two topologies. Every cell
// but the first one each worker runs must draw the cell state a
// finished cell released, whichever goroutine or P released it: at
// most 2 cells may start on a fresh one.
func TestCampaignCellsDrawReleasedState(t *testing.T) {
	spec := &campaign.Spec{
		Topos:    []string{"fattree:4:2", "dc"},
		Schemes:  []scenario.Scheme{scenario.SchemeECMP, scenario.SchemeHula, scenario.SchemeContra},
		Loads:    []float64{0.3},
		Seeds:    []int64{1, 2},
		Workload: scenario.Workload{Dist: "cache", DurationNs: 1_000_000, MaxFlows: 20},
	}
	sim.ResetCells()
	before := sim.FreshCells()
	report, err := campaign.Run(spec, campaign.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if report.Failed() > 0 || len(report.Outcomes) != 12 {
		t.Fatalf("%d of %d cells failed, want 12 cells and none failed", report.Failed(), len(report.Outcomes))
	}
	if fresh := sim.FreshCells() - before; fresh < 1 || fresh > 2 {
		t.Errorf("%d of %d cells started on a fresh cell state, want 1 or 2 (one per worker at most)", fresh, len(report.Outcomes))
	}
}

// secondCellShare bounds what the second of two identical cells may
// allocate, as a share of the first's bytes: the first runs with
// nothing handed on and allocates every table, the second draws them
// all from it. A cell's network, routers and flows then cost nothing
// but the handful of per-network objects that are not tables (the
// Network itself, its FCT statistics, the Contra rank evaluators): 1.7 %
// for Contra and 2.0 % for HULA when this was written.
const secondCellShare = 0.05

// TestSecondCellAllocatesLittle fences the release seams: a Contra and
// a HULA cell at fattree:4:2, set up on a prebuilt graph and compile,
// run with packed probes to a horizon, audited and released, then the
// same cell again. The second may allocate at most secondCellShare of
// the first's bytes. Past it, the test names the package that allocated
// more the second time round, from a heap profile of both: the package
// whose tables were not handed on.
func TestSecondCellAllocatesLittle(t *testing.T) {
	g := topo.Fattree(4, 2)
	opts := core.Options{ProbePacking: true}
	comp, err := core.Compile(g, policy.MustParse("minimize(path.util)"), opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Fill(g)
	hosts := g.Hosts()
	flows := make([]sim.FlowSpec, 16)
	for i := range flows {
		flows[i] = sim.FlowSpec{
			ID: uint64(i + 1), Src: hosts[i%len(hosts)], Dst: hosts[(i+len(hosts)/2)%len(hosts)],
			Size: int64(1+i%7) * 20_000, Start: 1_000_000 + int64(i)*10_000,
		}
	}
	deploys := map[string]func(*sim.Network){
		"contra": func(n *sim.Network) { dataplane.DeployFleet(n, comp) },
		"hula":   func(n *sim.Network) { baseline.DeployHula(n, opts) },
	}
	for _, scheme := range []string{"contra", "hula"} {
		cell := func() {
			n := sim.NewNetwork(sim.NewEngine(), g, sim.Config{})
			deploys[scheme](n)
			n.Start()
			n.StartFlows(flows)
			n.Eng.Run(4_000_000)
			if err := n.Audit(); err != nil {
				t.Fatal(err)
			}
			n.Release()
		}
		first, second, byPkg := twoCells(cell)
		t.Logf("%s: the first cell allocates %d bytes, the second %d (%.1f %%)", scheme, first, second, 100*float64(second)/float64(first))
		if float64(second) > secondCellShare*float64(first) {
			t.Errorf("%s: the second cell allocates %d bytes, past %.0f %% of the first's %d; more the second time round: %s",
				scheme, second, 100*secondCellShare, first, byPkg)
		}
	}
}

// twoCells runs cell twice with nothing handed on to the first, and
// returns the bytes each allocated, with the packages that allocated
// more in the second than a tenth of what they did in the first.
func twoCells(cell func()) (first, second uint64, byPkg string) {
	defer func(rate int) { runtime.MemProfileRate = rate }(runtime.MemProfileRate)
	runtime.MemProfileRate = 1
	sim.ResetCells()
	// A collection publishes the profile; none runs inside a cell.
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var m0, m1, m2, m3 runtime.MemStats
	p0 := bytesByPackage()
	runtime.ReadMemStats(&m0)
	cell()
	runtime.ReadMemStats(&m1)
	runtime.GC()
	p1 := bytesByPackage()
	runtime.ReadMemStats(&m2)
	cell()
	runtime.ReadMemStats(&m3)
	runtime.GC()
	p2 := bytesByPackage()
	var pkgs []string
	for pkg := range p2 {
		if p2[pkg]-p1[pkg] > (p1[pkg]-p0[pkg])/10 {
			pkgs = append(pkgs, pkg)
		}
	}
	sort.Slice(pkgs, func(i, j int) bool { return p2[pkgs[i]]-p1[pkgs[i]] > p2[pkgs[j]]-p1[pkgs[j]] })
	for i, pkg := range pkgs {
		pkgs[i] = fmt.Sprintf("%s %d of %d bytes", pkg, p2[pkg]-p1[pkg], p1[pkg]-p0[pkg])
	}
	return m1.TotalAlloc - m0.TotalAlloc, m3.TotalAlloc - m2.TotalAlloc, strings.Join(pkgs, ", ")
}

// bytesByPackage sums the heap profile's allocated bytes by the package
// of this module that allocated them: the first contra/internal frame
// that is neither the slab helpers nor a test.
func bytesByPackage() map[string]int64 {
	var recs []runtime.MemProfileRecord
	for {
		n, ok := runtime.MemProfile(recs, true)
		if ok {
			recs = recs[:n]
			break
		}
		recs = make([]runtime.MemProfileRecord, n+64)
	}
	out := map[string]int64{}
	for i := range recs {
		frames := runtime.CallersFrames(recs[i].Stack())
		for {
			f, more := frames.Next()
			name, _, _ := strings.Cut(f.Function, "[") // generic shapes name other packages
			if pkg, ok := strings.CutPrefix(name, "contra/internal/"); ok && !strings.HasPrefix(pkg, "slab.") {
				pkg, _, _ = strings.Cut(pkg, ".")
				if !strings.HasSuffix(pkg, "_test") {
					out[pkg] += recs[i].AllocBytes
				}
				break
			}
			if !more {
				break
			}
		}
	}
	return out
}
