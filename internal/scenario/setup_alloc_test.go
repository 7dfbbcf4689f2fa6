package scenario

import (
	"testing"

	"contra/internal/baseline"
	"contra/internal/core"
	"contra/internal/dataplane"
	"contra/internal/policy"
	"contra/internal/sim"
	"contra/internal/topo"
)

// TestCellSetupAllocBudget fences a cell's set-up: building the
// network, deploying a scheme, starting it and registering the flows
// allocate per table, not per node, flow or switch. The set-up runs on
// a prebuilt graph (and, for Contra, a prebuilt compile) at fattree:4:2
// with 16 flows and at fattree:16:2 with 1 024, and the larger cell may
// allocate at most 64 more times in all (it allocates about 15 more):
// switches, hosts and flows cost nothing, and one allocation per switch
// would overrun it almost five times over the 300 switches added.
func TestCellSetupAllocBudget(t *testing.T) {
	opts := core.Options{ProbePacking: true, SuppressEps: 0.02, RefreshEvery: 4}
	type cell struct {
		g     *topo.Graph
		comp  *core.Compiled
		flows []sim.FlowSpec
	}
	build := func(k, nflows int) cell {
		g := topo.Fattree(k, 2)
		comp, err := core.Compile(g, policy.MustParse("minimize(path.util)"), opts)
		if err != nil {
			t.Fatal(err)
		}
		hosts := g.Hosts()
		flows := make([]sim.FlowSpec, nflows)
		for i := range flows {
			flows[i] = sim.FlowSpec{
				ID:    uint64(i + 1),
				Src:   hosts[i%len(hosts)],
				Dst:   hosts[(i+len(hosts)/2)%len(hosts)],
				Size:  int64(1+i%7) * 10_000,
				Start: int64(i) * 1_000,
			}
		}
		return cell{g, comp, flows}
	}
	small, large := build(4, 16), build(16, 1024)
	added := len(large.g.Switches()) - len(small.g.Switches())
	const budget = 64
	for _, scheme := range []string{"ecmp", "hula", "contra"} {
		setup := func(c cell) float64 {
			return testing.AllocsPerRun(3, func() {
				n := sim.NewNetwork(sim.NewEngine(), c.g, sim.Config{})
				switch scheme {
				case "ecmp":
					baseline.DeployECMP(n)
				case "hula":
					baseline.DeployHula(n, opts)
				case "contra":
					dataplane.DeployFleet(n, c.comp)
				}
				n.Start()
				n.StartFlows(c.flows)
			})
		}
		lo, hi := setup(small), setup(large)
		t.Logf("%s: %.0f allocations at fattree:4:2, %.0f at fattree:16:2 (%.2f per added switch)",
			scheme, lo, hi, (hi-lo)/float64(added))
		if hi-lo > budget {
			t.Errorf("%s: set-up allocates %.0f more times at fattree:16:2 with %d flows than at fattree:4:2 with %d, past %d",
				scheme, hi-lo, len(large.flows), len(small.flows), budget)
		}
	}
}
