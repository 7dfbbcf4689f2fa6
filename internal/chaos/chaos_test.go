package chaos

import (
	"slices"
	"testing"

	"contra/internal/core"
	"contra/internal/dataplane"
	"contra/internal/policy"
	"contra/internal/sim"
	"contra/internal/topo"
)

// build compiles a policy on g and deploys a Contra fleet.
func build(t *testing.T, g *topo.Graph, src string) (*sim.Engine, *sim.Network, *dataplane.Fleet, *core.Compiled) {
	t.Helper()
	pol, err := policy.Parse(src, policy.ParseOptions{Symbols: g.SortedNames()})
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	comp, err := core.Compile(g, pol, core.Options{})
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	e := sim.NewEngine()
	n := sim.NewNetwork(e, g, sim.Config{})
	fleet := dataplane.DeployFleet(n, comp)
	n.Start()
	return e, n, fleet, comp
}

// firstCore returns the first core switch of a hierarchical topology.
func firstCore(t *testing.T, g *topo.Graph) topo.NodeID {
	t.Helper()
	for _, id := range g.Switches() {
		if g.Node(id).Role == topo.RoleCore {
			return id
		}
	}
	t.Fatal("no core switch")
	return -1
}

func TestSwitchDownRoutesAroundAndRebootFlushes(t *testing.T) {
	g := topo.Fattree(4, 0)
	e, n, fleet, comp := build(t, g, "minimize(path.util)")
	period := comp.Opts.ProbePeriodNs
	core0 := firstCore(t, g)

	down := 20 * period
	up := 40 * period
	n.Inject(
		sim.NetworkEvent{At: down, Kind: sim.EvNodeDown, Node: core0},
		sim.NetworkEvent{At: up, Kind: sim.EvNodeUp, Node: core0},
	)

	e.Run(12 * period)
	victim := fleet.Router(core0)
	live := victim.LiveRoutes()
	if len(live) == 0 {
		t.Fatal("warmed-up core switch has no routes")
	}
	// The dense BestT is walked by destination: ascending NodeID order.
	if !slices.IsSorted(live) {
		t.Fatalf("LiveRoutes not in ascending NodeID order: %v", live)
	}

	// Past the failure plus the detection window: the fabric must have
	// routed around the dead core, and its own tables (flushed only at
	// reboot) must no longer be used by neighbors.
	e.Run(down + 8*period)
	if !n.NodeDown(core0) {
		t.Fatal("switch_down did not mark the node down")
	}
	e00, e10 := g.MustNode("e0_0"), g.MustNode("e1_0")
	src := fleet.Router(e00)
	if !src.HasRoute(e10) {
		t.Fatal("no cross-pod route while one core is down (three remain)")
	}

	// Right after reboot the router restarts cold: tables flushed.
	e.Run(up + 1)
	if got := len(victim.LiveRoutes()); got != 0 {
		t.Fatalf("rebooted switch kept %d live routes, want 0 (cold start)", got)
	}
	// And it warms back up from fresh probes.
	e.Run(up + 12*period)
	if len(victim.LiveRoutes()) == 0 {
		t.Fatal("rebooted switch never re-learned routes")
	}
}

func TestProbeLossDeterministicPerSeed(t *testing.T) {
	run := func(seed int64) (seen, dropped int64) {
		g := topo.Fattree(4, 0)
		e, n, _, comp := build(t, g, "minimize(path.util)")
		n.SetProbeLossSeed(seed)
		for _, l := range g.Links() {
			n.Inject(sim.NetworkEvent{Kind: sim.EvProbeLoss, Link: l.ID, Rate: 0.3})
		}
		e.Run(30 * comp.Opts.ProbePeriodNs)
		return n.ProbeLossStats()
	}
	s1, d1 := run(7)
	s2, d2 := run(7)
	if s1 != s2 || d1 != d2 {
		t.Fatalf("same seed diverged: (%d,%d) vs (%d,%d)", s1, d1, s2, d2)
	}
	if s1 == 0 || d1 == 0 {
		t.Fatalf("loss injection idle: seen=%d dropped=%d", s1, d1)
	}
	got := float64(d1) / float64(s1)
	if got < 0.2 || got > 0.4 {
		t.Fatalf("realized loss rate %.3f far from configured 0.3", got)
	}
	s3, d3 := run(8)
	if s3 == s1 && d3 == d1 {
		t.Fatalf("different seeds produced identical loss stream (%d,%d)", s3, d3)
	}
}

func TestPolicySwapConvergenceWindow(t *testing.T) {
	g := topo.Fattree(4, 0)
	e, n, fleet, comp := build(t, g, "minimize(path.util)")
	period := comp.Opts.ProbePeriodNs
	swapAt := 20 * period
	rt, err := Arm(n, fleet, []SwapEvent{{At: swapAt, Source: "minimize(path.len)"}}, period, (*core.Compiled).Recompile)
	if err != nil {
		t.Fatalf("arm: %v", err)
	}
	e.Run(60 * period)

	if fleet.Era() != 1 {
		t.Fatalf("era = %d after one swap, want 1", fleet.Era())
	}
	if got := fleet.Compiled().Policy.String(); got != "minimize(path.len)" {
		t.Fatalf("fleet runs %q after swap", got)
	}
	wins := rt.Windows()
	if len(wins) != 1 {
		t.Fatalf("got %d swap windows, want 1", len(wins))
	}
	w := wins[0]
	if w.AtNs != swapAt {
		t.Fatalf("window at %d, want %d", w.AtNs, swapAt)
	}
	if w.Pairs == 0 {
		t.Fatal("swap snapshot saw no live routes on a warmed-up fabric")
	}
	if w.ConvergenceNs <= 0 {
		t.Fatalf("convergence window = %d, want positive", w.ConvergenceNs)
	}
	if w.ConvergenceNs > 40*period {
		t.Fatalf("convergence window %d never closed inside the run", w.ConvergenceNs)
	}
	// The swapped fabric must actually route: shortest-path ranks now.
	e00, e10 := g.MustNode("e0_0"), g.MustNode("e1_0")
	if !fleet.Router(e00).HasRoute(e10) {
		t.Fatal("no route after swap converged")
	}
}

func TestSwapDuringOutageConvergesOnSurvivingFabric(t *testing.T) {
	// A swap installed while a switch is down (and stays down) must
	// not wait on routes involving the dead switch: the snapshot
	// excludes them even when their entries are still inside the
	// failure-detection window, so the window closes once the
	// surviving fabric re-converges.
	g := topo.Fattree(4, 0)
	e, n, fleet, comp := build(t, g, "minimize(path.util)")
	period := comp.Opts.ProbePeriodNs
	core0 := firstCore(t, g)
	down := 20 * period
	swapAt := down + 2*period // inside the detection window, no switch_up
	n.Inject(sim.NetworkEvent{At: down, Kind: sim.EvNodeDown, Node: core0})
	rt, err := Arm(n, fleet, []SwapEvent{{At: swapAt, Source: "minimize(path.len)"}}, period, (*core.Compiled).Recompile)
	if err != nil {
		t.Fatalf("arm: %v", err)
	}
	e.Run(80 * period)
	w := rt.Windows()[0]
	if w.Pairs == 0 {
		t.Fatal("snapshot empty: surviving fabric had live routes")
	}
	if w.ConvergenceNs <= 0 {
		t.Fatalf("swap during a permanent outage never converged: %+v", w)
	}
}

func TestSwapOnColdFabricReportsNoWindow(t *testing.T) {
	// A swap that installs before any route is live (inside the
	// warm-up) has nothing to re-converge: it must not fabricate a
	// one-period convergence window out of an empty snapshot.
	g := topo.Fattree(4, 0)
	e, n, fleet, comp := build(t, g, "minimize(path.util)")
	period := comp.Opts.ProbePeriodNs
	rt, err := Arm(n, fleet, []SwapEvent{{At: 1, Source: "minimize(path.len)"}}, period, (*core.Compiled).Recompile)
	if err != nil {
		t.Fatalf("arm: %v", err)
	}
	e.Run(30 * period)
	if fleet.Era() != 1 {
		t.Fatal("cold swap did not install")
	}
	w := rt.Windows()[0]
	if w.Pairs != 0 || w.ConvergenceNs != -1 {
		t.Fatalf("cold swap reported a window: %+v", w)
	}
}

func TestSwapNeverFiredReportsUnconverged(t *testing.T) {
	g := topo.Fattree(4, 0)
	e, n, fleet, comp := build(t, g, "minimize(path.util)")
	period := comp.Opts.ProbePeriodNs
	rt, err := Arm(n, fleet, []SwapEvent{{At: 1000 * period, Source: "minimize(path.len)"}}, period, (*core.Compiled).Recompile)
	if err != nil {
		t.Fatalf("arm: %v", err)
	}
	e.Run(10 * period) // stop long before the swap
	w := rt.Windows()[0]
	if w.ConvergenceNs != -1 || w.ConvergedAtNs != -1 || w.Pairs != 0 {
		t.Fatalf("unfired swap reported %+v, want unconverged empty window", w)
	}
}

func TestArmRejectsSwapWithoutFleet(t *testing.T) {
	g := topo.Fattree(4, 0)
	_, n, _, comp := build(t, g, "minimize(path.util)")
	_, err := Arm(n, nil, []SwapEvent{{At: 1, Source: "minimize(path.len)"}}, comp.Opts.ProbePeriodNs, (*core.Compiled).Recompile)
	if err == nil {
		t.Fatal("a swap without a fleet must fail to arm")
	}
}

func TestNoSwapsArmToNil(t *testing.T) {
	g := topo.Fattree(4, 0)
	_, n, fleet, comp := build(t, g, "minimize(path.util)")
	rt, err := Arm(n, fleet, nil, comp.Opts.ProbePeriodNs, (*core.Compiled).Recompile)
	if err != nil || rt != nil {
		t.Fatalf("no swaps: rt=%v err=%v, want nil/nil", rt, err)
	}
	if wins := rt.Windows(); len(wins) != 0 {
		t.Fatalf("nil runtime reports windows: %+v", wins)
	}
}
