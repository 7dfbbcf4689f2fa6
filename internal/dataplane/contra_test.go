package dataplane

import (
	"fmt"
	"testing"

	"contra/internal/core"
	"contra/internal/golden"
	"contra/internal/policy"
	"contra/internal/sim"
	"contra/internal/topo"
)

// withHosts clones a switch-only test topology and attaches one host
// per named switch.
func withHosts(g *topo.Graph, names ...string) *topo.Graph {
	c := g.Clone()
	for _, n := range names {
		h := c.AddNode("H"+n, topo.Host)
		c.AddLink(c.MustNode(n), h, 10e9, 1000)
	}
	return c
}

// hostedSwitches is the set of switches a host of g attaches to, read
// from the hosts' own ports; on a graph with no hosts it is every
// switch. These are the destinations data can address.
func hostedSwitches(g *topo.Graph) map[topo.NodeID]bool {
	out := make(map[topo.NodeID]bool)
	for _, h := range g.Hosts() {
		out[g.HostEdge(h)] = true
	}
	if len(out) == 0 {
		for _, x := range g.Switches() {
			out[x] = true
		}
	}
	return out
}

// checkNoRegistersTowardHostless fails t if any switch of g holds a
// register or a route toward a switch no host attaches to.
func checkNoRegistersTowardHostless(t *testing.T, g *topo.Graph, routers map[topo.NodeID]*Contra, comp *core.Compiled) {
	t.Helper()
	hosted := hostedSwitches(g)
	for _, dst := range g.Switches() {
		if hosted[dst] {
			continue
		}
		if comp.OriginOrd[dst] >= 0 {
			t.Fatalf("host-less switch %s has origin ordinal %d", g.Node(dst).Name, comp.OriginOrd[dst])
		}
		for _, src := range g.Switches() {
			if _, _, _, ok := routers[src].BestEntry(dst); ok || routers[src].HasRoute(dst) {
				t.Fatalf("%s holds a route to host-less switch %s", g.Node(src).Name, g.Node(dst).Name)
			}
		}
	}
}

func compileOn(t *testing.T, g *topo.Graph, src string, opts core.Options) *core.Compiled {
	t.Helper()
	pol, err := policy.Parse(src, policy.ParseOptions{Symbols: g.SortedNames()})
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	c, err := core.Compile(g, pol, opts)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	return c
}

// deploy builds engine+network+routers, runs the warmup, and returns
// everything.
func deploy(t *testing.T, g *topo.Graph, policySrc string, warmupPeriods int) (*sim.Engine, *sim.Network, map[topo.NodeID]*Contra, *core.Compiled) {
	t.Helper()
	comp := compileOn(t, g, policySrc, core.Options{})
	e := sim.NewEngine()
	n := sim.NewNetwork(e, g, sim.Config{TrackVisited: true})
	routers := Deploy(n, comp)
	n.Start()
	e.Run(int64(warmupPeriods) * comp.Opts.ProbePeriodNs)
	return e, n, routers, comp
}

func TestConvergesToShortestLatency(t *testing.T) {
	// minimize(path.lat) on Abilene: latency is static, so after a few
	// probe rounds every switch's best next hop must sit on a
	// Dijkstra-shortest path.
	g := topo.Abilene()
	_, _, routers, _ := deploy(t, g, "minimize(path.lat)", 12)
	for _, src := range g.Switches() {
		dist := g.LatencyFrom(src) // symmetric
		for _, dst := range g.Switches() {
			if src == dst {
				continue
			}
			port, rank := routers[src].BestNextHop(dst)
			if port < 0 {
				t.Fatalf("%s has no route to %s", g.Node(src).Name, g.Node(dst).Name)
			}
			peer := g.Ports(src)[port].Peer
			link := g.LinkBetween(src, peer)
			distDst := g.LatencyFrom(dst)
			want := dist[dst]
			got := link.Delay + distDst[peer]
			if got != want {
				t.Errorf("%s->%s: next hop %s gives latency %d, shortest is %d (rank %v)",
					g.Node(src).Name, g.Node(dst).Name, g.Node(peer).Name, got, want, rank)
			}
		}
	}
}

func TestConvergesToShortestHops(t *testing.T) {
	g := topo.Fattree(4, 0)
	_, _, routers, _ := deploy(t, g, "minimize(path.len)", 12)
	e00, e10 := g.MustNode("e0_0"), g.MustNode("e1_0")
	port, rank := routers[e00].BestNextHop(e10)
	if port < 0 {
		t.Fatal("no route across pods")
	}
	if !rank.Equal(policy.Finite(4)) {
		t.Fatalf("cross-pod rank = %v, want 4 hops", rank)
	}
	peer := g.Ports(e00)[port].Peer
	if g.Node(peer).Role != topo.RoleAgg {
		t.Fatalf("first hop should be an agg, got %s", g.Node(peer).Name)
	}
}

func TestEndToEndFlowsComplete(t *testing.T) {
	g := topo.PaperDataCenter()
	comp := compileOn(t, g, "minimize(path.util)", core.Options{})
	e := sim.NewEngine()
	n := sim.NewNetwork(e, g, sim.Config{})
	Deploy(n, comp)
	n.Start()
	warm := 10 * comp.Opts.ProbePeriodNs
	e.Run(warm)

	hosts := g.Hosts()
	var flows []sim.FlowSpec
	for i := 0; i < 24; i++ {
		src := hosts[i%len(hosts)]
		dst := hosts[(i+9)%len(hosts)]
		if g.HostEdge(src) == g.HostEdge(dst) {
			dst = hosts[(i+13)%len(hosts)]
		}
		flows = append(flows, sim.FlowSpec{
			ID: uint64(i + 1), Src: src, Dst: dst,
			Size: 200_000, Start: warm + int64(i)*5_000,
		})
	}
	n.StartFlows(flows)
	e.Run(warm + 2e9)
	if got := n.CompletedFlows(); got != int64(len(flows)) {
		t.Fatalf("completed %d of %d flows; noroute=%v ttl=%v",
			got, len(flows), n.Totals().Drops[sim.DropNoRoute], n.Totals().Drops[sim.DropTTL])
	}
}

func TestWaypointCompliance(t *testing.T) {
	// All S->D traffic must pass through A.
	base := topo.Fig4Square()
	g := withHosts(base, "S", "D")
	comp := compileOn(t, g, "minimize(if .* A .* then path.util else inf)", core.Options{})
	e := sim.NewEngine()
	n := sim.NewNetwork(e, g, sim.Config{TrackVisited: true})
	Deploy(n, comp)
	n.Start()

	aBit := uint64(1) << uint(g.MustNode("A"))
	checked := 0
	n.OnHostRx = func(pkt *sim.Packet) {
		if pkt.Visited&aBit == 0 {
			t.Errorf("packet seq %d reached host without passing waypoint A", pkt.Seq)
		}
		checked++
	}
	warm := 10 * comp.Opts.ProbePeriodNs
	e.Run(warm)
	n.StartFlows([]sim.FlowSpec{{
		ID: 1, Src: g.MustNode("HS"), Dst: g.MustNode("HD"), Size: 500_000, Start: warm,
	}})
	e.Run(warm + 1e9)
	if n.CompletedFlows() != 1 {
		t.Fatalf("flow incomplete; noroute=%v", n.Totals().Drops[sim.DropNoRoute])
	}
	if checked == 0 {
		t.Fatal("no packets checked")
	}
}

func TestFailureDetectionAndRecovery(t *testing.T) {
	// MU on the square: S->D uses some path; killing its first-hop
	// link must reroute within ~k probe periods + flowlet timeout.
	base := topo.Fig4Square()
	g := withHosts(base, "S", "D")
	comp := compileOn(t, g, "minimize(path.util)", core.Options{})
	e := sim.NewEngine()
	n := sim.NewNetwork(e, g, sim.Config{})
	routers := Deploy(n, comp)
	n.Start()

	period := comp.Opts.ProbePeriodNs
	warm := 10 * period
	e.Run(warm)

	s, d := g.MustNode("S"), g.MustNode("D")
	port, _ := routers[s].BestNextHop(d)
	if port < 0 {
		t.Fatal("no initial route")
	}
	firstHop := g.Ports(s)[port].Peer

	// Constant traffic S->D.
	n.StartFlows([]sim.FlowSpec{{
		ID: 1, Src: g.MustNode("HS"), Dst: g.MustNode("HD"), RateBps: 1e9, Start: warm,
	}})
	failAt := warm + 10*period
	link := g.LinkBetween(s, firstHop)
	n.Inject(sim.NetworkEvent{At: failAt, Kind: sim.EvLinkDown, Link: link.ID})

	// After k periods + slack the best next hop must avoid the dead
	// link.
	detect := failAt + int64(comp.Opts.FailureDetectPeriods+3)*period
	e.Run(detect)
	newPort, rank := routers[s].BestNextHop(d)
	if newPort < 0 {
		t.Fatal("no route after failure")
	}
	if g.Ports(s)[newPort].Peer == firstHop {
		t.Fatalf("still routing into the failed link (rank %v)", rank)
	}
	// Traffic keeps flowing: measure deliveries after detection.
	var delivered int64
	n.OnHostRx = func(pkt *sim.Packet) { delivered++ }
	e.Run(detect + 20*period)
	if delivered == 0 {
		t.Fatal("no traffic delivered after failover")
	}
}

func TestTwoPidRecombination(t *testing.T) {
	// P8: source-local preference decomposes into util and lat pids;
	// flows still complete and both probe classes populate tables.
	base := topo.Fig4Square()
	g := withHosts(base, "S", "D")
	comp := compileOn(t, g, "minimize(if S .* then path.util else path.lat)", core.Options{})
	if comp.Analysis.NumPids() != 2 {
		t.Fatalf("pids = %d, want 2", comp.Analysis.NumPids())
	}
	e := sim.NewEngine()
	n := sim.NewNetwork(e, g, sim.Config{})
	Deploy(n, comp)
	n.Start()
	warm := 10 * comp.Opts.ProbePeriodNs
	e.Run(warm)
	n.StartFlows([]sim.FlowSpec{
		{ID: 1, Src: g.MustNode("HS"), Dst: g.MustNode("HD"), Size: 200_000, Start: warm},
		{ID: 2, Src: g.MustNode("HD"), Dst: g.MustNode("HS"), Size: 200_000, Start: warm},
	})
	e.Run(warm + 1e9)
	if n.CompletedFlows() != 2 {
		t.Fatalf("flows incomplete: %d/2; noroute=%v",
			n.CompletedFlows(), n.Totals().Drops[sim.DropNoRoute])
	}
}

func TestProbeTrafficBounded(t *testing.T) {
	// Probes must not multiply: per round, per origin, each PG edge
	// carries a bounded number of probes.
	g := topo.Fig4Square()
	comp := compileOn(t, g, "minimize(path.util)", core.Options{})
	e := sim.NewEngine()
	n := sim.NewNetwork(e, g, sim.Config{})
	Deploy(n, comp)
	n.Start()
	rounds := int64(50)
	e.Run(rounds * comp.Opts.ProbePeriodNs)
	probeBytes := n.Totals().ProbeBytes
	// Generous bound: origins x PG-edges x probes-per-edge-per-round(4).
	bound := float64(rounds) * float64(len(g.Switches())) * float64(2*g.NumLinks()) * 4 * float64(comp.Stats.ProbeBytes+18)
	if probeBytes > bound {
		t.Fatalf("probe traffic %v exceeds bound %v: probes are multiplying", probeBytes, bound)
	}
	if probeBytes == 0 {
		t.Fatal("no probes at all")
	}
}

func TestUtilizationAwareSteering(t *testing.T) {
	// Load the direct S-D path with background traffic; MU must steer
	// a new flow via an idle two-hop path while shortest-path routing
	// would stay on the hot link.
	base := topo.Fig4Square()
	g := withHosts(base, "S", "D", "A", "B")
	comp := compileOn(t, g, "minimize(path.util)", core.Options{})
	e := sim.NewEngine()
	n := sim.NewNetwork(e, g, sim.Config{})
	routers := Deploy(n, comp)
	n.Start()
	period := comp.Opts.ProbePeriodNs
	warm := 10 * period
	e.Run(warm)

	// Background: saturate S-D directly (it will pick the direct link
	// first since all utils start equal... keep it heavy).
	n.StartFlows([]sim.FlowSpec{{
		ID: 1, Src: g.MustNode("HS"), Dst: g.MustNode("HD"), RateBps: 8e9, Start: warm,
	}})
	e.Run(warm + 20*period)

	s, d := g.MustNode("S"), g.MustNode("D")
	port, rank := routers[s].BestNextHop(d)
	if port < 0 {
		t.Fatal("no route")
	}
	peer := g.Ports(s)[port].Peer
	// The chosen next hop must not be the saturated direct link.
	if peer == d {
		t.Fatalf("best next hop still the hot direct link (rank %v)", rank)
	}
}

func TestBestNextHopNamesStable(t *testing.T) {
	// Deterministic across identical runs.
	g := topo.Abilene()
	_, _, r1, _ := deploy(t, g, "minimize(path.lat)", 12)
	_, _, r2, _ := deploy(t, g, "minimize(path.lat)", 12)
	for _, src := range g.Switches() {
		for _, dst := range g.Switches() {
			if src == dst {
				continue
			}
			p1, _ := r1[src].BestNextHop(dst)
			p2, _ := r2[src].BestNextHop(dst)
			if p1 != p2 {
				t.Fatalf("nondeterministic next hop %s->%s: %d vs %d",
					g.Node(src).Name, g.Node(dst).Name, p1, p2)
			}
		}
	}
}

func TestNoRouteBeforeWarmup(t *testing.T) {
	// Before any probes, sources drop traffic as unroutable rather
	// than panicking or looping.
	base := topo.Fig4Square()
	g := withHosts(base, "S", "D")
	comp := compileOn(t, g, "minimize(path.util)", core.Options{})
	e := sim.NewEngine()
	n := sim.NewNetwork(e, g, sim.Config{})
	Deploy(n, comp)
	n.Start()
	n.StartFlows([]sim.FlowSpec{{
		ID: 1, Src: g.MustNode("HS"), Dst: g.MustNode("HD"), RateBps: 1e8, Start: 0,
	}})
	e.Run(5_000) // 5us: before the first probe round completes
	if n.Totals().Drops[sim.DropNoRoute] == 0 {
		t.Skip("first probes may already have arrived; acceptable")
	}
}

func ExampleContra_BestNextHop() {
	g := topo.Abilene()
	pol := policy.MustParse("minimize(path.lat)")
	comp, _ := core.Compile(g, pol, core.Options{})
	e := sim.NewEngine()
	n := sim.NewNetwork(e, g, sim.Config{})
	routers := Deploy(n, comp)
	n.Start()
	e.Run(12 * comp.Opts.ProbePeriodNs)
	sea, nyc := g.MustNode("SEA"), g.MustNode("NYC")
	port, _ := routers[sea].BestNextHop(nyc)
	fmt.Println("SEA reaches NYC via", g.Node(g.Ports(sea)[port].Peer).Name)
	// Output: SEA reaches NYC via DEN
}

// TestSameVersionRefreshesPinned pins how often a small unpacked cell
// accepts an advertisement from a register's own upstream at the
// version the register already holds: the equal-version refresh that
// lets one version circulate (ROADMAP item 1). Contra under
// minimize(path.util) on an idle host-less k=4 fat-tree, where all 20
// switches originate, twenty probe periods. The count moves with the
// accept rule; a change to it is a change to the protocol.
//
// With two hosts per edge only the 8 edges originate, and no
// aggregation or core origin is left for a version to circulate from:
// each origin is first heard once by every other switch, and nothing
// is refreshed at an equal version. The counts are pinned in
// testdata/golden.txt.
func TestSameVersionRefreshesPinned(t *testing.T) {
	for _, hosts := range []int{0, 2} {
		_, n, _, _ := deploy(t, topo.Fattree(4, hosts), "minimize(path.util)", 20)
		c := n.Totals().Probes
		t.Logf("fattree:4:%d: %+v", hosts, c)
		cell := fmt.Sprintf("fattree:4:%d/", hosts)
		golden.Check(t, "testdata/golden.txt", cell+"first_accepts", fmt.Sprint(c.New))
		golden.Check(t, "testdata/golden.txt", cell+"refresh", fmt.Sprint(c.Refresh))
	}
}
