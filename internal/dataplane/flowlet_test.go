package dataplane

import (
	"testing"

	"contra/internal/core"
	"contra/internal/pintable"
	"contra/internal/policy"
	"contra/internal/sim"
	"contra/internal/topo"
)

// TestPolicyAwareFlowletNeverZigzags reproduces Figure 8(a): the policy
// allows exactly the upper path S-C-E-F-D and the lower path S-A-E-B-D,
// never the zig-zags S-C-E-B-D or S-A-E-F-D. Naive flowlet switching
// violates this when S changes its preference mid-flowlet while E's
// pinned entry still points the old way; policy-aware flowlet switching
// keys pins by (tag, pid, flowlet) so the packet's tag keeps it on a
// compliant path (§5.3). We drive traffic while background load
// flips the preferred path and assert every delivered packet's visited
// set is exactly one of the two legal paths.
func TestPolicyAwareFlowletNeverZigzags(t *testing.T) {
	base := topo.Fig8Zigzag()
	g := withHosts(base, "S", "D", "C", "A")
	comp := compileOn(t, g, "minimize(if S C E F D + S A E B D then path.util else inf)", core.Options{})
	e := sim.NewEngine()
	n := sim.NewNetwork(e, g, sim.Config{TrackVisited: true})
	Deploy(n, comp)
	n.Start()

	upper := uint64(0)
	for _, name := range []string{"S", "C", "E", "F", "D"} {
		upper |= 1 << uint(g.MustNode(name))
	}
	lower := uint64(0)
	for _, name := range []string{"S", "A", "E", "B", "D"} {
		lower |= 1 << uint(g.MustNode(name))
	}
	switchMask := upper | lower

	var delivered, violations int
	n.OnHostRx = func(pkt *sim.Packet) {
		if pkt.Dst != g.MustNode("HD") {
			return
		}
		visited := pkt.Visited & switchMask
		// The packet's switch visits must be a subset of exactly one
		// legal path (it can be a subset when TrackVisited misses the
		// first hop... it cannot: every switch marks).
		if visited&^upper != 0 && visited&^lower != 0 {
			violations++
		}
		delivered++
	}

	warm := 12 * comp.Opts.ProbePeriodNs
	e.Run(warm)

	// Persistent S->D flow plus alternating background load that
	// flips which of the two paths is least utilized.
	n.StartFlows([]sim.FlowSpec{{
		ID: 1, Src: g.MustNode("HS"), Dst: g.MustNode("HD"), RateBps: 1e9, Start: warm,
	}})
	// Background bursts alternate: load C-E (upper) then A-E (lower).
	n.StartFlows([]sim.FlowSpec{
		{ID: 2, Src: g.MustNode("HC"), Dst: g.MustNode("HD"), RateBps: 6e9, Start: warm},
	})
	e.Run(warm + 40*comp.Opts.ProbePeriodNs)
	n.StartFlows([]sim.FlowSpec{
		{ID: 3, Src: g.MustNode("HA"), Dst: g.MustNode("HD"), RateBps: 6e9, Start: e.Now()},
	})
	e.Run(e.Now() + 80*comp.Opts.ProbePeriodNs)

	if delivered == 0 {
		t.Fatal("no traffic delivered")
	}
	if violations > 0 {
		t.Fatalf("%d of %d packets took a zig-zag (policy-violating) path", violations, delivered)
	}
}

// TestFlowletReordersBounded: flowlet switching exists to bound
// reordering. Count out-of-order arrivals at the receiver for one flow
// crossing a multipath fabric under churn; the fraction must stay
// small.
func TestFlowletReordersBounded(t *testing.T) {
	g := topo.PaperDataCenter()
	comp := compileOn(t, g, "minimize((path.len, path.util))", core.Options{})
	e := sim.NewEngine()
	n := sim.NewNetwork(e, g, sim.Config{})
	Deploy(n, comp)
	n.Start()
	warm := 12 * comp.Opts.ProbePeriodNs
	e.Run(warm)

	hosts := g.Hosts()
	var lastSeq int32 = -1
	var ooo, total int64
	n.OnHostRx = func(pkt *sim.Packet) {
		if pkt.FlowID != 99 {
			return
		}
		if pkt.Seq < lastSeq {
			ooo++
		} else {
			lastSeq = pkt.Seq
		}
		total++
	}
	// Background churn.
	var flows []sim.FlowSpec
	for i := 0; i < 8; i++ {
		flows = append(flows, sim.FlowSpec{
			ID: uint64(i + 1), Src: hosts[i], Dst: hosts[(i+9)%len(hosts)],
			RateBps: 1e9, Start: warm,
		})
	}
	flows = append(flows, sim.FlowSpec{
		ID: 99, Src: hosts[12], Dst: hosts[20], Size: 1_000_000, Start: warm,
	})
	n.StartFlows(flows)
	e.Run(warm + 3e8)
	if total == 0 {
		t.Fatal("flow 99 delivered nothing")
	}
	if frac := float64(ooo) / float64(total); frac > 0.02 {
		t.Fatalf("%.2f%% of packets reordered, want <= 2%%", frac*100)
	}
}

// TestRedeployedRoutersStartEmpty holds a fleet deployed on what a
// released one handed on to a new fleet's state: the routers are the
// same slab, but no pin of the last cell's is left in their tables.
func TestRedeployedRoutersStartEmpty(t *testing.T) {
	g := topo.Fattree(4, 2)
	comp, err := core.Compile(g, policy.MustParse("minimize(path.util)"), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var last *Fleet
	for cell := 0; cell < 2; cell++ {
		n := sim.NewNetwork(sim.NewEngine(), g, sim.Config{})
		f := DeployFleet(n, comp)
		if last != nil && f.Router(g.Switches()[0]) != last.Router(g.Switches()[0]) {
			t.Fatal("the deploy did not draw the routers the last one released")
		}
		for id, r := range f.Routers() {
			if r.flowlets.Len() != 0 || r.srcPins.Len() != 0 {
				t.Fatalf("switch %d starts with %d flowlet and %d source pins", id, r.flowlets.Len(), r.srcPins.Len())
			}
			r.flowlets.Claim(pintable.Used | 1)
			r.srcPins.Claim(pintable.Used | 2)
		}
		n.Release()
		last = f
	}
}
