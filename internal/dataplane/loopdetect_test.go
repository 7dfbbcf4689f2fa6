package dataplane

import (
	"testing"

	"contra/internal/core"
	"contra/internal/sim"
	"contra/internal/topo"
)

// Unit tests for the §5.5 loop detector: TTL spread per packet hash.

func newTestContra(t *testing.T) *Contra {
	t.Helper()
	g := topo.Fig4Square()
	comp := compileOn(t, g, "minimize(path.util)", core.Options{})
	return New(comp, g.MustNode("S"))
}

func TestLoopDetectorFiresOnTTLSpread(t *testing.T) {
	c := newTestContra(t)
	const delta = core.LoopTTLDelta
	pkt := &sim.Packet{FlowID: 1, Dst: 99, Seq: 5}

	// Same packet seen with slowly decreasing TTLs: below the spread
	// threshold nothing fires.
	pkt.TTL = 60
	for i := 0; i < delta; i++ {
		pkt.TTL = uint8(60 - i)
		if c.loopDetect(pkt) && i < delta-1 {
			t.Fatalf("fired at spread %d < delta %d", i, delta)
		}
	}
	// One more revisit crosses the threshold.
	pkt.TTL = uint8(60 - delta)
	if !c.loopDetect(pkt) {
		t.Fatal("detector did not fire at threshold")
	}
	// Firing resets the slot: the next observation starts fresh.
	pkt.TTL = 55
	if c.loopDetect(pkt) {
		t.Fatal("slot was not reset after firing")
	}
}

func TestLoopDetectorDistinguishesPackets(t *testing.T) {
	c := newTestContra(t)
	a := &sim.Packet{FlowID: 1, Dst: 9, Seq: 1, TTL: 64}
	b := &sim.Packet{FlowID: 1, Dst: 9, Seq: 2, TTL: 30}
	c.loopDetect(a)
	// Packet b maps to a different signature: its much lower TTL must
	// not be attributed to packet a.
	if c.loopDetect(b) {
		t.Fatal("distinct packets shared a loop record")
	}
}

func TestLoopDetectorDirectionSensitive(t *testing.T) {
	// The same flow's data and acks (same FlowID and Seq, different
	// Dst) must not share a slot signature.
	h1 := pktHash(42, topo.NodeID(1), 7)
	h2 := pktHash(42, topo.NodeID(2), 7)
	if h1 == h2 {
		t.Fatal("pktHash ignores direction")
	}
	f1 := flowletHash(42, topo.NodeID(1))
	f2 := flowletHash(42, topo.NodeID(2))
	if f1 == f2 {
		t.Fatal("flowletHash ignores direction")
	}
}

func TestSweepEvictsStaleEntries(t *testing.T) {
	g := topo.Fig4Square()
	gh := withHosts(g, "S", "D")
	comp := compileOn(t, gh, "minimize(path.util)", core.Options{})
	e := sim.NewEngine()
	n := sim.NewNetwork(e, gh, sim.Config{})
	routers := Deploy(n, comp)
	n.Start()
	warm := 12 * comp.Opts.ProbePeriodNs
	e.Run(warm)
	n.StartFlows([]sim.FlowSpec{{
		ID: 1, Src: gh.MustNode("HS"), Dst: gh.MustNode("HD"), Size: 50_000, Start: warm,
	}})
	e.Run(warm + 4*comp.Opts.ProbePeriodNs)
	s := routers[gh.MustNode("S")]
	if s.srcPins.Len() == 0 {
		t.Fatal("expected a source pin after traffic")
	}
	// After the flow ends and several sweep periods pass, the pin is
	// gone.
	e.Run(e.Now() + 64*comp.Opts.ProbePeriodNs)
	if s.srcPins.Len() != 0 {
		t.Fatalf("stale source pins survived sweep: %d", s.srcPins.Len())
	}
}
