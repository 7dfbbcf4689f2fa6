package sim

import (
	"math"
	"testing"

	"contra/internal/topo"
)

func TestMinRTOGovernsLossRecovery(t *testing.T) {
	// A tail drop with no following traffic can only be repaired by
	// the retransmission timer, so the flow's completion time is at
	// least the configured minimum RTO.
	run := func(minRTO int64) float64 {
		g := lineTopo(1e9)
		e := NewEngine()
		n := NewNetwork(e, g, Config{BufferBytes: 4 * 1500, MinRTONs: minRTO})
		for _, s := range g.Switches() {
			n.SetRouter(s, &hopRouter{})
		}
		n.Start()
		n.StartFlows([]FlowSpec{{
			ID: 1, Src: g.MustNode("H0"), Dst: g.MustNode("H1"), Size: 400_000, Start: 0,
		}})
		e.Run(30e9)
		if n.CompletedFlows() != 1 {
			t.Fatalf("flow incomplete at minRTO=%d", minRTO)
		}
		return n.FCT.Quantile(1)
	}
	fast := run(300_000)   // 300us floor
	slow := run(8_000_000) // 8ms floor
	if slow <= fast {
		t.Fatalf("larger min RTO should slow lossy flows: %.3fms vs %.3fms",
			slow*1e3, fast*1e3)
	}
}

func TestDefaultMinRTOApplied(t *testing.T) {
	e := NewEngine()
	n := NewNetwork(e, lineTopo(1e9), Config{})
	if n.Cfg.MinRTONs != defaultMinRTONs {
		t.Fatalf("default min RTO = %d, want %d", n.Cfg.MinRTONs, defaultMinRTONs)
	}
}

func TestPacketPoolReuse(t *testing.T) {
	g := lineTopo(10e9)
	e := NewEngine()
	n := NewNetwork(e, g, Config{})
	p1 := n.NewPacket()
	p1.FlowID = 42
	p1.Visited = 0xff
	n.Free(p1)
	p2 := n.NewPacket()
	if p2.FlowID != 0 || p2.Visited != 0 {
		t.Fatal("pooled packet not zeroed on reuse")
	}
	if p2 != p1 {
		t.Fatal("pool did not reuse the freed packet")
	}
	// Clone copies every field but detaches from the freelist.
	p2.FlowID = 7
	p2.Seq = 9
	c := n.Clone(p2)
	if c.FlowID != 7 || c.Seq != 9 {
		t.Fatal("clone lost fields")
	}
	if c == p2 {
		t.Fatal("clone returned the same packet")
	}
}

func TestLastPacketShorterThanMSS(t *testing.T) {
	// A 1 byte flow still completes, with a single small packet.
	g := lineTopo(10e9)
	n := runLine(t, g, []FlowSpec{{
		ID: 1, Src: g.MustNode("H0"), Dst: g.MustNode("H1"), Size: 1, Start: 0,
	}}, 1e9)
	if n.CompletedFlows() != 1 {
		t.Fatal("tiny flow incomplete")
	}
}

func TestManySimultaneousSmallFlows(t *testing.T) {
	g := lineTopo(10e9)
	var flows []FlowSpec
	for i := 0; i < 200; i++ {
		flows = append(flows, FlowSpec{
			ID: uint64(i + 1), Src: g.MustNode("H0"), Dst: g.MustNode("H1"),
			Size: 3000, Start: 0,
		})
	}
	n := runLine(t, g, flows, 5e9)
	if n.CompletedFlows() != 200 {
		t.Fatalf("completed %d/200", n.CompletedFlows())
	}
}

func TestDuplicateFlowIDPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on duplicate flow id")
		}
	}()
	g := lineTopo(10e9)
	e := NewEngine()
	n := NewNetwork(e, g, Config{})
	for _, s := range g.Switches() {
		n.SetRouter(s, &hopRouter{})
	}
	n.Start()
	n.StartFlows([]FlowSpec{
		{ID: 1, Src: g.MustNode("H0"), Dst: g.MustNode("H1"), Size: 100, Start: 0},
		{ID: 1, Src: g.MustNode("H0"), Dst: g.MustNode("H1"), Size: 100, Start: 0},
	})
}

var _ = topo.Switch // keep the import if cases above change

// ecmpRouter is a static per-flow ECMP router for tests: every
// shortest-path next hop toward the destination's edge switch,
// resolved to ports at Attach, picked by flow id.
type ecmpRouter struct {
	sw    *SwitchDev
	ports map[topo.NodeID][]int // destination host -> candidate out ports
}

func (r *ecmpRouter) Attach(sw *SwitchDev) {
	r.sw = sw
	r.ports = make(map[topo.NodeID][]int)
	g := sw.Net.Topo
	for _, h := range g.Hosts() {
		edge := g.HostEdge(h)
		if edge == sw.ID {
			r.ports[h] = []int{g.PortTo(sw.ID, h)}
			continue
		}
		for _, nh := range g.ECMPNextHops(sw.ID, edge) {
			r.ports[h] = append(r.ports[h], g.PortTo(sw.ID, nh))
		}
	}
}

func (r *ecmpRouter) Handle(pkt *Packet, inPort int) {
	ports := r.ports[pkt.Dst]
	if len(ports) == 0 {
		r.sw.Drop(pkt, DropNoRoute)
		return
	}
	r.sw.Send(ports[pkt.FlowID%uint64(len(ports))], pkt)
}

// TestSteadyStateRunAllocatesNothing is the whole-path allocation
// check the micro-benchmarks cannot give: on a warmed fattree:4 ECMP
// cell with long-lived flows, a mid-run window in which no flow starts
// or completes — packets, ACKs, RTO re-arms, drops and retransmissions
// across every layer of the simulator — allocates nothing.
func TestSteadyStateRunAllocatesNothing(t *testing.T) {
	g := topo.Fattree(4, 2)
	e := NewEngine()
	n := NewNetwork(e, g, Config{})
	for _, s := range g.Switches() {
		n.SetRouter(s, &ecmpRouter{})
	}
	n.Start()
	hosts := g.Hosts()
	var flows []FlowSpec
	for i, src := range hosts {
		for j := 1; j <= 3; j++ {
			flows = append(flows, FlowSpec{
				ID: uint64(len(flows) + 1), Src: src, Dst: hosts[(i+5*j)%len(hosts)],
				Size: 1 << 30, Start: int64(i) * 1000,
			})
		}
	}
	n.StartFlows(flows)
	// Warm-up: slow start overshoots, queues fill and drop, the packet
	// pool and the event heap reach their working size.
	e.Run(20_000_000)
	before := n.DataPkts
	for i := 0; i < 5; i++ {
		if allocs := testing.AllocsPerRun(1, func() { e.Run(e.Now() + 500_000) }); allocs != 0 {
			t.Fatalf("window %d: Engine.Run allocated %v times in steady state", i, allocs)
		}
	}
	if n.DataPkts-before < 10_000 || n.Totals().Drops[DropQueue] == 0 || n.CompletedFlows() != 0 {
		t.Fatalf("windows were not a loaded steady state: %d data packets, %v queue drops, %d flows done",
			n.DataPkts-before, n.Totals().Drops[DropQueue], n.CompletedFlows())
	}
}

func TestOversizeFlowPanics(t *testing.T) {
	g := lineTopo(10e9)
	n := NewNetwork(NewEngine(), g, Config{})
	for _, s := range g.Switches() {
		n.SetRouter(s, &hopRouter{})
	}
	n.Start()
	h0, h1 := g.MustNode("H0"), g.MustNode("H1")
	n.StartFlows([]FlowSpec{{ID: 1, Src: h0, Dst: h1, Size: MaxFlowBytes}})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on a flow past MaxFlowBytes")
		}
	}()
	n.StartFlows([]FlowSpec{{ID: 2, Src: h0, Dst: h1, Size: MaxFlowBytes + 1}})
}

// TestCBRSeqIsInt32 pins how CBR traffic numbers its packets: the
// counter is int64, packets carry it as int32, so Seq runs 0, 1, 2, ...
// and first wraps at the 2³¹st packet.
func TestCBRSeqIsInt32(t *testing.T) {
	g := lineTopo(10e9)
	n := NewNetwork(NewEngine(), g, Config{})
	for _, s := range g.Switches() {
		n.SetRouter(s, &hopRouter{})
	}
	n.Start()
	var seqs []int32
	n.OnHostRx = func(p *Packet) { seqs = append(seqs, p.Seq) }
	n.StartFlows([]FlowSpec{{ID: 1, Src: g.MustNode("H0"), Dst: g.MustNode("H1"), RateBps: 1e9}})
	n.Eng.Run(200_000)
	if len(seqs) < 10 {
		t.Fatalf("%d CBR packets received", len(seqs))
	}
	for i, s := range seqs {
		if s != int32(i) {
			t.Fatalf("CBR packet %d carries Seq %d", i, s)
		}
	}
	last, first := int64(math.MaxInt32), int64(math.MaxInt32)+1
	if int64(int32(last)) != last || int32(first) >= 0 {
		t.Fatal("the first CBR packet whose Seq wraps is not the 2³¹st")
	}
}
