package sim

import (
	"math"
	"testing"

	"contra/internal/stats"
	"contra/internal/topo"
)

// hopRouter is a minimal static shortest-path router for tests.
type hopRouter struct {
	sw   *SwitchDev
	next map[topo.NodeID]int // destination host -> out port
}

func (r *hopRouter) Attach(sw *SwitchDev) {
	r.sw = sw
	r.next = make(map[topo.NodeID]int)
	g := sw.Net.Topo
	for _, h := range g.Hosts() {
		edge := g.HostEdge(h)
		if edge == sw.ID {
			r.next[h] = g.PortTo(sw.ID, h)
			continue
		}
		path := g.ShortestPath(sw.ID, edge)
		if path == nil {
			continue
		}
		r.next[h] = g.PortTo(sw.ID, path[1])
	}
}

func (r *hopRouter) Handle(pkt *Packet, inPort int) {
	port, ok := r.next[pkt.Dst]
	if !ok {
		r.sw.Drop(pkt, DropNoRoute)
		return
	}
	r.sw.Send(port, pkt)
}

// lineTopo: H0 - S0 - S1 - H1 with the given fabric bandwidth.
func lineTopo(bw float64) *topo.Graph { return lineTopoDelay(bw, 1000) }

// lineTopoDelay is lineTopo with the fabric link's propagation delay
// in ns; the host links keep 1 µs.
func lineTopoDelay(bw float64, delayNs int64) *topo.Graph {
	g := topo.New("line")
	s0 := g.AddNode("S0", topo.Switch)
	s1 := g.AddNode("S1", topo.Switch)
	h0 := g.AddNode("H0", topo.Host)
	h1 := g.AddNode("H1", topo.Host)
	g.AddLink(s0, s1, bw, delayNs)
	g.AddLink(s0, h0, 10e9, 1000)
	g.AddLink(s1, h1, 10e9, 1000)
	return g
}

func runLine(t *testing.T, g *topo.Graph, flows []FlowSpec, untilNs int64) *Network {
	t.Helper()
	e := NewEngine()
	n := NewNetwork(e, g, Config{})
	for _, s := range g.Switches() {
		n.SetRouter(s, &hopRouter{})
	}
	n.Start()
	n.StartFlows(flows)
	e.Run(untilNs)
	return n
}

func TestEngineOrderingAndEvery(t *testing.T) {
	e := NewEngine()
	var order []int
	e.At(100, func() { order = append(order, 2) })
	e.At(50, func() { order = append(order, 1) })
	e.At(100, func() { order = append(order, 3) }) // tie: insertion order
	ticks := 0
	cancel := e.Every(0, 10, TickFunc(func() { ticks++ })).Cancel
	e.At(35, func() { cancel() })
	e.Run(1000)
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("order = %v", order)
	}
	if ticks != 4 { // t=0,10,20,30
		t.Fatalf("ticks = %d, want 4", ticks)
	}
	if e.Now() != 1000 {
		t.Fatalf("now = %d, want 1000", e.Now())
	}
}

func TestSingleFlowCompletes(t *testing.T) {
	g := lineTopo(10e9)
	flows := []FlowSpec{{
		ID: 1, Src: g.MustNode("H0"), Dst: g.MustNode("H1"),
		Size: 100_000, Start: 0,
	}}
	n := runLine(t, g, flows, 1e9)
	if n.CompletedFlows() != 1 {
		t.Fatalf("completed = %d, want 1", n.CompletedFlows())
	}
	fct := n.FCT.Quantile(0.5)
	// 100KB at 10 Gbps is 80us serialization + a few RTTs of windowing;
	// it must land well under 5ms and above the bare 80us.
	if fct < 80e-6/2 || fct > 5e-3 {
		t.Fatalf("FCT = %v s, implausible", fct)
	}
}

func TestManyFlowsAllComplete(t *testing.T) {
	g := lineTopo(10e9)
	var flows []FlowSpec
	for i := 0; i < 20; i++ {
		flows = append(flows, FlowSpec{
			ID: uint64(i + 1), Src: g.MustNode("H0"), Dst: g.MustNode("H1"),
			Size: 50_000, Start: int64(i) * 10_000,
		})
	}
	n := runLine(t, g, flows, 2e9)
	if n.CompletedFlows() != 20 {
		t.Fatalf("completed = %d, want 20", n.CompletedFlows())
	}
}

func TestBottleneckSharing(t *testing.T) {
	// Two large flows share a 1 Gbps bottleneck: each should finish in
	// roughly 2x the solo time, and total goodput should be near line
	// rate.
	g := lineTopo(1e9)
	size := int64(1_000_000)
	flows := []FlowSpec{
		{ID: 1, Src: g.MustNode("H0"), Dst: g.MustNode("H1"), Size: size, Start: 0},
		{ID: 2, Src: g.MustNode("H0"), Dst: g.MustNode("H1"), Size: size, Start: 0},
	}
	n := runLine(t, g, flows, 10e9)
	if n.CompletedFlows() != 2 {
		t.Fatalf("completed = %d, want 2", n.CompletedFlows())
	}
	// Serialized both flows: 2MB at 1Gbps = 16ms minimum.
	worst := n.FCT.Quantile(1)
	if worst < 15e-3 || worst > 200e-3 {
		t.Fatalf("worst FCT = %v s, want ~16-200ms", worst)
	}
}

func TestQueueDropsUnderOverload(t *testing.T) {
	// CBR overload: 2x line rate into a small buffer must drop.
	g := lineTopo(1e9)
	e := NewEngine()
	n := NewNetwork(e, g, Config{BufferBytes: 20 * 1500})
	for _, s := range g.Switches() {
		n.SetRouter(s, &hopRouter{})
	}
	n.Start()
	n.StartFlows([]FlowSpec{{
		ID: 1, Src: g.MustNode("H0"), Dst: g.MustNode("H1"), RateBps: 2e9, Start: 0,
	}})
	e.Run(20e6) // 20ms
	if n.Totals().Drops[DropQueue] == 0 {
		t.Fatal("expected queue drops under 2x overload")
	}
}

func TestLinkFailureDropsTraffic(t *testing.T) {
	g := lineTopo(10e9)
	e := NewEngine()
	n := NewNetwork(e, g, Config{})
	for _, s := range g.Switches() {
		n.SetRouter(s, &hopRouter{})
	}
	n.Start()
	l := g.LinkBetween(g.MustNode("S0"), g.MustNode("S1"))
	n.Inject(NetworkEvent{At: 1_000_000, Kind: EvLinkDown, Link: l.ID})
	n.StartFlows([]FlowSpec{{
		ID: 1, Src: g.MustNode("H0"), Dst: g.MustNode("H1"), RateBps: 1e9, Start: 0,
	}})
	e.Run(5_000_000)
	if n.Totals().Drops[DropLinkDown] == 0 {
		t.Fatal("expected link-down drops after failure")
	}
	// Recovery restores delivery.
	before := n.Totals().Drops[DropLinkDown]
	n.Inject(NetworkEvent{At: e.Now(), Kind: EvLinkUp, Link: l.ID})
	e.Run(e.Now() + 5_000_000)
	after := n.Totals().Drops[DropLinkDown]
	if after > before+1 { // in-flight packet may still count once
		t.Fatalf("drops kept growing after recovery: %v -> %v", before, after)
	}
}

func TestTxUtilReflectsLoad(t *testing.T) {
	g := lineTopo(1e9)
	e := NewEngine()
	n := NewNetwork(e, g, Config{DRETauNs: 100_000})
	for _, s := range g.Switches() {
		n.SetRouter(s, &hopRouter{})
	}
	n.Start()
	// Half line rate.
	n.StartFlows([]FlowSpec{{
		ID: 1, Src: g.MustNode("H0"), Dst: g.MustNode("H1"), RateBps: 0.5e9, Start: 0,
	}})
	e.Run(3_000_000)
	s0 := n.Switch(g.MustNode("S0"))
	port := g.PortTo(g.MustNode("S0"), g.MustNode("S1"))
	u := s0.TxUtil(port)
	if math.Abs(u-0.5) > 0.15 {
		t.Fatalf("TxUtil = %v, want ~0.5", u)
	}
	// Reverse direction should be idle.
	s1 := n.Switch(g.MustNode("S1"))
	rport := g.PortTo(g.MustNode("S1"), g.MustNode("S0"))
	if v := s1.TxUtil(rport); v > 0.05 {
		t.Fatalf("reverse TxUtil = %v, want ~0", v)
	}
}

func TestRetransmissionRecoversLoss(t *testing.T) {
	// Tiny buffer forces drops; the transport must still deliver all
	// bytes.
	g := lineTopo(1e9)
	e := NewEngine()
	n := NewNetwork(e, g, Config{BufferBytes: 8 * 1500})
	for _, s := range g.Switches() {
		n.SetRouter(s, &hopRouter{})
	}
	n.Start()
	n.StartFlows([]FlowSpec{{
		ID: 1, Src: g.MustNode("H0"), Dst: g.MustNode("H1"), Size: 3_000_000, Start: 0,
	}})
	e.Run(10e9)
	if n.CompletedFlows() != 1 {
		t.Fatalf("flow did not complete; drops=%v rto=%v fast=%v",
			n.Totals().Drops[DropQueue], n.Totals().RTOs, n.Totals().FastRetx)
	}
	if n.Totals().Drops[DropQueue] == 0 {
		t.Fatal("test expected loss to exercise retransmission")
	}
}

func TestQueueSampling(t *testing.T) {
	g := lineTopo(1e9)
	e := NewEngine()
	n := NewNetwork(e, g, Config{})
	for _, s := range g.Switches() {
		n.SetRouter(s, &hopRouter{})
	}
	n.Start()
	n.StartFlows([]FlowSpec{{
		ID: 1, Src: g.MustNode("H0"), Dst: g.MustNode("H1"), RateBps: 2e9, Start: 0,
	}})
	e.Every(0, 100_000, TickFunc(n.SampleQueues))
	e.Run(10_000_000)
	if n.QueueMSS.Len() == 0 {
		t.Fatal("no queue samples")
	}
	if n.QueueMSS.Quantile(1) <= 0 {
		t.Fatal("overloaded link should show queueing")
	}
}

func TestVisitedLoopAccounting(t *testing.T) {
	// A deliberately looping router: S0 and S1 bounce fabric packets
	// until TTL would run out; every revisit increments LoopedPkts.
	g := lineTopo(10e9)
	e := NewEngine()
	n := NewNetwork(e, g, Config{TrackVisited: true})
	bounce := func() Router { return &bounceRouter{} }
	for _, s := range g.Switches() {
		n.SetRouter(s, bounce())
	}
	n.Start()
	n.StartFlows([]FlowSpec{{
		ID: 1, Src: g.MustNode("H0"), Dst: g.MustNode("H1"), RateBps: 1e8, Start: 0,
	}})
	e.Run(1_000_000)
	if n.LoopedPkts == 0 {
		t.Fatal("bouncing packets should register as loops")
	}
}

type bounceRouter struct{ sw *SwitchDev }

func (r *bounceRouter) Attach(sw *SwitchDev) { r.sw = sw }
func (r *bounceRouter) Handle(pkt *Packet, inPort int) {
	if pkt.TTL == 0 {
		r.sw.Drop(pkt, DropTTL)
		return
	}
	pkt.TTL--
	// Always forward out the fabric port, ping-ponging between S0/S1.
	for p := 0; p < r.sw.PortCount(); p++ {
		if r.sw.IsSwitchPort(p) {
			r.sw.Send(p, pkt)
			return
		}
	}
	r.sw.Drop(pkt, DropNoRoute)
}

func TestCBRThroughputSeries(t *testing.T) {
	g := lineTopo(10e9)
	e := NewEngine()
	n := NewNetwork(e, g, Config{})
	n.RxSeries = stats.NewTimeseries(1_000_000)
	for _, s := range g.Switches() {
		n.SetRouter(s, &hopRouter{})
	}
	n.Start()
	n.StartFlows([]FlowSpec{{
		ID: 1, Src: g.MustNode("H0"), Dst: g.MustNode("H1"), RateBps: 1e9, Start: 0,
	}})
	e.Run(10_000_000)
	pts := n.RxSeries.Points()
	if len(pts) < 8 {
		t.Fatalf("series bins = %d, want >= 8", len(pts))
	}
	// Steady state bins should carry ~1 Gbps.
	mid := pts[len(pts)/2]
	rate := n.RxSeries.Rate(mid.V)
	if math.Abs(rate-1e9)/1e9 > 0.15 {
		t.Fatalf("mid-series rate = %v bps, want ~1e9", rate)
	}
}

// TestDRETracksOfferedLoad calibrates the estimator behind path.util:
// one constant-bit-rate flow offers ρ of a 10 Gbps bottleneck, and
// once the 200us time constant has washed out the idle start (2ms,
// ten of them), every TxUtil reading on the bottleneck port over the
// next 8ms must lie within 0.01 of ρ and their mean within 0.002. The
// residue is the sawtooth of one frame landing on the counter: 1.5 kB
// against the C·τ = 250 kB that reads as full utilisation is 0.006 peak
// to peak at any ρ (readings stay within about 0.0035 of ρ).
func TestDRETracksOfferedLoad(t *testing.T) {
	const warmup, end, every = 2_000_000, 10_000_000, 50_000
	for _, rho := range []float64{0.1, 0.3, 0.5, 0.7, 0.9} {
		g := lineTopo(10e9)
		e := NewEngine()
		n := NewNetwork(e, g, Config{})
		for _, s := range g.Switches() {
			n.SetRouter(s, &hopRouter{})
		}
		n.Start()
		n.StartFlows([]FlowSpec{{
			ID: 1, Src: g.MustNode("H0"), Dst: g.MustNode("H1"), RateBps: rho * 10e9, Start: 0,
		}})
		s0 := n.Switch(g.MustNode("S0"))
		port := g.PortTo(s0.ID, g.MustNode("S1"))
		var sum float64
		var samples int
		e.Every(warmup, every, TickFunc(func() {
			u := s0.TxUtil(port)
			if math.Abs(u-rho) > 0.01 {
				t.Errorf("ρ=%.1f: TxUtil %.4f at %d ns", rho, u, e.Now())
			}
			sum += u
			samples++
		}))
		e.Run(end)
		if mean := sum / float64(samples); math.Abs(mean-rho) > 0.002 {
			t.Errorf("ρ=%.1f: mean TxUtil %.4f over %d readings", rho, mean, samples)
		}
	}
}

func TestFabricBytesAccounting(t *testing.T) {
	g := lineTopo(10e9)
	n := runLine(t, g, []FlowSpec{{
		ID: 1, Src: g.MustNode("H0"), Dst: g.MustNode("H1"), Size: 100_000, Start: 0,
	}}, 1e9)
	data := n.Totals().DataBytes
	if data < 100_000 {
		t.Fatalf("fabric data bytes = %v, want >= payload", data)
	}
	if n.Totals().AckBytes == 0 {
		t.Fatal("acks should cross the fabric")
	}
	if n.FabricBytes() <= data {
		t.Fatal("FabricBytes should include acks")
	}
}
