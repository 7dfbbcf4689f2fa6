package dataplane

import (
	"testing"

	"contra/internal/core"
	"contra/internal/metrics"
	"contra/internal/policy"
	"contra/internal/sim"
	"contra/internal/topo"
	"contra/internal/trace"
)

// BenchmarkProbeProcessing measures the switch runtime's probe hot
// path (PROCESSPROBE): the per-probe cost a P4 target would pay in
// pipeline stages shows up here as pure CPU.
func BenchmarkProbeProcessing(b *testing.B) {
	g := topo.Fattree(4, 0)
	pol := policy.MustParse("minimize(path.util)")
	comp, err := core.Compile(g, pol, core.Options{})
	if err != nil {
		b.Fatal(err)
	}
	e := sim.NewEngine()
	n := sim.NewNetwork(e, g, sim.Config{})
	routers := Deploy(n, comp)
	n.Start()
	e.Run(2 * comp.Opts.ProbePeriodNs) // tables warm

	sw := g.MustNode("e0_0")
	r := routers[sw]
	origin := g.MustNode("e1_0")
	send, _ := comp.PG.SendState(origin)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := n.NewPacket()
		p.Kind = sim.Probe
		p.Origin = origin
		p.Version = uint32(i + 10)
		p.Tag = int32(send)
		p.MV[0] = 0.25
		// Port 0 attaches an agg on e0_0.
		r.Handle(p, 0)
		// Drain whatever the multicast scheduled.
		e.Run(e.Now() + 1)
	}
}

// attachHooks installs observability hooks on a deployed, not yet
// started network.
type attachHooks func(e *sim.Engine, n *sim.Network, routers map[topo.NodeID]*Contra)

// dataForwardingFixture warms the paper's data center under Contra and
// returns a step that forwards the next packet of one pinned flow
// through leaf l0: SWIFORWARDPKT with a warm flowlet table. A nil
// attach leaves every hook off.
func dataForwardingFixture(tb testing.TB, attach attachHooks) (step func()) {
	g := topo.PaperDataCenter()
	pol := policy.MustParse("minimize((path.len, path.util))")
	comp, err := core.Compile(g, pol, core.Options{})
	if err != nil {
		tb.Fatal(err)
	}
	e := sim.NewEngine()
	n := sim.NewNetwork(e, g, sim.Config{})
	routers := Deploy(n, comp)
	if attach != nil {
		attach(e, n, routers)
	}
	n.Start()
	e.Run(12 * comp.Opts.ProbePeriodNs)

	l0 := g.MustNode("l0")
	r := routers[l0]
	srcHost := g.MustNode("h0_0")
	dstHost := g.MustNode("h1_0")
	hostPort := g.PortTo(l0, srcHost)
	var seq int32
	return func() {
		p := n.NewPacket()
		p.Kind = sim.Data
		p.Size = 1500
		p.Dst = dstHost
		p.FlowID = 42
		p.Seq = seq
		seq++
		p.TTL = sim.InitialTTL
		p.Tag = -1
		r.Handle(p, hostPort)
		e.Run(e.Now() + 1)
	}
}

// attachTracing is decision-level tracing bounded by a decision ring,
// as a long campaign would run it.
func attachTracing(_ *sim.Engine, n *sim.Network, routers map[topo.NodeID]*Contra) {
	rec := trace.NewRecorder(trace.Decisions)
	rec.SetDecisionCap(4096)
	n.Trace = rec
	for _, r := range routers {
		r.SetTracer(rec)
	}
}

// attachTelemetry is the telemetry sampler as a campaign would run it:
// churn hooks live on every router, the periodic sampling timer armed,
// ring storage bounded.
func attachTelemetry(e *sim.Engine, n *sim.Network, routers map[topo.NodeID]*Contra) {
	const intervalNs = 100_000
	m := metrics.NewRecorder(intervalNs)
	m.SetSampleCap(1024)
	n.AttachMetrics(m)
	for _, id := range n.Topo.Switches() {
		routers[id].SetChurn(m.RegisterRouter(n.Topo.Node(id).Name))
	}
	e.Every(0, intervalNs, sim.TickFunc(n.SampleMetrics))
}

func benchDataForwarding(b *testing.B, attach attachHooks) {
	step := dataForwardingFixture(b, attach)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step()
	}
}

// BenchmarkDataForwarding measures SWIFORWARDPKT with a warm flowlet
// table.
func BenchmarkDataForwarding(b *testing.B) { benchDataForwarding(b, nil) }

// BenchmarkDataForwardingTraced is BenchmarkDataForwarding with
// decision-level tracing attached: the delta against the plain
// benchmark is the observability tax on SWIFORWARDPKT.
func BenchmarkDataForwardingTraced(b *testing.B) { benchDataForwarding(b, attachTracing) }

// BenchmarkDataForwardingMetrics is BenchmarkDataForwarding with the
// telemetry sampler attached: the delta against the plain benchmark is
// the telemetry tax on SWIFORWARDPKT.
func BenchmarkDataForwardingMetrics(b *testing.B) { benchDataForwarding(b, attachTelemetry) }

// TestDataForwardingAllocatesNothing holds SWIFORWARDPKT on a warm
// flowlet table to zero allocations per packet with the observability
// hooks off, with decision tracing on and with telemetry sampling on
// (AllocsPerRun's own warm-up call pins the flowlet).
func TestDataForwardingAllocatesNothing(t *testing.T) {
	for _, tc := range []struct {
		name   string
		attach attachHooks
	}{
		{"hooks off", nil},
		{"decision tracing on", attachTracing},
		{"telemetry sampling on", attachTelemetry},
	} {
		t.Run(tc.name, func(t *testing.T) {
			step := dataForwardingFixture(t, tc.attach)
			if allocs := testing.AllocsPerRun(1000, step); allocs != 0 {
				t.Fatalf("forwarding one data packet allocates %.2f times, want 0", allocs)
			}
		})
	}
}

// probeFanoutFixture warms a k=8 fat-tree (80 switches, hostsPerEdge
// hosts on each edge switch) with no flows under minimize(path.util):
// what then runs each period is the probe protocol alone — originate
// bursts, event-queue scheduling, PROCESSPROBE along product-graph
// out-edges.
func probeFanoutFixture(tb testing.TB, opts core.Options, hostsPerEdge int) (*sim.Engine, *sim.Network, *core.Compiled) {
	g := topo.Fattree(8, hostsPerEdge)
	pol := policy.MustParse("minimize(path.util)")
	comp, err := core.Compile(g, pol, opts)
	if err != nil {
		tb.Fatal(err)
	}
	e := sim.NewEngine()
	n := sim.NewNetwork(e, g, sim.Config{})
	Deploy(n, comp)
	n.Start()
	e.Run(12 * comp.Opts.ProbePeriodNs) // tables warm
	return e, n, comp
}

// packedFanout is the probe aggregation the packed benchmark and the
// wire-count test run: multi-origin packing plus delta suppression.
var packedFanout = core.Options{ProbePacking: true, SuppressEps: 0.01, RefreshEvery: 4}

// BenchmarkProbeFanoutFattree8 measures one full probe period on a
// k=8 fat-tree: every origin emits a probe per pid x port and the
// fabric floods them. It must not allocate in steady state.
func BenchmarkProbeFanoutFattree8(b *testing.B) {
	e, _, comp := probeFanoutFixture(b, core.Options{}, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Run(e.Now() + comp.Opts.ProbePeriodNs)
	}
}

// BenchmarkProbeFanoutFattree8Packed is BenchmarkProbeFanoutFattree8
// with multi-origin probe packing and delta suppression on: transit
// re-advertisements are batched into one packed probe per port and
// unchanged origins are suppressed between forced refreshes.
func BenchmarkProbeFanoutFattree8Packed(b *testing.B) {
	e, _, comp := probeFanoutFixture(b, packedFanout, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Run(e.Now() + comp.Opts.ProbePeriodNs)
	}
}

// BenchmarkProbeFanoutFattree8PackedLoaded is the packed benchmark on a
// fabric that carries traffic, as a campaign cell's does: every host
// sends a constant-rate flow to another pod (so data packets are freed
// into the packet pool between every two flushes, and utilisation moves
// so suppression cannot quiet the probes) and one flow per pod is paced
// past the flowlet timeout (so each of its packets re-decides a flowlet
// at every hop). The allocations per period it reports are the ones a
// whole cell pays in steady state; the idle benchmark above reports 0
// whatever the loaded fabric does.
func BenchmarkProbeFanoutFattree8PackedLoaded(b *testing.B) {
	e, n, comp := probeFanoutFixture(b, packedFanout, 1)
	hosts := n.Topo.Hosts()
	const wire = (sim.MSS + sim.FrameHeader) * 8 // bits per CBR packet
	paced := wire / float64(3*comp.Opts.FlowletTimeoutNs/2) * 1e9
	var flows []sim.FlowSpec
	for i, h := range hosts {
		// Four edge switches a pod, one host each: +5 is another pod.
		f := sim.FlowSpec{ID: uint64(i + 1), Src: h, Dst: hosts[(i+5)%len(hosts)], RateBps: 2e9, Start: e.Now()}
		if i%4 == 0 {
			f.RateBps = paced
		}
		flows = append(flows, f)
	}
	n.StartFlows(flows)
	e.Run(e.Now() + 128*comp.Opts.ProbePeriodNs) // queues, pools and tables reach their working size
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Run(e.Now() + comp.Opts.ProbePeriodNs)
	}
}

// TestPackingHalvesWireProbes is the machine-independent form of the
// packed/unpacked benchmark ratio: over one forced-refresh cycle on the
// benchmarks' warmed fat-tree, packing and suppression put at most half
// as many probe packets on the wire. Packets are counted from the
// network's probe byte counter: an unpacked probe is exactly probeSize
// bytes, and a packed one at least an empty packed frame, so the packed
// count is an upper bound.
func TestPackingHalvesWireProbes(t *testing.T) {
	probeBytes := func(opts core.Options) (float64, *core.Compiled) {
		e, n, comp := probeFanoutFixture(t, opts, 0)
		before := n.Totals().ProbeBytes
		e.Run(e.Now() + int64(packedFanout.RefreshEvery)*comp.Opts.ProbePeriodNs)
		return n.Totals().ProbeBytes - before, comp
	}
	bytes, comp := probeBytes(core.Options{})
	unpacked := bytes / float64(comp.Stats.ProbeBytes+18)
	bytes, comp = probeBytes(packedFanout)
	packed := bytes / float64(comp.PackedProbeBytes(0)+18)
	if unpacked == 0 || packed > unpacked/2 {
		t.Fatalf("wire probes per refresh cycle: packed <= %.0f, unpacked %.0f; want packed <= half", packed, unpacked)
	}
}

// BenchmarkPolicySwap measures the runtime-update hot path: atomically
// installing an already-compiled policy into every router of a warm
// k=8 fat-tree fleet (80 switches), plus the probe churn of the first
// post-swap period — the dominant cost of §5's live policy updates as
// the fabric re-converges under the new tag space. Recompilation is
// deliberately outside the loop (BenchmarkCompileFattreeMU covers it),
// matching how chaos pre-compiles swap targets at arm time.
func BenchmarkPolicySwap(b *testing.B) {
	g := topo.Fattree(8, 0)
	compA, err := core.Compile(g, policy.MustParse("minimize(path.util)"), core.Options{})
	if err != nil {
		b.Fatal(err)
	}
	compB, err := compA.Recompile("minimize(path.len)")
	if err != nil {
		b.Fatal(err)
	}
	e := sim.NewEngine()
	n := sim.NewNetwork(e, g, sim.Config{})
	fleet := DeployFleet(n, compA)
	n.Start()
	e.Run(12 * compA.Opts.ProbePeriodNs) // tables warm
	targets := [2]*core.Compiled{compB, compA}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fleet.Install(targets[i&1])
		e.Run(e.Now() + compA.Opts.ProbePeriodNs)
	}
}

// BenchmarkCompileFattreeMU isolates the compiler on the figure 9
// mid-size point.
func BenchmarkCompileFattreeMU(b *testing.B) {
	g := topo.Fattree(10, 0)
	pol := policy.MustParse("minimize(path.util)")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Compile(g, pol, core.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}
