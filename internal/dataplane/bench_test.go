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
	e := sim.NewEngine(1)
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

// BenchmarkDataForwarding measures SWIFORWARDPKT with a warm flowlet
// table.
func BenchmarkDataForwarding(b *testing.B) {
	g := topo.PaperDataCenter()
	pol := policy.MustParse("minimize((path.len, path.util))")
	comp, err := core.Compile(g, pol, core.Options{})
	if err != nil {
		b.Fatal(err)
	}
	e := sim.NewEngine(1)
	n := sim.NewNetwork(e, g, sim.Config{})
	routers := Deploy(n, comp)
	n.Start()
	e.Run(12 * comp.Opts.ProbePeriodNs)

	l0 := g.MustNode("l0")
	r := routers[l0]
	srcHost := g.MustNode("h0_0")
	dstHost := g.MustNode("h1_0")
	hostPort := g.PortTo(l0, srcHost)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := n.NewPacket()
		p.Kind = sim.Data
		p.Size = 1500
		p.Src, p.Dst = srcHost, dstHost
		p.FlowID = 42
		p.Seq = int64(i)
		p.TTL = sim.InitialTTL
		p.Tag = -1
		r.Handle(p, hostPort)
		e.Run(e.Now() + 1)
	}
}

// BenchmarkDataForwardingTraced is BenchmarkDataForwarding with
// decision-level tracing attached (bounded by a decision ring, as a
// long campaign would run it): the measured delta against the plain
// benchmark is the observability tax on SWIFORWARDPKT, and the plain
// benchmark's own envelope — compared by scripts/bench.sh across
// commits — is what keeps the trace-off path at zero cost.
func BenchmarkDataForwardingTraced(b *testing.B) {
	g := topo.PaperDataCenter()
	pol := policy.MustParse("minimize((path.len, path.util))")
	comp, err := core.Compile(g, pol, core.Options{})
	if err != nil {
		b.Fatal(err)
	}
	e := sim.NewEngine(1)
	n := sim.NewNetwork(e, g, sim.Config{})
	routers := Deploy(n, comp)
	rec := trace.NewRecorder(trace.Decisions)
	rec.SetDecisionCap(4096)
	n.Trace = rec
	for _, r := range routers {
		r.SetTracer(rec)
	}
	n.Start()
	e.Run(12 * comp.Opts.ProbePeriodNs)

	l0 := g.MustNode("l0")
	r := routers[l0]
	srcHost := g.MustNode("h0_0")
	dstHost := g.MustNode("h1_0")
	hostPort := g.PortTo(l0, srcHost)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := n.NewPacket()
		p.Kind = sim.Data
		p.Size = 1500
		p.Src, p.Dst = srcHost, dstHost
		p.FlowID = 42
		p.Seq = int64(i)
		p.TTL = sim.InitialTTL
		p.Tag = -1
		r.Handle(p, hostPort)
		e.Run(e.Now() + 1)
	}
}

// BenchmarkDataForwardingMetrics is BenchmarkDataForwarding with the
// telemetry sampler attached (churn hooks live on every router, the
// periodic sampling timer armed, ring storage bounded as a campaign
// would run it): the delta against the plain benchmark is the
// telemetry tax on SWIFORWARDPKT. scripts/bench.sh holds it under the
// same 3x envelope as tracing and requires steady-state zero
// allocations (ring reuse after freeze).
func BenchmarkDataForwardingMetrics(b *testing.B) {
	g := topo.PaperDataCenter()
	pol := policy.MustParse("minimize((path.len, path.util))")
	comp, err := core.Compile(g, pol, core.Options{})
	if err != nil {
		b.Fatal(err)
	}
	e := sim.NewEngine(1)
	n := sim.NewNetwork(e, g, sim.Config{})
	routers := Deploy(n, comp)
	const intervalNs = 100_000
	m := metrics.NewRecorder(intervalNs)
	m.SetSampleCap(1024)
	n.AttachMetrics(m)
	for _, id := range g.Switches() {
		routers[id].SetChurn(m.RegisterRouter(g.Node(id).Name))
	}
	n.Start()
	e.Every(0, intervalNs, n.SampleMetrics)
	e.Run(12 * comp.Opts.ProbePeriodNs)

	l0 := g.MustNode("l0")
	r := routers[l0]
	srcHost := g.MustNode("h0_0")
	dstHost := g.MustNode("h1_0")
	hostPort := g.PortTo(l0, srcHost)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := n.NewPacket()
		p.Kind = sim.Data
		p.Size = 1500
		p.Src, p.Dst = srcHost, dstHost
		p.FlowID = 42
		p.Seq = int64(i)
		p.TTL = sim.InitialTTL
		p.Tag = -1
		r.Handle(p, hostPort)
		e.Run(e.Now() + 1)
	}
}

// BenchmarkProbeFanoutFattree8 measures one full probe period on a
// k=8 fat-tree (80 switches, the ROADMAP's profiling target): every
// origin emits a probe per pid x port and the fabric floods them along
// product-graph out-edges. The per-iteration cost is the whole
// period's event churn — originate bursts, event-queue scheduling,
// PROCESSPROBE — and must not allocate in steady state.
func BenchmarkProbeFanoutFattree8(b *testing.B) {
	g := topo.Fattree(8, 0)
	pol := policy.MustParse("minimize(path.util)")
	comp, err := core.Compile(g, pol, core.Options{})
	if err != nil {
		b.Fatal(err)
	}
	e := sim.NewEngine(1)
	n := sim.NewNetwork(e, g, sim.Config{})
	Deploy(n, comp)
	n.Start()
	e.Run(12 * comp.Opts.ProbePeriodNs) // tables warm, fwd maps sized
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Run(e.Now() + comp.Opts.ProbePeriodNs)
	}
}

// BenchmarkProbeFanoutFattree8Packed is BenchmarkProbeFanoutFattree8
// with multi-origin probe packing and delta suppression on: the same
// k=8 fat-tree probe period, but transit re-advertisements are batched
// into one packed probe per port and unchanged origins are suppressed
// between forced refreshes. The ratio to the unpacked benchmark is the
// PR 5 headline number (target >= 2x).
func BenchmarkProbeFanoutFattree8Packed(b *testing.B) {
	g := topo.Fattree(8, 0)
	pol := policy.MustParse("minimize(path.util)")
	comp, err := core.Compile(g, pol, core.Options{
		ProbePacking: true,
		SuppressEps:  0.01,
		RefreshEvery: 4,
	})
	if err != nil {
		b.Fatal(err)
	}
	e := sim.NewEngine(1)
	n := sim.NewNetwork(e, g, sim.Config{})
	Deploy(n, comp)
	n.Start()
	e.Run(12 * comp.Opts.ProbePeriodNs) // tables warm, fwd maps sized
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Run(e.Now() + comp.Opts.ProbePeriodNs)
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
	e := sim.NewEngine(1)
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
