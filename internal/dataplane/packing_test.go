package dataplane

import (
	"fmt"
	"slices"
	"testing"

	"contra/internal/core"
	"contra/internal/sim"
	"contra/internal/topo"
)

// deployOpts builds engine+network+routers under explicit options and
// runs the warmup.
func deployOpts(t *testing.T, g *topo.Graph, policySrc string, opts core.Options, warmupPeriods int) (*sim.Engine, *sim.Network, map[topo.NodeID]*Contra, *core.Compiled) {
	t.Helper()
	comp := compileOn(t, g, policySrc, opts)
	e := sim.NewEngine()
	n := sim.NewNetwork(e, g, sim.Config{})
	routers := Deploy(n, comp)
	n.Start()
	e.Run(int64(warmupPeriods) * comp.Opts.ProbePeriodNs)
	return e, n, routers, comp
}

// routeSnapshot captures every switch's source decision for every
// destination a host attaches to: the observable routing table.
// withPort includes the chosen egress port; callers comparing runs with
// a different probe arrival order leave it out, because the tie-break
// among equal-rank paths is arrival-order dependent (any of them is a
// correct table).
func routeSnapshot(g *topo.Graph, routers map[topo.NodeID]*Contra, withPort bool) map[string]string {
	out := make(map[string]string)
	hosted := hostedSwitches(g)
	for _, src := range g.Switches() {
		for _, dst := range g.Switches() {
			if src == dst || !hosted[dst] {
				continue
			}
			k := g.Node(src).Name + "->" + g.Node(dst).Name
			vnode, pid, rank, ok := routers[src].BestEntry(dst)
			if !ok {
				out[k] = "none"
				continue
			}
			out[k] = fmt.Sprintf("v%d pid%d rank%s", vnode, pid, rank.String())
			if withPort {
				port, _ := routers[src].BestNextHop(dst)
				out[k] += fmt.Sprintf(" port%d", port)
			}
		}
	}
	return out
}

// TestSuppressionTablesMatchUnsuppressed is the suppression
// correctness property: with epsilon 0 (exact repeats only) the final
// routing tables after quiescence must be identical to the
// unsuppressed run, with and without packing. The property is stated
// over load-independent metrics (hop count, latency): a utilization
// policy legitimately diverges, because packing shrinks the probes'
// own bandwidth footprint and with it the measured utilization — that
// is the optimization working, not a table bug (the util case is
// covered by reachability below and the FCT-level scenario test).
func TestSuppressionTablesMatchUnsuppressed(t *testing.T) {
	aggVariants := []struct {
		opts core.Options
		// Packing batches re-advertisements, changing the arrival
		// order that breaks ties among equal-rank paths; only the
		// suppression-only run preserves the exact egress choice.
		withPort bool
	}{
		{core.Options{SuppressEps: 0, RefreshEvery: 4}, true},
		{core.Options{ProbePacking: true}, false},
		{core.Options{ProbePacking: true, SuppressEps: 0, RefreshEvery: 4}, false},
	}
	for _, pol := range []string{"minimize(path.len)", "minimize(path.lat)"} {
		for _, v := range aggVariants {
			g := topo.Fattree(4, 2)
			_, _, base, _ := deployOpts(t, g, pol, core.Options{}, 30)
			want := routeSnapshot(g, base, v.withPort)
			g2 := topo.Fattree(4, 2)
			_, _, routers, comp := deployOpts(t, g2, pol, v.opts, 30)
			got := routeSnapshot(g2, routers, v.withPort)
			checkNoRegistersTowardHostless(t, g2, routers, comp)
			for k, w := range want {
				if w == "none" {
					t.Fatalf("%s %+v: baseline has no route for %s", pol, v.opts, k)
				}
				if got[k] != w {
					t.Errorf("%s %+v: %s diverged: got %q want %q", pol, v.opts, k, got[k], w)
				}
			}
		}
	}
	// Utilization policy: ranks may differ (less probe self-traffic)
	// but every pair must still converge to a live route.
	for _, v := range aggVariants {
		g := topo.Fattree(4, 2)
		_, _, routers, comp := deployOpts(t, g, "minimize(path.util)", v.opts, 30)
		checkNoRegistersTowardHostless(t, g, routers, comp)
		for k, val := range routeSnapshot(g, routers, false) {
			if val == "none" {
				t.Errorf("minimize(path.util) %+v: no route for %s", v.opts, k)
			}
		}
	}
}

// TestSuppressionSavesProbes proves the knobs actually reduce probe
// volume on an idle fabric: with suppression on, fabric probe bytes
// over a quiet window must drop well below the unsuppressed volume,
// and the suppression counter must account for skipped
// re-advertisements.
func TestSuppressionSavesProbes(t *testing.T) {
	run := func(opts core.Options) (probeBytes float64, saved, suppressed int64) {
		g := topo.Fattree(4, 2)
		e, n, _, comp := deployOpts(t, g, "minimize(path.util)", opts, 12)
		e.Run(e.Now() + 20*comp.Opts.ProbePeriodNs)
		tot := n.Totals()
		return tot.ProbeBytes, tot.ProbeTxSaved, tot.ProbeSuppressed
	}
	plainBytes, _, _ := run(core.Options{})
	packedBytes, saved, suppressed := run(core.Options{ProbePacking: true, SuppressEps: 0.01})
	if packedBytes >= plainBytes/4 {
		t.Errorf("packed+suppressed probe bytes %.0f, want < 1/4 of unpacked %.0f", packedBytes, plainBytes)
	}
	if saved <= 0 {
		t.Errorf("probe_tx_saved = %d, want > 0", saved)
	}
	if suppressed <= 0 {
		t.Errorf("probe_suppressed = %d, want > 0", suppressed)
	}
}

// TestSuppressedOriginReadvertisesWithinRefresh is the forced-refresh
// regression: silence an origin with rate-1.0 probe loss on its fabric
// links until every remote route to it expires, then clear the loss.
// Upstream switches now hold entries whose metrics are unchanged since
// their last advertisement — exactly what a large epsilon suppresses —
// so only the forced refresh every RefreshEvery periods can carry the
// recovery downstream. Remote switches must re-learn the origin within
// a few refresh horizons; a suppression bug that skips the forced
// refresh leaves them dark forever.
func TestSuppressedOriginReadvertisesWithinRefresh(t *testing.T) {
	const refreshEvery = 4
	for _, packing := range []bool{false, true} {
		g := topo.Fattree(4, 2)
		opts := core.Options{ProbePacking: packing, SuppressEps: 1.0, RefreshEvery: refreshEvery}
		e, n, routers, comp := deployOpts(t, g, "minimize(path.util)", opts, 12)
		period := comp.Opts.ProbePeriodNs

		// The origin is the first edge switch; the observer the last.
		edges := []topo.NodeID{}
		for _, s := range g.Switches() {
			if g.Node(s).Role == topo.RoleEdge {
				edges = append(edges, s)
			}
		}
		origin, observer := edges[0], edges[len(edges)-1]
		if !routers[observer].HasRoute(origin) {
			t.Fatalf("packing=%v: observer has no route to origin after warmup", packing)
		}

		var lossLinks []topo.LinkID
		for _, p := range g.Ports(origin) {
			if g.Node(p.Peer).Kind == topo.Switch {
				lossLinks = append(lossLinks, p.Link)
			}
		}
		n.SetProbeLossSeed(7)
		start := e.Now()
		for _, id := range lossLinks {
			n.Inject(sim.NetworkEvent{At: start, Kind: sim.EvProbeLoss, Link: id, Rate: 1.0})
		}
		// Expiry horizon is (failure-detect + refresh) periods + slack;
		// run well past it so every remote entry for the origin ages out.
		e.Run(start + 16*period)
		if routers[observer].HasRoute(origin) {
			t.Fatalf("packing=%v: observer still routes to silenced origin after 16 periods", packing)
		}
		clear := e.Now()
		for _, id := range lossLinks {
			n.Inject(sim.NetworkEvent{At: clear, Kind: sim.EvProbeLoss, Link: id, Rate: 0})
		}
		// Recovery budget: one refresh horizon per hop of the 4-hop
		// fat-tree path, plus propagation slack.
		deadline := clear + int64(4*refreshEvery+4)*period
		recovered := int64(-1)
		for e.Now() < deadline {
			e.Run(e.Now() + period)
			if routers[observer].HasRoute(origin) {
				recovered = e.Now() - clear
				break
			}
		}
		if recovered < 0 {
			t.Fatalf("packing=%v: origin never re-advertised within %d periods of loss clearing",
				packing, 4*refreshEvery+4)
		}
		t.Logf("packing=%v: re-learned origin %.1f periods after loss cleared",
			packing, float64(recovered)/float64(period))
	}
}

// TestFlushSharesBuffersOnlyWhereEntriesAgree gives a switch virtual
// nodes whose probe-out rows differ (port 0 in the first row alone,
// every other port in all of them) and flushes a pending list that
// covers them all. The ports that say the same share one entry buffer
// and port 0 holds its own; every port carries what a flush per port
// sends: its origin entries, then each pending register whose row holds
// the port, in the order they were queued.
func TestFlushSharesBuffersOnlyWhereEntriesAgree(t *testing.T) {
	g := topo.Abilene()
	comp := compileOn(t, g, diffPolicyWide, core.Options{ProbePacking: true})
	center := g.MustNode("ATL")
	e := sim.NewEngine()
	n := sim.NewNetwork(e, g, sim.Config{})
	c := New(comp, center)
	nPorts := len(g.Ports(center))
	if len(c.probeOut) < 2 || nPorts < 3 || c.prog.Origin == nil {
		t.Fatalf("ATL needs several virtual nodes, three ports and a send state: %d, %d", len(c.probeOut), nPorts)
	}
	rows := make([][]int, len(c.probeOut))
	for ord := range rows {
		for p := 0; p < nPorts; p++ {
			if ord == 0 || p > 0 {
				rows[ord] = append(rows[ord], p)
			}
		}
	}
	copy(c.probeOut, rows) // before Attach groups the ports
	n.SetRouter(center, c)
	log := make([][]emission, nPorts)
	for _, s := range g.Switches() {
		if s != center {
			n.SetRouter(s, &capture{sender: center, log: log})
		}
	}
	n.Start()

	// One entry per (origin, virtual node) this switch can hear of.
	var entries []wireEntry
	for u, v := range inTransitions(comp, c.prog) {
		for _, origin := range comp.Origins {
			if origin != center {
				entries = append(entries, wireEntry{origin: origin, tag: int32(u), version: 1, mv: [4]float64{0.5, float64(v)}})
			}
		}
	}
	slices.SortFunc(entries, func(a, b wireEntry) int { return int(a.origin-b.origin)*1000 + int(a.tag-b.tag) })
	p := n.NewPackedProbe(len(entries), c.mvW)
	for _, en := range entries {
		p.Packed.Append(sim.ProbeEntry{Origin: en.origin, Tag: en.tag, Version: en.version}, en.mv[:c.mvW]...)
	}
	c.Handle(p, 0)
	ords := map[int32]bool{}
	for _, i := range c.pend {
		_, ord, _ := c.unreg(i)
		ords[ord] = true
	}
	if len(ords) < 2 {
		t.Fatalf("the pending list covers %d virtual nodes, want several", len(ords))
	}
	pend := slices.Clone(c.pend)
	period := comp.Opts.ProbePeriodNs
	e.Run(originStagger(center, period) + period - 1) // one flush, delivered

	org := c.prog.Origin
	for port := 0; port < nPorts; port++ {
		var want []wireEntry
		if c.flushPorts[port].origin {
			for _, pid := range org.Pids {
				want = append(want, wireEntry{center, int32(org.VNode), uint8(pid), c.version, [4]float64{}})
			}
		}
		for _, i := range pend {
			oi, ord, pid := c.unreg(i)
			if slices.Contains(rows[ord], port) {
				var mv [4]float64
				copy(mv[:], c.mv(i))
				want = append(want, wireEntry{comp.Origins[oi], int32(c.prog.VNodes[ord]), pid, c.fwd[i].version, mv})
			}
		}
		if len(log[port]) != 1 || !slices.Equal(log[port][0].entries, want) {
			t.Fatalf("port %d carried %v, want one probe with %v", port, log[port], want)
		}
	}
	if log[0][0].buf == log[1][0].buf {
		t.Error("port 0, alone in its rows, shares a buffer with port 1")
	}
	for port := 2; port < nPorts; port++ {
		if log[port][0].buf != log[1][0].buf {
			t.Errorf("ports 1 and %d say the same but hold different buffers", port)
		}
	}
	if err := n.Audit(); err != nil {
		t.Fatal(err)
	}
}

// TestPackedProbeReadsOnlyItsPolicysMetrics: a packed probe's arrival
// reads only the link metrics its policy carries, as a standalone
// probe's does. Under minimize(path.len) it must leave its in-port's
// utilisation estimator unfolded. Copies of one warmed-up fabric differ
// only at one instant: one is left alone, one reads the in-port's
// utilisation by hand, and one is handed an empty packed probe on that
// port. Some nanoseconds later the third must read what the first does.
// A fold moves a later reading only in its last bits, and not at every
// gap, so the test first finds a gap at which the second reads
// otherwise.
func TestPackedProbeReadsOnlyItsPolicysMetrics(t *testing.T) {
	g := topo.Fattree(4, 2)
	sw := g.MustNode("a0_0")
	readAfter := func(gap int64, touch func(c *Contra, n *sim.Network, inPort int)) float64 {
		e, n, routers, _ := deployOpts(t, g, "minimize(path.len)", core.Options{ProbePacking: true}, 12)
		c := routers[sw]
		_, inPort := someTransition(c)
		touch(c, n, inPort)
		e.Run(e.Now() + gap)
		return c.sw.TxUtil(inPort)
	}
	var gap int64
	var untouched float64
	for gap = 1; ; gap++ {
		if gap > 100 {
			t.Fatal("no gap up to 100 ns at which a fold moves the next reading")
		}
		untouched = readAfter(gap, func(*Contra, *sim.Network, int) {})
		folded := readAfter(gap, func(c *Contra, _ *sim.Network, inPort int) { c.sw.TxUtil(inPort) })
		if folded != untouched {
			break
		}
	}
	arrived := readAfter(gap, func(c *Contra, n *sim.Network, inPort int) {
		p := n.NewPackedProbe(0, c.mvW)
		p.Era = c.Era()
		c.Handle(p, inPort)
	})
	if arrived != untouched {
		t.Errorf("%d ns after a packed probe the in-port reads utilisation %v, untouched %v: the probe folded its estimator",
			gap, arrived, untouched)
	}
}
