package dataplane

import (
	"math/rand"
	"testing"

	"contra/internal/core"
	"contra/internal/pg"
	"contra/internal/sim"
	"contra/internal/topo"
)

// TestNoPersistentLoopsAfterChurn exercises §5.1's guarantee: with
// versioned probes (and the own-upstream refresh rule), forwarding state
// may loop transiently while probes are in flight, but once metrics
// stabilize the entries converge loop-free. We churn a random topology
// with bursty traffic, let it settle for a few probe rounds, and then
// verify every source's tag walk reaches every destination without
// cycling. Only the two switches with hosts are destinations; the rest
// must hold no register toward them.
func TestNoPersistentLoopsAfterChurn(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 4; trial++ {
		g := topo.RandomConnected(8+rng.Intn(8), 3, int64(trial+200))
		// Attach hosts to two random switches for churn traffic.
		gh := g.Clone()
		sw := gh.Switches()
		h1 := gh.AddNode("HX", topo.Host)
		gh.AddLink(sw[rng.Intn(len(sw))], h1, 10e9, 1000)
		h2 := gh.AddNode("HY", topo.Host)
		for {
			s := sw[rng.Intn(len(sw))]
			if gh.PortTo(s, h1) < 0 && gh.HostEdge(h1) != s {
				gh.AddLink(s, h2, 10e9, 1000)
				break
			}
		}

		comp := compileOn(t, gh, "minimize(path.util)", core.Options{})
		e := sim.NewEngine()
		n := sim.NewNetwork(e, gh, sim.Config{})
		routers := Deploy(n, comp)
		n.Start()
		warm := 12 * comp.Opts.ProbePeriodNs
		e.Run(warm)

		// Churn: several staggered bursts.
		for i := 0; i < 5; i++ {
			n.StartFlows([]sim.FlowSpec{{
				ID: uint64(i + 1), Src: h1, Dst: h2,
				Size: 500_000, Start: warm + int64(i)*3*comp.Opts.ProbePeriodNs,
			}})
		}
		e.Run(warm + 30*comp.Opts.ProbePeriodNs)
		// Settle: traffic done, a few fresh probe rounds.
		e.Run(e.Now() + 8*comp.Opts.ProbePeriodNs)

		hosted := hostedSwitches(gh)
		for _, src := range gh.Switches() {
			for _, dst := range gh.Switches() {
				if src == dst || !hosted[dst] {
					continue
				}
				if !walkTerminates(t, gh, routers, comp, src, dst) {
					t.Fatalf("trial %d: persistent loop or missing route %s->%s",
						trial, gh.Node(src).Name, gh.Node(dst).Name)
				}
			}
		}
		checkNoRegistersTowardHostless(t, gh, routers, comp)
	}
}

// walkTerminates follows the tag walk from src's best entry and
// reports whether it reaches dst within a generous hop bound.
func walkTerminates(t *testing.T, g *topo.Graph, routers map[topo.NodeID]*Contra, comp *core.Compiled, src, dst topo.NodeID) bool {
	t.Helper()
	vnode, pid, _, ok := routers[src].BestEntry(dst)
	if !ok {
		return false
	}
	cur := src
	var v pg.NodeID = vnode
	for hops := 0; hops <= 3*g.NumNodes(); hops++ {
		if cur == dst {
			return true
		}
		nhop, ntag, ok := routers[cur].Entry(dst, v, pid)
		if !ok {
			return false
		}
		cur = g.Ports(cur)[nhop].Peer
		v = ntag
	}
	return false
}
