package topo

import (
	"fmt"
	"math/rand"
)

// Default link parameters used by the generators; callers can override
// via the Config struct.
const (
	DefaultFabricBW = 10e9  // 10 Gbps switch-switch
	DefaultHostBW   = 10e9  // 10 Gbps host-switch
	DefaultDelay    = 20000 // 20us one-way, a WAN-ish safe default
	DCDelay         = 1000  // 1us one-way inside a data center
)

// Fattree builds a canonical k-ary fat-tree (k even): k pods, each with
// k/2 edge and k/2 aggregation switches, and (k/2)^2 core switches —
// 5k^2/4 switches total. If hostsPerEdge > 0, that many hosts attach to
// every edge switch. Link parameters follow data center defaults.
//
// Sizes used by the paper's Figure 9/10 x-axis: k=4 → 20 switches,
// k=10 → 125, k=14 → 245, k=18 → 405, k=20 → 500.
func Fattree(k, hostsPerEdge int) *Graph {
	if k < 2 || k%2 != 0 {
		panic(fmt.Sprintf("topo: Fattree k must be even and >= 2, got %d", k))
	}
	g := New(fmt.Sprintf("fattree-k%d", k))
	half := k / 2
	edges := make([][]NodeID, k)
	aggs := make([][]NodeID, k)
	for p := 0; p < k; p++ {
		edges[p] = make([]NodeID, half)
		aggs[p] = make([]NodeID, half)
		for i := 0; i < half; i++ {
			edges[p][i] = g.AddNodeRole(fmt.Sprintf("e%d_%d", p, i), Switch, RoleEdge, p)
		}
		for i := 0; i < half; i++ {
			aggs[p][i] = g.AddNodeRole(fmt.Sprintf("a%d_%d", p, i), Switch, RoleAgg, p)
		}
	}
	cores := make([]NodeID, half*half)
	for i := range cores {
		cores[i] = g.AddNodeRole(fmt.Sprintf("c%d", i), Switch, RoleCore, -1)
	}
	for p := 0; p < k; p++ {
		// Full bipartite edge-agg inside the pod.
		for _, e := range edges[p] {
			for _, a := range aggs[p] {
				g.AddLink(e, a, DefaultFabricBW, DCDelay)
			}
		}
		// Agg i connects to cores [i*half, (i+1)*half).
		for i, a := range aggs[p] {
			for j := 0; j < half; j++ {
				g.AddLink(a, cores[i*half+j], DefaultFabricBW, DCDelay)
			}
		}
	}
	for p := 0; p < k; p++ {
		for i, e := range edges[p] {
			for h := 0; h < hostsPerEdge; h++ {
				hid := g.AddNodeRole(fmt.Sprintf("h%d_%d_%d", p, i, h), Host, RoleNone, p)
				g.AddLink(e, hid, DefaultHostBW, DCDelay)
			}
		}
	}
	return g
}

// FattreeSwitchCount returns the number of switches in a k-ary fat-tree.
func FattreeSwitchCount(k int) int { return 5 * k * k / 4 }

// LeafSpineConfig parameterizes LeafSpine.
type LeafSpineConfig struct {
	Leaves       int
	Spines       int
	HostsPerLeaf int
	HostBW       float64 // bits/s
	FabricBW     float64 // bits/s leaf-spine links
	DelayNs      int64
}

// LeafSpine builds a two-tier leaf-spine fabric. The paper's data center
// experiments (Figures 11-14) use 32 hosts at 10 Gbps with 40 Gbps
// bisection bandwidth and 4:1 oversubscription, which corresponds to
// 4 leaves x 8 hosts with 2 spines and 10 Gbps fabric links.
func LeafSpine(cfg LeafSpineConfig) *Graph {
	if cfg.Leaves <= 0 || cfg.Spines <= 0 {
		panic("topo: LeafSpine needs leaves and spines > 0")
	}
	if cfg.HostBW == 0 {
		cfg.HostBW = DefaultHostBW
	}
	if cfg.FabricBW == 0 {
		cfg.FabricBW = DefaultFabricBW
	}
	if cfg.DelayNs == 0 {
		cfg.DelayNs = DCDelay
	}
	g := New(fmt.Sprintf("leafspine-%dx%d", cfg.Leaves, cfg.Spines))
	leaves := make([]NodeID, cfg.Leaves)
	for i := range leaves {
		leaves[i] = g.AddNodeRole(fmt.Sprintf("l%d", i), Switch, RoleEdge, i)
	}
	for s := 0; s < cfg.Spines; s++ {
		sp := g.AddNodeRole(fmt.Sprintf("s%d", s), Switch, RoleCore, -1)
		for _, l := range leaves {
			g.AddLink(l, sp, cfg.FabricBW, cfg.DelayNs)
		}
	}
	for i, l := range leaves {
		for h := 0; h < cfg.HostsPerLeaf; h++ {
			hid := g.AddNodeRole(fmt.Sprintf("h%d_%d", i, h), Host, RoleNone, i)
			g.AddLink(l, hid, cfg.HostBW, cfg.DelayNs)
		}
	}
	return g
}

// PaperDataCenter returns the Figure 11 configuration: 32 hosts at
// 10 Gbps, 4:1 oversubscription, 40 Gbps bisection (4 leaves x 8 hosts,
// 2 spines).
func PaperDataCenter() *Graph {
	return LeafSpine(LeafSpineConfig{Leaves: 4, Spines: 2, HostsPerLeaf: 8})
}

// RandomConnected builds a connected random graph over n switches with
// approximately avgDegree average degree: a uniform random spanning tree
// (guaranteeing connectivity) plus random extra edges. Deterministic for
// a given seed. The edge target is capped at n(n-1)/2, the most a
// simple graph has. Used for the Figure 9b/10b compiler scalability
// sweep.
func RandomConnected(n int, avgDegree float64, seed int64) *Graph {
	if n < 2 {
		panic("topo: RandomConnected needs n >= 2")
	}
	rng := rand.New(rand.NewSource(seed))
	g := New(fmt.Sprintf("random-%d", n))
	ids := make([]NodeID, n)
	for i := 0; i < n; i++ {
		ids[i] = g.AddNode(fmt.Sprintf("r%d", i), Switch)
	}
	// Random spanning tree: attach each new node to a uniformly chosen
	// existing node (random recursive tree).
	type pair struct{ a, b NodeID }
	have := make(map[pair]bool)
	addEdge := func(a, b NodeID) bool {
		if a == b {
			return false
		}
		if a > b {
			a, b = b, a
		}
		if have[pair{a, b}] {
			return false
		}
		have[pair{a, b}] = true
		g.AddLink(a, b, DefaultFabricBW, DefaultDelay)
		return true
	}
	for i := 1; i < n; i++ {
		addEdge(ids[i], ids[rng.Intn(i)])
	}
	wantEdges := min(int(avgDegree*float64(n)/2), n*(n-1)/2)
	for g.NumLinks() < wantEdges {
		a, b := ids[rng.Intn(n)], ids[rng.Intn(n)]
		addEdge(a, b)
	}
	return g
}

// Abilene returns the 11-node Internet2 Abilene backbone used by the
// paper's wide-area experiments (Figure 15), with the standard 14
// links. Links are 40 Gbps per §6.4 with propagation delays roughly
// proportional to geographic distance.
func Abilene() *Graph { return AbileneScaled(1) }

// AbileneScaled returns Abilene with propagation delays multiplied by
// scale. The paper's wide-area FCT experiments exhibit millisecond
// flow completion times, implying sub-geographic delays in their ns-3
// setup; scale 0.02 gives a coast-to-coast RTT near 1.2ms and makes
// flows bandwidth-bound so that the load sweep is meaningful.
func AbileneScaled(scale float64) *Graph {
	g := New("abilene")
	names := []string{
		"SEA", // Seattle
		"SNV", // Sunnyvale
		"LA",  // Los Angeles
		"DEN", // Denver
		"KC",  // Kansas City
		"HOU", // Houston
		"CHI", // Chicago
		"IND", // Indianapolis
		"ATL", // Atlanta
		"WDC", // Washington DC
		"NYC", // New York
	}
	for _, n := range names {
		g.AddNode(n, Switch)
	}
	if scale <= 0 {
		scale = 1
	}
	link := func(a, b string, delayUs int64) {
		d := int64(float64(delayUs*1000) * scale)
		if d < 1000 {
			d = 1000
		}
		g.AddLink(g.MustNode(a), g.MustNode(b), 40e9, d)
	}
	link("SEA", "SNV", 8000)
	link("SEA", "DEN", 10000)
	link("SNV", "LA", 3000)
	link("SNV", "DEN", 9000)
	link("LA", "HOU", 12000)
	link("DEN", "KC", 5000)
	link("KC", "HOU", 7000)
	link("KC", "IND", 4000)
	link("HOU", "ATL", 9000)
	link("ATL", "IND", 5000)
	link("ATL", "WDC", 6000)
	link("CHI", "IND", 2000)
	link("CHI", "NYC", 8000)
	link("NYC", "WDC", 3000)
	return g
}

// AbileneWithHosts returns Abilene with one host per switch, used for
// wide-area FCT simulations.
func AbileneWithHosts(hostBW float64) *Graph {
	return AbileneWithHostsScaled(hostBW, 1)
}

// AbileneWithHostsScaled is AbileneWithHosts over AbileneScaled.
func AbileneWithHostsScaled(hostBW, scale float64) *Graph {
	g := AbileneScaled(scale)
	if hostBW == 0 {
		hostBW = 40e9
	}
	for _, s := range append([]NodeID(nil), g.Switches()...) {
		h := g.AddNode("H_"+g.Node(s).Name, Host)
		g.AddLink(s, h, hostBW, 1000)
	}
	return g
}

// Paper example topologies used in unit tests.

// Fig4Square is Figure 4(b)-(h): S-A, A-B, B-S triangle, A-D, B-D, S-D.
func Fig4Square() *Graph {
	g := New("fig4b")
	for _, n := range []string{"S", "A", "B", "D"} {
		g.AddNode(n, Switch)
	}
	add := func(a, b string) {
		g.AddLink(g.MustNode(a), g.MustNode(b), DefaultFabricBW, DCDelay)
	}
	add("S", "A")
	add("S", "B")
	add("S", "D")
	add("A", "B")
	add("A", "D")
	add("B", "D")
	return g
}

// Fig5Diamond is Figure 5: A-B, B-C, B-D, C-D.
func Fig5Diamond() *Graph {
	g := New("fig5")
	for _, n := range []string{"A", "B", "C", "D"} {
		g.AddNode(n, Switch)
	}
	add := func(a, b string) {
		g.AddLink(g.MustNode(a), g.MustNode(b), DefaultFabricBW, DCDelay)
	}
	add("A", "B")
	add("B", "C")
	add("B", "D")
	add("C", "D")
	return g
}

// Fig6 is the running compilation example of Figure 6(a): A-B, A-C,
// B-C, B-D, C-D.
func Fig6() *Graph {
	g := New("fig6")
	for _, n := range []string{"A", "B", "C", "D"} {
		g.AddNode(n, Switch)
	}
	add := func(a, b string) {
		g.AddLink(g.MustNode(a), g.MustNode(b), DefaultFabricBW, DCDelay)
	}
	add("A", "B")
	add("A", "C")
	add("B", "C")
	add("B", "D")
	add("C", "D")
	return g
}

// Fig8Zigzag is Figure 8(a): two parallel 3-hop paths S-C-E-F-D (upper)
// and S-A-E-B-D (lower) sharing middle node E.
func Fig8Zigzag() *Graph {
	g := New("fig8a")
	for _, n := range []string{"S", "A", "B", "C", "D", "E", "F"} {
		g.AddNode(n, Switch)
	}
	add := func(a, b string) {
		g.AddLink(g.MustNode(a), g.MustNode(b), DefaultFabricBW, DCDelay)
	}
	add("S", "C")
	add("C", "E")
	add("E", "F")
	add("F", "D")
	add("S", "A")
	add("A", "E")
	add("E", "B")
	add("B", "D")
	return g
}
