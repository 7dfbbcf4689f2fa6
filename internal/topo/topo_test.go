package topo

import (
	"bytes"
	"math"
	"slices"
	"strings"
	"testing"
)

func TestFattreeShape(t *testing.T) {
	for _, k := range []int{4, 10, 14, 18, 20} {
		g := Fattree(k, 0)
		want := FattreeSwitchCount(k)
		if got := len(g.Switches()); got != want {
			t.Errorf("Fattree(%d): %d switches, want %d", k, got, want)
		}
		// Link count: k pods * (k/2)^2 edge-agg + k * (k/2)^2 agg-core.
		half := k / 2
		wantLinks := 2 * k * half * half
		if got := g.NumLinks(); got != wantLinks {
			t.Errorf("Fattree(%d): %d links, want %d", k, got, wantLinks)
		}
		if err := g.Validate(); err != nil {
			t.Errorf("Fattree(%d): %v", k, err)
		}
	}
}

func TestFattreeHostsAndRoles(t *testing.T) {
	g := Fattree(4, 2)
	if got := len(g.Hosts()); got != 16 { // 8 edge switches * 2 hosts
		t.Fatalf("hosts = %d, want 16", got)
	}
	var edge, agg, core int
	for _, id := range g.Switches() {
		switch g.Node(id).Role {
		case RoleEdge:
			edge++
		case RoleAgg:
			agg++
		case RoleCore:
			core++
		}
	}
	if edge != 8 || agg != 8 || core != 4 {
		t.Fatalf("roles edge/agg/core = %d/%d/%d, want 8/8/4", edge, agg, core)
	}
	for _, h := range g.Hosts() {
		e := g.HostEdge(h)
		if g.Node(e).Role != RoleEdge {
			t.Fatalf("host %s attached to %s (role %s)", g.Node(h).Name, g.Node(e).Name, g.Node(e).Role)
		}
	}
}

func TestFattreeDiameterAndPaths(t *testing.T) {
	g := Fattree(4, 0)
	// Any two edge switches in different pods are exactly 4 hops apart.
	e00 := g.MustNode("e0_0")
	e10 := g.MustNode("e1_0")
	d := g.HopsFrom(e00)
	if d[e10] != 4 {
		t.Fatalf("cross-pod edge distance = %d, want 4", d[e10])
	}
	// Same pod: 2 hops via any agg.
	e01 := g.MustNode("e0_1")
	if d[e01] != 2 {
		t.Fatalf("same-pod edge distance = %d, want 2", d[e01])
	}
	// ECMP next hops from e0_0 toward e1_0 are both pod-0 aggs.
	nh := g.ECMPNextHops(e00, e10)
	if len(nh) != 2 {
		t.Fatalf("ECMP next hops = %v, want 2 aggs", nh)
	}
	for _, m := range nh {
		if g.Node(m).Role != RoleAgg || g.Node(m).Pod != 0 {
			t.Fatalf("unexpected next hop %s", g.Node(m).Name)
		}
	}
}

func TestPaperDataCenter(t *testing.T) {
	g := PaperDataCenter()
	if got := len(g.Hosts()); got != 32 {
		t.Fatalf("hosts = %d, want 32", got)
	}
	if got := len(g.Switches()); got != 6 {
		t.Fatalf("switches = %d, want 6 (4 leaves + 2 spines)", got)
	}
	// 4:1 oversubscription: 8 hosts x 10G down, 2 x 10G up per leaf.
	l0 := g.MustNode("l0")
	var up, down int
	for _, p := range g.Ports(l0) {
		if g.Node(p.Peer).Kind == Host {
			down++
		} else {
			up++
		}
	}
	if down != 8 || up != 2 {
		t.Fatalf("leaf0 down/up = %d/%d, want 8/2", down, up)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestRandomConnected(t *testing.T) {
	for _, n := range []int{10, 100, 300} {
		g := RandomConnected(n, 4, 42)
		if err := g.Validate(); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if got := g.NumNodes(); got != n {
			t.Fatalf("n=%d: nodes = %d", n, got)
		}
		wantEdges := int(4 * float64(n) / 2)
		if g.NumLinks() < n-1 || g.NumLinks() < wantEdges-1 {
			t.Fatalf("n=%d: links = %d, want >= %d", n, g.NumLinks(), wantEdges)
		}
	}
	// Below five switches, degree 4 asks for more edges than exist: the
	// target is capped at the complete graph.
	for n := 2; n < 5; n++ {
		if got := RandomConnected(n, 4, 1).NumLinks(); got != n*(n-1)/2 {
			t.Fatalf("n=%d: links = %d, want %d", n, got, n*(n-1)/2)
		}
	}
	// Determinism.
	a := RandomConnected(50, 4, 7)
	b := RandomConnected(50, 4, 7)
	if a.NumLinks() != b.NumLinks() {
		t.Fatal("same seed produced different graphs")
	}
	for i := 0; i < a.NumLinks(); i++ {
		la, lb := a.Link(LinkID(i)), b.Link(LinkID(i))
		if la.A != lb.A || la.B != lb.B {
			t.Fatal("same seed produced different edges")
		}
	}
}

func TestAbilene(t *testing.T) {
	g := Abilene()
	if g.NumNodes() != 11 {
		t.Fatalf("nodes = %d, want 11", g.NumNodes())
	}
	if g.NumLinks() != 14 {
		t.Fatalf("links = %d, want 14", g.NumLinks())
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	// Coast-to-coast multipath: SEA to NYC has at least 2 disjoint paths.
	paths := g.KShortestPaths(g.MustNode("SEA"), g.MustNode("NYC"), 4)
	if len(paths) < 2 {
		t.Fatalf("SEA-NYC paths = %d, want >= 2", len(paths))
	}
	gh := AbileneWithHosts(0)
	if got := len(gh.Hosts()); got != 11 {
		t.Fatalf("AbileneWithHosts hosts = %d, want 11", got)
	}
}

func TestShortestPathDeterministicAndValid(t *testing.T) {
	g := Abilene()
	src, dst := g.MustNode("SEA"), g.MustNode("ATL")
	p := g.ShortestPath(src, dst)
	if p == nil || p[0] != src || p[len(p)-1] != dst {
		t.Fatalf("bad path %v", g.Names(p))
	}
	for i := 0; i+1 < len(p); i++ {
		if g.LinkBetween(p[i], p[i+1]) == nil {
			t.Fatalf("non-adjacent hop in %v", g.Names(p))
		}
	}
	q := g.ShortestPath(src, dst)
	if !p.Equal(q) {
		t.Fatal("ShortestPath not deterministic")
	}
	hops := g.HopsFrom(dst)
	if int32(len(p)-1) != hops[src] {
		t.Fatalf("path len %d != BFS dist %d", len(p)-1, hops[src])
	}
}

func TestLinkFailureAffectsPaths(t *testing.T) {
	g := Fig4Square()
	s, d := g.MustNode("S"), g.MustNode("D")
	if got := g.HopsFrom(d)[s]; got != 1 {
		t.Fatalf("S-D dist = %d, want 1", got)
	}
	l := g.LinkBetween(s, d)
	g.SetDown(l.ID, true)
	if got := g.HopsFrom(d)[s]; got != 2 {
		t.Fatalf("after failure S-D dist = %d, want 2", got)
	}
	g.SetDown(l.ID, false)
	if got := g.HopsFrom(d)[s]; got != 1 {
		t.Fatalf("after recovery S-D dist = %d, want 1", got)
	}
}

func TestKShortestPaths(t *testing.T) {
	g := Fig6()
	a, d := g.MustNode("A"), g.MustNode("D")
	paths := g.KShortestPaths(a, d, 10)
	// Simple paths from A to D in Fig6: ABD, ACD, ABCD, ACBD.
	if len(paths) != 4 {
		t.Fatalf("paths = %d, want 4: %v", len(paths), paths)
	}
	// Sorted by latency: 2-hop paths first.
	if len(paths[0]) != 3 || len(paths[1]) != 3 || len(paths[2]) != 4 {
		t.Fatalf("path lengths wrong: %v %v %v", paths[0], paths[1], paths[2])
	}
	seen := map[string]bool{}
	for _, p := range paths {
		key := strings.Join(g.Names(p), "")
		if seen[key] {
			t.Fatalf("duplicate path %s", key)
		}
		seen[key] = true
		if p[0] != a || p[len(p)-1] != d {
			t.Fatalf("bad endpoints in %s", key)
		}
		// Loop-free.
		nodes := map[NodeID]bool{}
		for _, n := range p {
			if nodes[n] {
				t.Fatalf("loop in %s", key)
			}
			nodes[n] = true
		}
	}
}

func TestAllSimplePaths(t *testing.T) {
	g := Fig6()
	a, d := g.MustNode("A"), g.MustNode("D")
	paths := g.AllSimplePaths(a, d, 10, 0)
	if len(paths) != 4 {
		t.Fatalf("paths = %d, want 4", len(paths))
	}
	// maxHops limits path length.
	short := g.AllSimplePaths(a, d, 2, 0)
	if len(short) != 2 {
		t.Fatalf("2-hop paths = %d, want 2", len(short))
	}
	// limit caps output.
	lim := g.AllSimplePaths(a, d, 10, 1)
	if len(lim) != 1 {
		t.Fatalf("limited paths = %d, want 1", len(lim))
	}
}

func TestCloneIndependence(t *testing.T) {
	g := Fig4Square()
	c := g.Clone()
	l := g.LinkBetween(g.MustNode("S"), g.MustNode("D"))
	c.SetDown(l.ID, true)
	if g.Link(l.ID).Down {
		t.Fatal("clone mutation leaked into original")
	}
	if c.NumNodes() != g.NumNodes() || c.NumLinks() != g.NumLinks() {
		t.Fatal("clone shape differs")
	}
}

func TestMaxSwitchRTT(t *testing.T) {
	g := Fig4Square() // all links 1us, diameter 1..2 hops
	rtt := g.MaxSwitchRTT()
	// Longest shortest-latency path is 1 hop = 1us, so RTT = 2us... but
	// S-A etc are direct; every pair adjacent except none. All pairs
	// adjacent? S-A,S-B,S-D,A-B,A-D,B-D: yes, complete graph. RTT=2us.
	if rtt != 2*DCDelay {
		t.Fatalf("rtt = %d, want %d", rtt, 2*DCDelay)
	}
	ab := Abilene()
	if ab.MaxSwitchRTT() <= 0 {
		t.Fatal("abilene rtt should be positive")
	}
}

func TestParseAndFormatRoundTrip(t *testing.T) {
	src := `
# tiny test topology
node A switch
node B switch
node H1 host
link A B 10G 5us
link A H1 1G 1us
`
	g, err := Parse(strings.NewReader(src), "tiny")
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 3 || g.NumLinks() != 2 {
		t.Fatalf("parsed shape wrong: %s", g)
	}
	l := g.LinkBetween(g.MustNode("A"), g.MustNode("B"))
	if l.Bandwidth != 10e9 || l.Delay != 5000 {
		t.Fatalf("link params wrong: %+v", l)
	}
	var buf bytes.Buffer
	if err := Format(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, err := Parse(strings.NewReader(buf.String()), "tiny2")
	if err != nil {
		t.Fatalf("reparse: %v\n%s", err, buf.String())
	}
	if g2.NumNodes() != 3 || g2.NumLinks() != 2 {
		t.Fatal("round trip shape wrong")
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"node",                       // missing name
		"node A switch\nnode A host", // duplicate
		"link A B",                   // unknown nodes
		"node A switch\nlink A",      // missing endpoint
		"frobnicate",                 // unknown directive
		"node A switch\nnode B switch\nlink A B -5G", // bad bandwidth
	}
	for _, src := range cases {
		if _, err := Parse(strings.NewReader(src), "bad"); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", src)
		}
	}
}

func TestParseUnits(t *testing.T) {
	if v, err := ParseBandwidth("1.5G"); err != nil || v != 1.5e9 {
		t.Fatalf("1.5G -> %v, %v", v, err)
	}
	if v, err := ParseBandwidth("200M"); err != nil || v != 2e8 {
		t.Fatalf("200M -> %v, %v", v, err)
	}
	if v, err := ParseDuration("1ms"); err != nil || v != 1e6 {
		t.Fatalf("1ms -> %v, %v", v, err)
	}
	if v, err := ParseDuration("300ns"); err != nil || v != 300 {
		t.Fatalf("300ns -> %v, %v", v, err)
	}
	if v, err := ParseDuration("2s"); err != nil || v != 2e9 {
		t.Fatalf("2s -> %v, %v", v, err)
	}
}

func TestHopsUnreachable(t *testing.T) {
	g := New("two-islands")
	a := g.AddNode("A", Switch)
	b := g.AddNode("B", Switch)
	c := g.AddNode("C", Switch)
	g.AddLink(a, b, 1e9, 1000)
	d := g.HopsFrom(a)
	if d[c] != math.MaxInt32 {
		t.Fatalf("unreachable distance = %d, want MaxInt32", d[c])
	}
	if g.ShortestPath(a, c) != nil {
		t.Fatal("path to unreachable node should be nil")
	}
	if err := g.Validate(); err == nil {
		t.Fatal("Validate should fail on disconnected switch graph")
	}
}

// TestPortToIndexInvalidation checks the reverse-port table against
// the naive scan, including rebuilds after AddLink and on clones.
func TestPortToIndexInvalidation(t *testing.T) {
	g := New("idx")
	a := g.AddNode("A", Switch)
	b := g.AddNode("B", Switch)
	c := g.AddNode("C", Switch)
	g.AddLink(a, b, 1e9, 10)
	if got := g.PortTo(a, b); got != 0 {
		t.Fatalf("PortTo(a,b) = %d, want 0", got)
	}
	if got := g.PortTo(a, c); got != -1 {
		t.Fatalf("PortTo(a,c) = %d, want -1 before linking", got)
	}
	// Mutating after a lookup must invalidate the prebuilt index.
	g.AddLink(a, c, 1e9, 10)
	if got := g.PortTo(a, c); got != 1 {
		t.Fatalf("PortTo(a,c) = %d after AddLink, want 1", got)
	}
	// Parallel links: the lowest port index wins, like the old scan.
	g.AddLink(a, b, 1e9, 10)
	if got := g.PortTo(a, b); got != 0 {
		t.Fatalf("PortTo(a,b) = %d with parallel links, want 0", got)
	}
	// Clones rebuild their own index.
	cl := g.Clone()
	cl.AddLink(b, c, 1e9, 10)
	if got := cl.PortTo(b, c); got != 2 {
		t.Fatalf("clone PortTo(b,c) = %d, want 2", got)
	}
	if got := g.PortTo(b, c); got != -1 {
		t.Fatalf("original PortTo(b,c) = %d, want -1", got)
	}
	// Exhaustive agreement with the naive definition.
	for _, from := range []NodeID{a, b, c} {
		want := map[NodeID]int{}
		for i, p := range g.Ports(from) {
			if _, seen := want[p.Peer]; !seen {
				want[p.Peer] = i
			}
		}
		for _, to := range []NodeID{a, b, c} {
			exp, ok := want[to]
			if !ok {
				exp = -1
			}
			if got := g.PortTo(from, to); got != exp {
				t.Fatalf("PortTo(%d,%d) = %d, want %d", from, to, got, exp)
			}
		}
	}
}

// TestPortsMatchPerNodeAppends holds the CSR port table to its
// definition, refPorts: every node's ports are its links in ID order,
// as one append per link would leave them. It covers parallel links,
// hosts, a node with no links, an AddLink after a query (the table is
// laid out again) and a clone mutated on its own.
func TestPortsMatchPerNodeAppends(t *testing.T) {
	check := func(step string, g *Graph) {
		t.Helper()
		for id := range g.NumNodes() {
			n := NodeID(id)
			got, want := g.Ports(n), refPorts(g, n)
			if !slices.Equal(got, want) {
				t.Fatalf("%s: Ports(%s) = %v, want %v", step, g.Node(n).Name, got, want)
			}
			if cap(got) != len(got) {
				t.Fatalf("%s: Ports(%s) has spare capacity %d", step, g.Node(n).Name, cap(got)-len(got))
			}
		}
	}
	g := New("csr")
	a := g.AddNode("A", Switch)
	b := g.AddNode("B", Switch)
	c := g.AddNode("C", Switch)
	h := g.AddNode("h", Host)
	g.AddNode("lone", Switch)
	g.AddLink(a, b, 1e9, 10)
	g.AddLink(h, c, 1e9, 10)
	g.AddLink(b, a, 1e9, 10) // parallel, reversed ends
	check("built", g)
	g.AddLink(c, a, 1e9, 10) // after a query
	g.AddLink(a, b, 1e9, 10)
	check("grown", g)
	if got := g.Ports(a); len(got) != 4 || got[2] != (Port{Link: 3, Peer: c}) {
		t.Fatalf("Ports(A) = %v, want C on port 2", got)
	}
	cl := g.Clone()
	cl.AddLink(b, c, 1e9, 10)
	cl.SetDown(0, true)
	check("clone", cl)
	check("original after clone", g)
	if len(g.Ports(b)) != 3 || len(cl.Ports(b)) != 4 {
		t.Fatalf("clone's AddLink reached the original: B has %d and %d ports", len(g.Ports(b)), len(cl.Ports(b)))
	}
	for _, gg := range []*Graph{Fattree(4, 2), RandomConnected(30, 4, 7), Abilene()} {
		check(gg.Name, gg)
	}
}

// TestSnapshotInvalidation checks that every mutator invalidates every
// cached query: after each step, on a warm graph, the queries reflect
// the new state (spot values here, every query against the reference
// via checkQueries), on the original and on a clone mutated on its own.
func TestSnapshotInvalidation(t *testing.T) {
	g := New("inval")
	a := g.AddNode("A", Switch)
	b := g.AddNode("B", Switch)
	c := g.AddNode("C", Switch)
	h := g.AddNode("H", Host)
	ab := g.AddLink(a, b, 1e9, 10)
	g.AddLink(b, c, 1e9, 10)
	g.AddLink(a, h, 1e9, 10)
	check := func(step string, g *Graph) {
		t.Helper()
		if err := checkQueries(g); err != nil {
			t.Fatalf("after %s: %v", step, err)
		}
	}
	check("build", g) // warms every cached query
	if got := g.HopsFrom(a)[c]; got != 2 {
		t.Fatalf("A-C = %d hops, want 2", got)
	}
	if got := g.MaxSwitchRTT(); got != 40 {
		t.Fatalf("rtt = %d, want 40", got)
	}

	d := g.AddNodeRole("D", Switch, RoleCore, -1)
	check("AddNodeRole", g)
	if got := g.Switches(); len(got) != 4 || got[3] != d {
		t.Fatalf("Switches after AddNodeRole = %v", got)
	}
	if got := g.HopsFrom(a); len(got) != 5 || got[d] != math.MaxInt32 {
		t.Fatalf("HopsFrom after AddNodeRole = %v", got)
	}

	ac := g.AddLink(a, c, 1e9, 10)
	check("AddLink", g)
	if got := g.HopsFrom(a)[c]; got != 1 {
		t.Fatalf("A-C = %d hops after AddLink, want 1", got)
	}
	if got := g.PortTo(a, c); got != 2 {
		t.Fatalf("PortTo(A,C) = %d after AddLink, want 2", got)
	}
	if got := g.MaxSwitchRTT(); got != 20 {
		t.Fatalf("rtt = %d after AddLink, want 20", got)
	}

	cl := g.Clone() // of a warm graph
	g.SetDown(ac, true)
	check("SetDown(true)", g)
	check("SetDown(true) on the original", cl)
	if got := g.SwitchNeighbors(a); len(got) != 1 || got[0] != b {
		t.Fatalf("SwitchNeighbors(A) = %v with A-C down, want [B]", got)
	}
	if got := g.ECMPNextHops(a, c); len(got) != 1 || got[0] != b {
		t.Fatalf("ECMPNextHops(A,C) = %v with A-C down, want [B]", got)
	}
	if got := cl.HopsFrom(a)[c]; got != 1 {
		t.Fatalf("clone A-C = %d hops, want 1: the original's SetDown leaked", got)
	}

	cl.SetDown(ab, true)
	check("clone SetDown(true)", cl)
	check("clone SetDown(true) on the clone", g)
	if got := cl.HopsFrom(a)[b]; got != 2 {
		t.Fatalf("clone A-B = %d hops with A-B down, want 2", got)
	}
	if got := g.HopsFrom(a)[b]; got != 1 {
		t.Fatalf("A-B = %d hops, want 1: the clone's SetDown leaked", got)
	}

	g.SetDown(ac, false)
	check("SetDown(false)", g)
	if got := g.ECMPNextHops(a, c); len(got) != 1 || got[0] != c {
		t.Fatalf("ECMPNextHops(A,C) = %v with A-C back up, want [C]", got)
	}
	if got := g.MaxSwitchRTT(); got != 20 {
		t.Fatalf("rtt = %d with A-C back up, want 20", got)
	}
}

// TestWarmQueriesDoNotAllocate pins the per-call cost of the queries
// that sit inside consumers' loops: views into the snapshot, no copies.
func TestWarmQueriesDoNotAllocate(t *testing.T) {
	g := Fattree(8, 2)
	sw := g.Switches()
	edge, host := sw[0], g.Hosts()[0]
	var sink int
	if n := testing.AllocsPerRun(100, func() {
		sink += len(g.Switches()) + len(g.Hosts()) + len(g.SwitchNeighbors(edge))
		sink += g.PortTo(edge, host) + g.PortTo(edge, sw[len(sw)-1])
		sink += int(g.HopsFrom(edge)[sw[1]])
		sink += int(g.MaxSwitchRTT()) + len(g.SortedNames())
	}); n != 0 {
		t.Fatalf("warm queries allocate %v times per run, want 0", n)
	}
}
