package pg

import (
	"math/rand"
	"testing"

	"contra/internal/policy"
	"contra/internal/topo"
)

func build(t *testing.T, g *topo.Graph, src string) *Graph {
	t.Helper()
	pol, err := policy.Parse(src, policy.ParseOptions{Symbols: g.SortedNames()})
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	pgr, err := Build(g, pol)
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	return pgr
}

func TestMinUtilProductGraphIsTopology(t *testing.T) {
	// With no regexes there is exactly one virtual node per switch and
	// the product graph is the topology itself (both directions).
	g := topo.Fig4Square()
	pgr := build(t, g, "minimize(path.util)")
	if pgr.NumNodes() != len(g.Switches()) {
		t.Fatalf("virtual nodes = %d, want %d\n%s", pgr.NumNodes(), len(g.Switches()), pgr.Dump())
	}
	edges := 0
	for v := 0; v < pgr.NumNodes(); v++ {
		edges += len(pgr.Out(NodeID(v)))
	}
	if edges != 2*g.NumLinks() {
		t.Fatalf("PG edges = %d, want %d", edges, 2*g.NumLinks())
	}
	if pgr.MaxTagsPerSwitch() != 1 || pgr.TagBits() != 0 {
		t.Fatalf("MU needs 1 tag (0 bits), got %d (%d bits)", pgr.MaxTagsPerSwitch(), pgr.TagBits())
	}
	for _, x := range g.Switches() {
		if _, ok := pgr.SendState(x); !ok {
			t.Fatalf("switch %s should be a valid destination", g.Node(x).Name)
		}
	}
}

func TestFig6RunningExample(t *testing.T) {
	// The paper's running example (Figure 6): A may use exactly path
	// ABD; B may use any path to D, least utilized; everything else is
	// disallowed.
	g := topo.Fig6()
	pgr := build(t, g, "minimize(if A B D then 0 else if B .* D then path.util else inf)")

	count := func(name string) int {
		return len(pgr.VirtualNodes(g.MustNode(name)))
	}
	// Figure 6(d): C has C0; B has B0 and B1; A has A0, A1. D has its
	// sending state plus possibly a transit state for (non-simple)
	// B.*D paths that revisit D; the data plane never uses the latter
	// because probes are dropped at their origin switch.
	if count("C") != 1 || count("B") != 2 || count("A") != 2 {
		t.Fatalf("virtual node counts D=%d C=%d B=%d A=%d, want C=1 B=2 A=2\n%s",
			count("D"), count("C"), count("B"), count("A"), pgr.Dump())
	}
	if count("D") < 1 || count("D") > 2 {
		t.Fatalf("D virtual nodes = %d, want 1 or 2", count("D"))
	}
	// Only D is a valid destination: the regexes end at D.
	for _, name := range []string{"A", "B", "C"} {
		if _, ok := pgr.SendState(g.MustNode(name)); ok {
			t.Errorf("%s should not be a destination under this policy", name)
		}
	}
	if _, ok := pgr.SendState(g.MustNode("D")); !ok {
		t.Fatal("D must be a destination")
	}
	// Tag field: max 2 tags per switch = 1 bit.
	if pgr.TagBits() != 1 {
		t.Fatalf("tag bits = %d, want 1", pgr.TagBits())
	}
}

func TestProbeWalkMatchesCompliance(t *testing.T) {
	// For every simple path, the reverse probe walk exists iff it can
	// reach a decision, and the acceptance bits at the walked node
	// agree with reference regex matching.
	topos := []*topo.Graph{topo.Fig4Square(), topo.Fig5Diamond(), topo.Fig6(), topo.Fig8Zigzag()}
	policies := []string{
		"minimize(path.util)",
		"minimize(if A B D then 0 else if B .* D then path.util else inf)",
		"minimize(if .* B .* then path.util else inf)",
		"minimize(if .* B A .* then inf else path.util)",
		"minimize(if A .* then path.util else path.lat)",
	}
	for _, g := range topos {
		for _, src := range policies {
			pol, err := policy.Parse(src, policy.ParseOptions{Symbols: g.SortedNames()})
			if err != nil {
				t.Fatalf("parse: %v", err)
			}
			pgr, err := Build(g, pol)
			if err != nil {
				t.Fatalf("build: %v", err)
			}
			sw := g.Switches()
			for _, src := range sw {
				for _, dst := range sw {
					if src == dst {
						continue
					}
					for _, path := range g.AllSimplePaths(src, dst, 6, 200) {
						names := g.Names(path)
						rank := pol.RankPath(policy.PathInfo{Nodes: names, Util: 0.5, Lat: 0.001})
						rev := make([]topo.NodeID, len(path))
						for i, n := range path {
							rev[len(path)-1-i] = n
						}
						v, ok := pgr.ProbeWalk(rev)
						if rank.IsInf() {
							// Non-compliant paths may or may not exist in
							// the PG (they can be prefixes of compliant
							// ones); nothing to check unless the walk
							// exists and claims acceptance that would
							// make it finite.
							if ok {
								finiteBits := pgr.possiblyFinite(pgr.Node(v).Accept)
								_ = finiteBits // acceptance simply reflects regex matches; verified below
							}
							continue
						}
						if !ok {
							t.Fatalf("%s / %s: compliant path %v missing from PG\n%s",
								g.Name, pol.String(), names, pgr.Dump())
						}
						for i, re := range pol.Regexes {
							want := policy.MatchPath(re, names)
							if got := pgr.Accepts(v, i); got != want {
								t.Fatalf("%s / %s: path %v regex %d accept=%v want %v",
									g.Name, pol.String(), names, i, got, want)
							}
						}
					}
				}
			}
		}
	}
}

func TestEdgesProjectToTopology(t *testing.T) {
	g := topo.Fig8Zigzag()
	pgr := build(t, g, "minimize(if S C E F D + S A E B D then path.util else inf)")
	for v := 0; v < pgr.NumNodes(); v++ {
		vx := pgr.Node(NodeID(v)).Topo
		for _, u := range pgr.Out(NodeID(v)) {
			ux := pgr.Node(u).Topo
			if g.LinkBetween(vx, ux) == nil {
				t.Fatalf("PG edge %d->%d does not project to a topology link", v, u)
			}
		}
	}
}

func TestZigzagExcluded(t *testing.T) {
	// Figure 8(a) policy: only the upper (SCEFD) and lower (SAEBD)
	// paths are allowed; the zig-zag SCEBD and SAEFD are not.
	g := topo.Fig8Zigzag()
	pgr := build(t, g, "minimize(if S C E F D + S A E B D then path.util else inf)")
	walk := func(names ...string) bool {
		rev := make([]topo.NodeID, len(names))
		for i, n := range names {
			rev[len(names)-1-i] = g.MustNode(n)
		}
		v, ok := pgr.ProbeWalk(rev)
		if !ok {
			return false
		}
		return pgr.possiblyFinite(pgr.Node(v).Accept)
	}
	if !walk("S", "C", "E", "F", "D") {
		t.Fatal("upper path should be representable and finite")
	}
	if !walk("S", "A", "E", "B", "D") {
		t.Fatal("lower path should be representable and finite")
	}
	if walk("S", "C", "E", "B", "D") {
		t.Fatal("zig-zag SCEBD must not evaluate finite")
	}
	if walk("S", "A", "E", "F", "D") {
		t.Fatal("zig-zag SAEFD must not evaluate finite")
	}
	// E needs separate tags to distinguish upper from lower traffic.
	if n := len(pgr.VirtualNodes(g.MustNode("E"))); n < 2 {
		t.Fatalf("E has %d virtual nodes, want >= 2 to separate the paths\n%s", n, pgr.Dump())
	}
}

func TestWaypointPruning(t *testing.T) {
	// Waypoint through B: only paths via B are useful. On the square,
	// destination D's send state exists, and no virtual node claims a
	// finite rank without having passed B.
	g := topo.Fig4Square()
	pgr := build(t, g, "minimize(if .* B .* then path.util else inf)")
	for v := 0; v < pgr.NumNodes(); v++ {
		n := pgr.Node(NodeID(v))
		if n.Accept[0] {
			continue
		}
		// Non-accepting nodes must still be able to reach an accepting
		// one (usefulness pruning).
		found := false
		var dfs func(NodeID, map[NodeID]bool)
		dfs = func(u NodeID, seen map[NodeID]bool) {
			if seen[u] || found {
				return
			}
			seen[u] = true
			if pgr.Node(u).Accept[0] {
				found = true
				return
			}
			for _, w := range pgr.Out(u) {
				dfs(w, seen)
			}
		}
		dfs(NodeID(v), map[NodeID]bool{})
		if !found {
			t.Fatalf("useless virtual node survived pruning: %s\n%s",
				g.Node(n.Topo).Name, pgr.Dump())
		}
	}
}

func TestTransitionDeterminism(t *testing.T) {
	// At most one PG successor per (node, neighbor): the DFA product is
	// deterministic.
	g := topo.Fig6()
	pgr := build(t, g, "minimize(if A B D then 0 else if B .* D then path.util else inf)")
	for v := 0; v < pgr.NumNodes(); v++ {
		seen := map[topo.NodeID]bool{}
		for _, u := range pgr.Out(NodeID(v)) {
			x := pgr.Node(u).Topo
			if seen[x] {
				t.Fatalf("node %d has two successors at switch %s", v, g.Node(x).Name)
			}
			seen[x] = true
		}
	}
}

func TestScaleFattree(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	g := topo.Fattree(4, 0)
	pgr := build(t, g, "minimize(path.util)")
	if pgr.NumNodes() != 20 {
		t.Fatalf("MU on fattree-4: %d virtual nodes, want 20", pgr.NumNodes())
	}
	// Waypoint through two cores.
	pgr2 := build(t, g, "minimize(if .* (c0 + c1) .* then path.util else inf)")
	if pgr2.NumNodes() < 20 {
		t.Fatalf("WP should have at least one node per switch, got %d", pgr2.NumNodes())
	}
	if pgr2.TagBits() < 1 {
		t.Fatal("WP needs at least 1 tag bit")
	}
}

func TestRandomGraphsNeverPanic(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 10; trial++ {
		g := topo.RandomConnected(10+rng.Intn(20), 3, int64(trial))
		names := g.SortedNames()
		w := names[rng.Intn(len(names))]
		for _, src := range []string{
			"minimize(path.util)",
			"minimize(if .* " + w + " .* then path.util else inf)",
			"minimize((path.len, path.util))",
		} {
			pgr := build(t, g, src)
			if pgr.NumNodes() == 0 {
				t.Fatalf("empty PG for %s on %s", src, g.Name)
			}
		}
	}
}

// TestBuildAllocBudget holds Build to a fixed number of allocations per
// graph: under MU and a three-waypoint policy, the 405-switch fat-tree
// may take at most 64 objects more than the 20-switch one, however many
// more virtual nodes and edges it has.
func TestBuildAllocBudget(t *testing.T) {
	const slack = 64
	allocs := func(g *topo.Graph, src string) (float64, int) {
		pol, err := policy.Parse(src, policy.ParseOptions{Symbols: g.SortedNames()})
		if err != nil {
			t.Fatal(err)
		}
		var n int
		a := testing.AllocsPerRun(5, func() {
			pgr, err := Build(g, pol)
			if err != nil {
				t.Fatal(err)
			}
			n = pgr.NumNodes()
		})
		return a, n
	}
	small, big := topo.Fattree(4, 0), topo.Fattree(18, 0)
	for _, name := range []string{"MU", "WP"} {
		pick := func(g *topo.Graph) string {
			if name == "MU" {
				return "minimize(path.util)"
			}
			names := g.SortedNames()
			k := len(names) / 2
			return "minimize(if .* (" + names[k] + " + " + names[k/2] + " + " + names[len(names)-1] + ") .* then path.util else inf)"
		}
		as, ns := allocs(small, pick(small))
		ab, nb := allocs(big, pick(big))
		if ab > as+slack {
			t.Errorf("%s: %.0f allocations for %d virtual nodes, %.0f for %d: more than %d apart", name, as, ns, ab, nb, slack)
		}
		t.Logf("%s: %.0f allocations for %d virtual nodes, %.0f for %d", name, as, ns, ab, nb)
	}
}
