package core

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"contra/internal/policy"
	"contra/internal/topo"
)

// Differential, concurrency and allocation tests for the compiler back
// end (countReachability, GenerateP4) against the references in
// reference_test.go, and the micro-benchmarks of the same two passes and
// of a whole compile.

const (
	muPolicy = "minimize(path.util)"
	caPolicy = "minimize(if path.util < .8 then (1, 0, path.util) else (2, path.len, path.util))"
)

// wpPolicy is the scalability experiments' three-waypoint policy, with
// the same waypoint picks as contra.StandardPolicies.
func wpPolicy(g *topo.Graph) string {
	names := g.SortedNames()
	k := len(names) / 2
	return fmt.Sprintf("minimize(if .* (%s + %s + %s) .* then path.util else inf)",
		names[k], names[k/2], names[len(names)-1])
}

// tryCompile is compile for generated inputs, where a policy may admit
// no path at all: it returns nil for those.
func tryCompile(t *testing.T, g *topo.Graph, src string) *Compiled {
	t.Helper()
	pol, err := policy.Parse(src, policy.ParseOptions{Symbols: g.SortedNames()})
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	c, err := Compile(g, pol, Options{})
	if err != nil {
		if strings.Contains(err.Error(), "admits no path") {
			return nil
		}
		t.Fatalf("compile %q on %s: %v", src, g.Name, err)
	}
	return c
}

// brokenRandom is a random graph with an island hanging off it by one
// link and a share of all links down, so that some switches hear only
// part of the origins and some none.
func brokenRandom(n int, seed int64) *topo.Graph {
	rng := rand.New(rand.NewSource(seed))
	g := topo.RandomConnected(n, 2.5, seed)
	a := g.AddNode("i0", topo.Switch)
	b := g.AddNode("i1", topo.Switch)
	c := g.AddNode("i2", topo.Switch)
	g.AddLink(a, b, topo.DefaultFabricBW, topo.DefaultDelay)
	g.AddLink(b, c, topo.DefaultFabricBW, topo.DefaultDelay)
	g.SetDown(g.AddLink(a, g.MustNode("r0"), topo.DefaultFabricBW, topo.DefaultDelay), true)
	for id := range g.Links() {
		if rng.Intn(5) == 0 {
			g.SetDown(topo.LinkID(id), true)
		}
	}
	return g
}

// TestReachableOriginsMatchReference runs broken random graphs under
// regex policies that leave switches partially reached, and cells whose
// origin counts sit on either side of countReachability's 64-origin
// blocks: one origin, a word less one, a word, a word plus one, two
// words, two words plus one.
func TestReachableOriginsMatchReference(t *testing.T) {
	partial := 0     // cells where some origin's probes reach only part of the switches
	partialWide := 0 // those among cells of more than one word of origins
	check := func(c *Compiled) {
		if checkReachability(t, c) {
			partial++
			if c.NumOrigins > 64 {
				partialWide++
			}
		}
	}
	// Graphs with hosts, where only the switches a host attaches to
	// originate: in the k=8 fat-tree they fall in both 64-switch blocks.
	for _, g := range []*topo.Graph{topo.Fattree(4, 2), topo.Fattree(8, 1), topo.PaperDataCenter(), topo.AbileneWithHosts(topo.DefaultFabricBW)} {
		for _, src := range []string{muPolicy, caPolicy, wpPolicy(g)} {
			check(compile(t, g, src))
		}
	}
	for seed := int64(1); seed <= 12; seed++ {
		g := brokenRandom(8+int(seed)*3, seed)
		names := g.SortedNames()
		x, y, z := names[0], names[1], names[len(names)/2]
		policies := []string{
			muPolicy, caPolicy, wpPolicy(g),
			// Only z is a destination, and only for part of the graph.
			fmt.Sprintf("minimize(if %s %s %s then 0 else if %s .* %s then path.util else inf)", x, y, z, y, z),
			fmt.Sprintf("minimize(if .* %s %s .* then path.util else inf)", x, y),
			fmt.Sprintf("minimize(if %s .* then path.util else path.lat)", z),
			fmt.Sprintf("minimize(if .* %s .* then (path.util, path.lat) else (1000, path.lat))", z),
		}
		for _, src := range policies {
			if c := tryCompile(t, g, src); c != nil {
				check(c)
			}
		}
	}

	for _, origins := range []int{1, 63, 64, 65, 128, 129} {
		seed := int64(origins)
		want := func(c *Compiled) {
			t.Helper()
			if c == nil || c.NumOrigins != origins {
				t.Fatalf("a cell meant to have %d origins has not", origins)
			}
			check(c)
		}
		if origins == 1 {
			// Only paths ending at z are allowed: z is the one origin, and
			// the .* loops the product graph back on itself.
			g := topo.RandomConnected(20, 3, seed)
			want(tryCompile(t, g, fmt.Sprintf("minimize(if .* %s then path.util else inf)", g.SortedNames()[7])))
			continue
		}
		// Every switch is an origin under MU, links down or not.
		broken := brokenRandom(origins-3, seed)
		want(tryCompile(t, topo.RandomConnected(origins, 3, seed), muPolicy))
		want(tryCompile(t, broken, muPolicy))
		// Regex policies on the broken graph: a waypoint, and two
		// switches to pass in order.
		names := broken.SortedNames()
		x, y := names[len(names)/3], names[len(names)-4]
		for _, src := range []string{
			fmt.Sprintf("minimize(if .* %s .* then path.util else inf)", x),
			fmt.Sprintf("minimize(if .* %s .* %s .* then (path.util, path.lat) else (1000, path.lat))", x, y),
		} {
			if c := tryCompile(t, broken, src); c != nil {
				check(c)
			}
		}
	}
	if partial == 0 || partialWide == 0 {
		t.Fatalf("%d cells have a partially reached switch, %d of them more than 64 origins: the inputs do not exercise per-origin counting",
			partial, partialWide)
	}
}

// checkReachability fails t unless c's reachable-origin counts and the
// state accounting derived from them equal what the reference traversal
// gives; it reports whether some switch hears only part of the origins.
// It leaves c as the reference computed it.
func checkReachability(t *testing.T, c *Compiled) (partial bool) {
	t.Helper()
	progs := c.programs
	got := make([]int, len(progs))
	for i := range progs {
		sp := &progs[i]
		got[i] = sp.ReachableOrigins
		if sp.ReachableOrigins > 0 && sp.ReachableOrigins < len(progs) {
			partial = true
		}
		sp.ReachableOrigins = -1
	}
	gotState, gotMax := c.Stats.StateBytes, c.Stats.MaxStateBytes

	c.referenceCountReachability()
	for i := range progs {
		sp := &progs[i]
		if sp.ReachableOrigins == -1 {
			sp.ReachableOrigins = 0 // the reference leaves unreached switches alone
		}
		if got[i] != sp.ReachableOrigins {
			t.Fatalf("%s on %s: %s reachable origins = %d, reference %d",
				c.Policy, c.Topo.Name, c.Topo.Node(sp.Switch).Name, got[i], sp.ReachableOrigins)
		}
	}
	c.accountState()
	if gotMax != c.Stats.MaxStateBytes {
		t.Fatalf("%s on %s: MaxStateBytes = %d, reference %d", c.Policy, c.Topo.Name, gotMax, c.Stats.MaxStateBytes)
	}
	for sw, want := range c.Stats.StateBytes {
		if gotState[sw] != want {
			t.Fatalf("%s on %s: %s state = %dB, reference %dB", c.Policy, c.Topo.Name, c.Topo.Node(topo.NodeID(sw)).Name, gotState[sw], want)
		}
	}
	return partial
}

// p4Cells are the topology × policy cells the P4 tests run on: both
// fat-tree sizes, the WAN and a random graph, under single- and
// multi-metric vectors, one and several probe classes, and regex
// policies that leave some virtual nodes without out-edges.
func p4Cells(t *testing.T) []*Compiled {
	t.Helper()
	var cells []*Compiled
	add := func(g *topo.Graph, srcs ...string) {
		for _, src := range srcs {
			cells = append(cells, compile(t, g, src))
		}
	}
	for _, g := range []*topo.Graph{topo.Fattree(4, 0), topo.Fattree(8, 0), topo.RandomConnected(40, 4, 7)} {
		add(g, muPolicy, caPolicy, wpPolicy(g), "minimize((path.util, path.lat, path.len))")
	}
	add(topo.Abilene(), muPolicy, caPolicy, wpPolicy(topo.Abilene()),
		"minimize(if .* KC .* then (path.util, path.lat) else (1000, path.lat))",
		"minimize(if SEA .* then path.util else path.lat)")
	add(topo.Fig6(), "minimize(if A B D then 0 else if B .* D then path.util else inf)",
		// A's only virtual node ends the one allowed path: no out-edges.
		"minimize(if A B D then path.util else inf)")
	return cells
}

// TestGenerateP4MatchesReference compares every switch of p4Cells with
// the reference emitter. The coverage flags fail it unless the cells
// print an empty port list and take both of the emitter's fallbacks: a
// transition table whose product-graph order is not by sender, and a
// switch whose virtual nodes are not ascending.
func TestGenerateP4MatchesReference(t *testing.T) {
	emptyPorts, sortedTransitions, sortedVNodes := false, false, false
	for _, c := range p4Cells(t) {
		for _, sw := range c.Topo.Switches() {
			got, want := c.GenerateP4(sw), c.referenceGenerateP4(sw)
			if got != want {
				t.Fatalf("%s on %s, switch %s: P4 differs from the reference\n%s",
					c.Policy, c.Topo.Name, c.Topo.Node(sw).Name, firstDiff(got, want))
			}
			if !strings.Contains(got, "%") || strings.Contains(got, "%%") {
				t.Fatalf("switch %s: the modulo lines must print a single %%", c.Topo.Node(sw).Name)
			}
			emptyPorts = emptyPorts || strings.Contains(got, "// ports []\n")
			p := c.planP4(sw, c.Switch(sw))
			if p.len != len(want) {
				t.Fatalf("switch %s: buffer sized %d bytes for a %d-byte program", c.Topo.Node(sw).Name, p.len, len(want))
			}
			sortedTransitions = sortedTransitions || !p.transSorted
			sortedVNodes = sortedVNodes || !p.mcastSorted
		}
	}
	if !emptyPorts {
		t.Fatal("no cell prints an empty multicast port list")
	}
	if !sortedTransitions {
		t.Fatal("no cell has a transition table that must be sorted by sender")
	}
	if !sortedVNodes {
		t.Fatal("no cell has a switch whose virtual nodes are not ascending")
	}
}

// firstDiff renders the first line where two programs differ.
func firstDiff(got, want string) string {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := range g {
		if i >= len(w) || g[i] != w[i] {
			ref := "<end>"
			if i < len(w) {
				ref = w[i]
			}
			return fmt.Sprintf("line %d:\n  got  %q\n  want %q", i+1, g[i], ref)
		}
	}
	return fmt.Sprintf("got %d lines, want %d", len(g), len(w))
}

// TestGenerateP4Concurrent has several goroutines generate every switch
// of one fresh Compiled, so that they race for the first render of the
// policy-wide text.
func TestGenerateP4Concurrent(t *testing.T) {
	g := topo.Fattree(4, 0)
	c := compile(t, g, wpPolicy(g))
	switches := g.Switches()
	const workers = 8
	out := make([][]string, workers)
	var wg sync.WaitGroup
	for i := range out {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			progs := make([]string, len(switches))
			for j, sw := range switches {
				progs[j] = c.GenerateP4(sw)
			}
			out[i] = progs
		}(i)
	}
	wg.Wait()
	for j, sw := range switches {
		want := c.referenceGenerateP4(sw)
		for i := range out {
			if out[i][j] != want {
				t.Fatalf("goroutine %d, switch %s: P4 differs from the reference\n%s",
					i, g.Node(sw).Name, firstDiff(out[i][j], want))
			}
		}
	}
}

// TestGenerateP4AllocBudget pins the per-switch allocations after the
// first call, however long the tables are: the returned text alone for
// a switch whose rows come out of the product graph in printed order,
// and one more, the sorted copy, for a switch whose transitions do not.
func TestGenerateP4AllocBudget(t *testing.T) {
	entries := func(c *Compiled, sw topo.NodeID) int { return c.transitions(c.Switch(sw)) }
	small, big := topo.Fattree(4, 0), topo.Fattree(10, 0)
	cs, cb := compile(t, small, wpPolicy(small)), compile(t, big, wpPolicy(big))
	ss, sb := small.Switches()[0], big.Switches()[len(big.Switches())-1]
	if entries(cb, sb) < 4*entries(cs, ss) {
		t.Fatalf("table sizes %d and %d are too close to show independence", entries(cs, ss), entries(cb, sb))
	}
	sorted := topo.NodeID(-1) // a switch of cs that takes the sort path
	for _, sw := range small.Switches() {
		if p := cs.planP4(sw, cs.Switch(sw)); !p.transSorted && p.mcastSorted {
			sorted = sw
			break
		}
	}
	if sorted < 0 {
		t.Fatal("no switch of the small cell needs its transitions sorted")
	}
	for _, tc := range []struct {
		c      *Compiled
		sw     topo.NodeID
		budget int
	}{{cs, ss, 1}, {cb, sb, 1}, {cs, sorted, 2}} {
		p := tc.c.planP4(tc.sw, tc.c.Switch(tc.sw))
		if natural := p.transSorted && p.mcastSorted; natural != (tc.budget == 1) {
			t.Fatalf("%s switch %s: printed in natural order = %v, budget %d", tc.c.Topo.Name, p.name, natural, tc.budget)
		}
		tc.c.GenerateP4(tc.sw) // renders the policy-wide text
		got := testing.AllocsPerRun(20, func() { tc.c.GenerateP4(tc.sw) })
		if got > float64(tc.budget) {
			t.Errorf("%s switch %s (%d transition entries): %.0f allocations per program, budget %d",
				tc.c.Topo.Name, p.name, entries(tc.c, tc.sw), got, tc.budget)
		}
	}
}

// TestCompileAllocBudget holds a whole compile to a fixed number of
// allocations per program, as TestBuildAllocBudget does the product
// graph: under MU and WP, Fattree(18, 0)'s 405 switches may take at most
// 64 objects more than Fattree(4, 0)'s 20. Anything built per switch or
// per virtual node — a map, a slice of ports — breaks it.
func TestCompileAllocBudget(t *testing.T) {
	const slack = 64
	small, big := topo.Fattree(4, 0), topo.Fattree(18, 0)
	for _, tc := range []struct {
		name string
		src  func(*topo.Graph) string
	}{{"MU", func(*topo.Graph) string { return muPolicy }}, {"WP", wpPolicy}} {
		var allocs [2]float64
		for i, g := range []*topo.Graph{small, big} {
			pol := policy.MustParse(tc.src(g), policy.ParseOptions{Symbols: g.SortedNames()})
			allocs[i] = testing.AllocsPerRun(5, func() {
				if _, err := Compile(g, pol, Options{}); err != nil {
					t.Fatal(err)
				}
			})
		}
		if allocs[1] > allocs[0]+slack {
			t.Errorf("%s: %.0f allocations at %d switches, %.0f at %d: more than %d apart",
				tc.name, allocs[0], len(small.Switches()), allocs[1], len(big.Switches()), slack)
		}
		t.Logf("%s: %.0f allocations at %d switches, %.0f at %d", tc.name, allocs[0], len(small.Switches()), allocs[1], len(big.Switches()))
	}
}

// TestGenerateP4ProgramAllocBudget holds emitting every switch of
// Fattree(18, 0) under MU and WP, once the policy-wide text is rendered,
// to one allocation per switch plus one per table that must be sorted.
// The text's one render is left out: its fmt calls draw from a
// sync.Pool, which the race detector empties at random.
func TestGenerateP4ProgramAllocBudget(t *testing.T) {
	const slack = 8
	g := topo.Fattree(18, 0)
	switches := g.Switches()
	for _, tc := range []struct{ name, src string }{{"MU", muPolicy}, {"WP", wpPolicy(g)}} {
		c, sorts := compile(t, g, tc.src), 0
		for _, sw := range switches {
			c.GenerateP4(sw)
			p := c.planP4(sw, c.Switch(sw))
			if !p.transSorted {
				sorts++
			}
			if !p.mcastSorted {
				sorts++
			}
		}
		got := testing.AllocsPerRun(3, func() {
			for _, sw := range switches {
				c.GenerateP4(sw)
			}
		})
		if budget := len(switches) + sorts + slack; got > float64(budget) {
			t.Errorf("%s: %.0f allocations to emit %d switches with %d sorted tables, budget %d",
				tc.name, got, len(switches), sorts, budget)
		}
		t.Logf("%s: %.0f allocations to emit %d switches with %d sorted tables", tc.name, got, len(switches), sorts)
	}
}

func BenchmarkCountReachabilityFattree18(b *testing.B) {
	g := topo.Fattree(18, 0)
	pol := policy.MustParse(wpPolicy(g), policy.ParseOptions{Symbols: g.SortedNames()})
	c, err := Compile(g, pol, Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.countReachability()
	}
}

// BenchmarkCompileFattree32 is one whole compile at 1 280 switches, the
// size past which ROADMAP's k = 16 cell and FatPaths-scale fabrics lie.
func BenchmarkCompileFattree32(b *testing.B) {
	g := topo.Fattree(32, 0)
	for _, tc := range []struct{ name, src string }{{"MU", muPolicy}, {"WP", wpPolicy(g)}} {
		pol := policy.MustParse(tc.src, policy.ParseOptions{Symbols: g.SortedNames()})
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				c, err := Compile(g, pol, Options{})
				if err != nil {
					b.Fatal(err)
				}
				compiledSink = c
			}
		})
	}
}

var compiledSink *Compiled

var p4Sink int

func BenchmarkGenerateP4Fattree14(b *testing.B) {
	g := topo.Fattree(14, 0)
	pol := policy.MustParse(wpPolicy(g), policy.ParseOptions{Symbols: g.SortedNames()})
	c, err := Compile(g, pol, Options{})
	if err != nil {
		b.Fatal(err)
	}
	switches := g.Switches()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, sw := range switches {
			p4Sink += len(c.GenerateP4(sw))
		}
	}
}
