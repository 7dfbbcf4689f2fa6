package core

import (
	"strings"
	"testing"

	"contra/internal/cliutil"
	"contra/internal/pg"
	"contra/internal/policy"
	"contra/internal/topo"
)

func compile(t *testing.T, g *topo.Graph, src string) *Compiled {
	t.Helper()
	pol, err := policy.Parse(src, policy.ParseOptions{Symbols: g.SortedNames()})
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	c, err := Compile(g, pol, Options{})
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	return c
}

func TestCompileMinUtil(t *testing.T) {
	g := topo.Fig4Square()
	c := compile(t, g, "minimize(path.util)")
	if c.Stats.Pids != 1 || c.Stats.TagBits != 0 {
		t.Fatalf("MU pids=%d tagBits=%d, want 1/0", c.Stats.Pids, c.Stats.TagBits)
	}
	for _, x := range g.Switches() {
		sp := c.Switch(x)
		if sp == nil {
			t.Fatalf("no program for %s", g.Node(x).Name)
		}
		if sp.Origin == nil {
			t.Fatalf("%s should originate probes under MU", g.Node(x).Name)
		}
		if sp.ReachableOrigins != len(g.Switches()) {
			t.Fatalf("%s reachable origins = %d, want %d", g.Node(x).Name,
				sp.ReachableOrigins, len(g.Switches()))
		}
		if len(sp.VNodes) != 1 {
			t.Fatalf("%s vnodes = %d, want 1", g.Node(x).Name, len(sp.VNodes))
		}
		// Probe multicast must go to every neighbor (PG == topology).
		v := sp.VNodes[0]
		if len(c.ProbeOut(v)) != len(g.SwitchNeighbors(x)) {
			t.Fatalf("%s probe ports = %v, want %d neighbors",
				g.Node(x).Name, c.ProbeOut(v), len(g.SwitchNeighbors(x)))
		}
	}
}

// TestOriginsAreTheSwitchesHostsAttachTo holds the origin rule to its
// counts: on a graph with hosts only the switches they attach to
// originate probes, on one without every switch does. The ordinals,
// the origin list and the programs' origin specs agree, and no switch
// hears more origins than there are.
func TestOriginsAreTheSwitchesHostsAttachTo(t *testing.T) {
	for _, tc := range []struct {
		spec    string
		origins int
		edges   bool // every origin is an edge (leaf) switch
	}{
		{"fattree:4:2", 8, true},
		{"fattree:4", 20, false},
		{"fattree:8:1", 32, true},
		{"abilene+hosts", 11, false},
		{"leafspine:4:2:2", 4, true},
		{"random:20", 20, false},
	} {
		g, err := cliutil.BuildTopology(tc.spec)
		if err != nil {
			t.Fatal(err)
		}
		c := compile(t, g, muPolicy)
		if c.NumOrigins != tc.origins || len(c.Origins) != c.NumOrigins {
			t.Fatalf("%s: NumOrigins = %d, %d listed, want %d", tc.spec, c.NumOrigins, len(c.Origins), tc.origins)
		}
		for i, x := range c.Origins {
			if c.OriginOrd[x] != int32(i) || c.Switch(x).Origin == nil {
				t.Fatalf("%s: origin %d is %s with ordinal %d", tc.spec, i, g.Node(x).Name, c.OriginOrd[x])
			}
			if tc.edges && g.Node(x).Role != topo.RoleEdge {
				t.Fatalf("%s: %s switch %s originates", tc.spec, g.Node(x).Role, g.Node(x).Name)
			}
		}
		for _, x := range g.Switches() {
			sp := c.Switch(x)
			if (sp.Origin != nil) != (c.OriginOrd[x] >= 0) || sp.ReachableOrigins > c.NumOrigins {
				t.Fatalf("%s: %s has origin %v, ordinal %d, hears %d of %d origins",
					tc.spec, g.Node(x).Name, sp.Origin, c.OriginOrd[x], sp.ReachableOrigins, c.NumOrigins)
			}
		}
	}
}

func TestCompileTransitionsMatchPG(t *testing.T) {
	g := topo.Fig6()
	c := compile(t, g, "minimize(if A B D then 0 else if B .* D then path.util else inf)")
	for _, sp := range c.programs {
		sw := sp.Switch
		for _, v := range sp.VNodes {
			if c.PG.Node(v).Topo != sw {
				t.Fatalf("virtual node %d not local to %s", v, g.Node(sw).Name)
			}
			for _, u := range c.PG.In(v) {
				got, ok := c.PG.Transition(u, sw)
				if !ok || got != v {
					t.Fatalf("transition %d->%d disagrees with PG (%d, %v)", u, v, got, ok)
				}
			}
			ports := c.ProbeOut(v)
			if len(ports) != len(c.PG.Out(v)) {
				t.Fatalf("probe ports = %d, PG out edges = %d", len(ports), len(c.PG.Out(v)))
			}
			for _, port := range ports {
				peer := g.Ports(sw)[port].Peer
				if _, ok := c.PG.Transition(v, peer); !ok {
					t.Fatalf("probe port %d leads to %s which is not a PG successor",
						port, g.Node(peer).Name)
				}
			}
		}
	}
}

func TestProbePeriodRespectsRTT(t *testing.T) {
	g := topo.Abilene()
	c := compile(t, g, "minimize(path.util)")
	if c.Opts.ProbePeriodNs < g.MaxSwitchRTT()/2 {
		t.Fatalf("probe period %d < RTT/2 %d (§5.2)", c.Opts.ProbePeriodNs, g.MaxSwitchRTT()/2)
	}
	// Explicit override wins.
	pol := policy.MustParse("minimize(path.util)")
	c2, err := Compile(g, pol, Options{ProbePeriodNs: 123456})
	if err != nil {
		t.Fatal(err)
	}
	if c2.Opts.ProbePeriodNs != 123456 {
		t.Fatal("override ignored")
	}
}

func TestStateAccountingShape(t *testing.T) {
	// Larger topologies need more state; regex policies need more than
	// MU; CA (two pids) needs more than MU.
	small := compile(t, topo.Fattree(4, 0), "minimize(path.util)")
	big := compile(t, topo.Fattree(8, 0), "minimize(path.util)")
	if small.Stats.MaxStateBytes >= big.Stats.MaxStateBytes {
		t.Fatalf("state should grow with topology: %d vs %d",
			small.Stats.MaxStateBytes, big.Stats.MaxStateBytes)
	}
	g := topo.Fattree(4, 0)
	mu := compile(t, g, "minimize(path.util)")
	ca := compile(t, g, "minimize(if path.util < .8 then (1, 0, path.util) else (2, path.len, path.util))")
	wp := compile(t, g, "minimize(if .* (c0 + c1) .* then path.util else inf)")
	if ca.Stats.MaxStateBytes <= mu.Stats.MaxStateBytes {
		t.Fatalf("CA state (%d) should exceed MU (%d): extra pid",
			ca.Stats.MaxStateBytes, mu.Stats.MaxStateBytes)
	}
	if wp.Stats.MaxStateBytes <= mu.Stats.MaxStateBytes {
		t.Fatalf("WP state (%d) should exceed MU (%d): tags",
			wp.Stats.MaxStateBytes, mu.Stats.MaxStateBytes)
	}
	// Magnitude: the paper reports < 70 kB per switch at 500 switches;
	// at fattree-8 (80 switches) we should be well under that.
	if mu.Stats.MaxStateBytes > 70_000 {
		t.Fatalf("MU state per switch = %dB, implausibly large", mu.Stats.MaxStateBytes)
	}
}

func TestGenerateP4(t *testing.T) {
	g := topo.Fig6()
	c := compile(t, g, "minimize(if A B D then 0 else if B .* D then path.util else inf)")
	src := c.GenerateP4(g.MustNode("B"))
	for _, want := range []string{
		"contra_probe_t", "contra_tag_t", "tag_transition", "probe_mcast",
		"fwd_version", "flowlet_port", "loop_minttl", "V1Switch",
		"mv_util",                  // the policy's metric vector
		"fold_metrics",             // UPDATEMVEC
		"probe_compare_and_update", // PROCESSPROBE core
		"best_tag",                 // BestT update
	} {
		if !strings.Contains(src, want) {
			t.Errorf("P4 output missing %q", want)
		}
	}
	if strings.Count(src, "{") != strings.Count(src, "}") {
		t.Fatalf("unbalanced braces in generated P4:\n%s", src)
	}
	// Deterministic output.
	if src != c.GenerateP4(g.MustNode("B")) {
		t.Fatal("P4 generation is not deterministic")
	}
	// Unknown switch yields empty.
	if got := c.GenerateP4(topo.NodeID(9999)); got != "" {
		t.Fatal("expected empty program for unknown switch")
	}
}

func TestOracle(t *testing.T) {
	g := topo.Fig4Square()
	c := compile(t, g, "minimize(path.util)")
	// Make S-D hot; S-A-D the best.
	util := func(a, b topo.NodeID) float64 {
		key := g.Node(a).Name + g.Node(b).Name
		switch key {
		case "SD", "DS":
			return 0.9
		case "SA", "AS":
			return 0.1
		case "AD", "DA":
			return 0.2
		default:
			return 0.5
		}
	}
	rank, paths := c.Oracle(g.MustNode("S"), g.MustNode("D"), util, 4)
	if rank.IsInf() || rank.Cmp(policy.Finite(0.2)) != 0 {
		t.Fatalf("oracle rank = %v, want 0.2", rank)
	}
	if len(paths) != 1 || strings.Join(g.Names(paths[0]), "") != "SAD" {
		t.Fatalf("oracle path = %v, want SAD", paths)
	}
}

func TestOracleRespectsPolicyCompliance(t *testing.T) {
	g := topo.Fig4Square()
	c := compile(t, g, "minimize(if .* B A .* then inf else path.util)")
	util := func(a, b topo.NodeID) float64 { return 0.5 }
	_, paths := c.Oracle(g.MustNode("S"), g.MustNode("D"), util, 4)
	for _, p := range paths {
		names := strings.Join(g.Names(p), "")
		if strings.Contains(names, "BA") {
			t.Fatalf("oracle returned forbidden path %s", names)
		}
	}
}

func TestCompileRejectsAllInf(t *testing.T) {
	g := topo.Fig4Square()
	pol := policy.MustParse("minimize(inf)")
	if _, err := Compile(g, pol, Options{}); err == nil {
		t.Fatal("all-inf policy must fail to compile")
	}
}

// TestCompileRejectsWideRanks: a rank wider than a switch register can
// record is a compile error, not a data-plane panic; the widest allowed
// rank compiles.
func TestCompileRejectsWideRanks(t *testing.T) {
	g := topo.Fig4Square()
	tuple := func(n int) *policy.Policy {
		return policy.MustParse("minimize((" + strings.Repeat("path.len, ", n-1) + "path.util))")
	}
	if _, err := Compile(g, tuple(MaxRankWidth), Options{}); err != nil {
		t.Fatalf("a %d-component rank: %v", MaxRankWidth, err)
	}
	if _, err := Compile(g, tuple(MaxRankWidth+1), Options{}); err == nil {
		t.Fatalf("a %d-component rank compiled", MaxRankWidth+1)
	}
}

func TestCompileRejectsUnsatisfiablePolicy(t *testing.T) {
	// Requiring a link that does not exist on the topology prunes the
	// whole product graph; the compiler must say so rather than emit
	// programs that can never route.
	g := topo.PaperDataCenter() // leaves l0 and l1 are not adjacent
	pol := policy.MustParse("minimize(if .* l0 l1 .* then path.util else inf)",
		policy.ParseOptions{Symbols: g.SortedNames()})
	_, err := Compile(g, pol, Options{})
	if err == nil {
		t.Fatal("unsatisfiable policy must fail to compile")
	}
}

func TestWaypointOriginsPruned(t *testing.T) {
	// With the Fig6 ABD/B.*D policy, only D is a valid destination:
	// other switches must not originate probes.
	g := topo.Fig6()
	c := compile(t, g, "minimize(if A B D then 0 else if B .* D then path.util else inf)")
	for _, name := range []string{"A", "B", "C"} {
		if c.Switch(g.MustNode(name)).Origin != nil {
			t.Errorf("%s should not originate probes", name)
		}
	}
	if c.Switch(g.MustNode("D")).Origin == nil {
		t.Fatal("D must originate probes")
	}
	if got := len(c.Switch(g.MustNode("D")).Origin.Pids); got != 1 {
		t.Fatalf("pids = %d, want 1", got)
	}
}

func TestProbeWireSize(t *testing.T) {
	g := topo.Fig4Square()
	mu := compile(t, g, "minimize(path.util)")
	ca := compile(t, g, "minimize(if path.util < .8 then (1, 0, path.util) else (2, path.len, path.util))")
	if mu.Stats.ProbeBytes <= 0 {
		t.Fatal("probe bytes must be positive")
	}
	if ca.Stats.ProbeBytes <= mu.Stats.ProbeBytes {
		t.Fatalf("CA probes (%dB) should exceed MU probes (%dB): larger mv",
			ca.Stats.ProbeBytes, mu.Stats.ProbeBytes)
	}
}

func TestDescribeMentionsEverything(t *testing.T) {
	g := topo.Fig4Square()
	c := compile(t, g, "minimize(path.util)")
	d := c.Describe()
	for _, want := range []string{"pids=1", "probe period", "state:"} {
		if !strings.Contains(d, want) {
			t.Errorf("Describe missing %q:\n%s", want, d)
		}
	}
}

var _ = pg.NodeID(0) // keep import when test list shrinks
