package contra

import (
	"strings"
	"testing"
	"time"
)

func TestCompileSourceAndInspect(t *testing.T) {
	g := Abilene()
	p, err := CompileSource("minimize(path.lat)", g)
	if err != nil {
		t.Fatal(err)
	}
	if p.ProbeClasses() != 1 {
		t.Fatalf("probe classes = %d, want 1", p.ProbeClasses())
	}
	if p.MaxStateBytes() <= 0 || p.CompileTime() <= 0 {
		t.Fatal("missing stats")
	}
	p4, err := p.P4("SEA")
	if err != nil || !strings.Contains(p4, "contra_probe_t") {
		t.Fatalf("P4 generation failed: %v", err)
	}
	if _, err := p.P4("NOPE"); err == nil {
		t.Fatal("unknown switch should error")
	}
	if !strings.Contains(p.AnalysisReport(), "isotone: true") {
		t.Fatalf("analysis report:\n%s", p.AnalysisReport())
	}
}

func TestP4RejectsHosts(t *testing.T) {
	g := Fattree(4, 1)
	p, err := CompileSource("minimize(path.util)", g)
	if err != nil {
		t.Fatal(err)
	}
	host := g.Node(g.Hosts()[0]).Name
	src, err := p.P4(host)
	if err == nil || src != "" {
		t.Fatalf("P4(%q) = %d bytes, %v; want an error and no program", host, len(src), err)
	}
	if msg := err.Error(); !strings.Contains(msg, "host") || !strings.Contains(msg, host) {
		t.Fatalf("error %q should say that %s is a host", msg, host)
	}
	for _, sw := range g.Switches() {
		if src, err := p.P4(g.Node(sw).Name); err != nil || src == "" {
			t.Fatalf("P4(%q) = %d bytes, %v", g.Node(sw).Name, len(src), err)
		}
	}
}

func TestSimulationBestPath(t *testing.T) {
	g := Abilene()
	p, err := CompileSource("minimize(path.lat)", g)
	if err != nil {
		t.Fatal(err)
	}
	s := NewSimulation(p)
	s.WarmUp()
	path, rank, err := s.BestPath("SEA", "NYC")
	if err != nil {
		t.Fatal(err)
	}
	if path[0] != "SEA" || path[len(path)-1] != "NYC" {
		t.Fatalf("path endpoints wrong: %v", path)
	}
	if rank.IsInf() {
		t.Fatal("rank should be finite")
	}
	// SEA-DEN-KC-IND-CHI-NYC = 10+5+4+2+8 = 29ms; the alternative
	// through WDC is 10+5+4+5+6+3 = 33ms.
	want := []string{"SEA", "DEN", "KC", "IND", "CHI", "NYC"}
	if strings.Join(path, "-") != strings.Join(want, "-") {
		t.Fatalf("path = %v, want %v", path, want)
	}
}

// TestBestPathToAHostlessSwitch asks for a route to a switch no host
// attaches to. Such a switch originates no probes, and the error says
// so instead of blaming the source's tables.
func TestBestPathToAHostlessSwitch(t *testing.T) {
	p, err := CompileSource("minimize(path.util)", PaperDataCenter())
	if err != nil {
		t.Fatal(err)
	}
	s := NewSimulation(p)
	s.WarmUp()
	if path, _, err := s.BestPath("l0", "l1"); err != nil || len(path) != 3 {
		t.Fatalf("l0 -> l1 = %v, %v; want a two-hop path", path, err)
	}
	_, _, err = s.BestPath("l0", "s0")
	if err == nil {
		t.Fatal("l0 -> s0 found a route to a spine no host attaches to")
	}
	if msg := err.Error(); !strings.Contains(msg, "s0 originates no probes") || !strings.Contains(msg, "no host attaches") {
		t.Fatalf("error %q should say that s0 originates no probes because no host attaches to it", msg)
	}
}

func TestSimulationFailoverReroutes(t *testing.T) {
	g := Abilene()
	p, err := CompileSource("minimize(path.lat)", g)
	if err != nil {
		t.Fatal(err)
	}
	s := NewSimulation(p)
	s.WarmUp()
	if err := s.FailLink("CHI", "NYC", 0); err != nil {
		t.Fatal(err)
	}
	// Wait for failure detection (k periods) plus margin.
	s.RunFor(time.Duration(8) * p.ProbePeriod())
	path, _, err := s.BestPath("SEA", "NYC")
	if err != nil {
		t.Fatal(err)
	}
	joined := strings.Join(path, "-")
	if strings.Contains(joined, "CHI-NYC") {
		t.Fatalf("path still uses failed link: %v", path)
	}
	if path[len(path)-1] != "NYC" {
		t.Fatalf("path does not reach NYC: %v", path)
	}
}

func TestSimulationFlows(t *testing.T) {
	g := AbileneWithHosts(0)
	p, err := CompileSource("minimize(path.util)", g)
	if err != nil {
		t.Fatal(err)
	}
	s := NewSimulation(p)
	s.WarmUp()
	src, err := s.HostNamed("H_SEA")
	if err != nil {
		t.Fatal(err)
	}
	dst, err := s.HostNamed("H_NYC")
	if err != nil {
		t.Fatal(err)
	}
	s.AddFlows(Flow{ID: 1, Src: src, Dst: dst, Size: 200_000})
	if !s.RunUntilDone(2*time.Second, 1) {
		t.Fatal("flow did not complete")
	}
	if s.MeanFCT() <= 0 {
		t.Fatal("no FCT recorded")
	}
	if s.Totals().ProbeBytes == 0 {
		t.Fatal("no probe traffic counted")
	}
}

// TestRunUntilDoneStopsAtTheCompletion: RunUntilDone ends at the event
// that completes its last flow, not at some later step, and a second
// call with that flow done already does not move the clock.
func TestRunUntilDoneStopsAtTheCompletion(t *testing.T) {
	p, err := CompileSource("minimize(path.util)", AbileneWithHosts(0))
	if err != nil {
		t.Fatal(err)
	}
	s := NewSimulation(p)
	s.WarmUp()
	src, err := s.HostNamed("H_SEA")
	if err != nil {
		t.Fatal(err)
	}
	dst, err := s.HostNamed("H_NYC")
	if err != nil {
		t.Fatal(err)
	}
	var done time.Duration
	s.net.FlowDone = func(Flow, int64) { done = s.Now() }
	s.AddFlows(Flow{ID: 1, Src: src, Dst: dst, Size: 200_000})
	if !s.RunUntilDone(2*time.Second, 1) {
		t.Fatal("flow did not complete")
	}
	if s.Now() != done {
		t.Fatalf("RunUntilDone left the clock at %v; the flow completed at %v", s.Now(), done)
	}
	if !s.RunUntilDone(2*time.Second, 1) || s.Now() != done {
		t.Fatalf("a second RunUntilDone moved the clock from %v to %v", done, s.Now())
	}
}

// TestAddFlowsLeavesTheCallersFlows adds flows twice from one slice,
// later than time zero: the slice must read as it was written, and the
// second batch must start relative to its own call, not shifted twice.
func TestAddFlowsLeavesTheCallersFlows(t *testing.T) {
	p, err := CompileSource("minimize(path.util)", AbileneWithHosts(0))
	if err != nil {
		t.Fatal(err)
	}
	s := NewSimulation(p)
	s.WarmUp()
	src, err := s.HostNamed("H_SEA")
	if err != nil {
		t.Fatal(err)
	}
	dst, err := s.HostNamed("H_NYC")
	if err != nil {
		t.Fatal(err)
	}
	fs := []Flow{{ID: 1, Src: src, Dst: dst, Size: 20_000, Start: 5}}
	want := fs[0]
	s.AddFlows(fs...)
	if fs[0] != want {
		t.Fatalf("AddFlows rewrote the caller's flow at %v: %+v, want %+v", s.Now(), fs[0], want)
	}
	if !s.RunUntilDone(2*time.Second, 1) {
		t.Fatal("the first flow did not complete")
	}
	fs[0].ID = 2
	want = fs[0]
	s.AddFlows(fs...)
	if fs[0] != want {
		t.Fatalf("the second AddFlows rewrote the caller's flow: %+v, want %+v", fs[0], want)
	}
	if !s.RunUntilDone(2*time.Second, 2) {
		t.Fatal("the second flow did not complete")
	}
}

func TestCatalogCompilesOnAbilene(t *testing.T) {
	g := Abilene()
	pols := map[string]*Policy{
		"P1": ShortestPathPolicy(),
		"P2": MinUtil(),
		"P3": WidestShortest(),
		"P4": ShortestWidest(),
		"P5": Waypoint("KC", "DEN"),
		"P6": LinkPreference("SEA", "DEN"),
		"P7": WeightedLink("SEA", "DEN", 10),
		"P8": SourceLocal("SEA"),
		"P9": CongestionAware(),
	}
	for name, pol := range pols {
		if _, err := Compile(pol, g); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

func TestOptions(t *testing.T) {
	g := Abilene()
	p, err := CompileSource("minimize(path.util)", g,
		WithProbePeriod(500*time.Microsecond),
		WithFlowletTimeout(300*time.Microsecond),
		WithFailureDetectPeriods(5))
	if err != nil {
		t.Fatal(err)
	}
	if p.ProbePeriod() != 500*time.Microsecond {
		t.Fatalf("probe period = %v", p.ProbePeriod())
	}
}

func TestParseTopologyFacade(t *testing.T) {
	src := "node A switch\nnode B switch\nlink A B 10G 1us\n"
	g, err := ParseTopology(strings.NewReader(src), "t")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := CompileSource("minimize(path.len)", g); err != nil {
		t.Fatal(err)
	}
	// Policy with unknown switch name fails under symbol checking.
	if _, err := CompileSource("minimize(if Z .* then 0 else path.len)", g); err == nil {
		t.Fatal("unknown symbol should fail")
	}
}

func TestCompileSweepSmall(t *testing.T) {
	topos := []*Topology{Fattree(4, 0), RandomTopology(50, 4, 1)}
	rows, err := CompileSweep(topos, StandardPolicies())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("rows = %d, want 6", len(rows))
	}
	for i, r := range rows {
		if want := []string{"CA", "MU", "WP"}[i%3]; r.Topology != topos[i/3].Name || r.Policy != want {
			t.Errorf("row %d is %s on %s, want %s on %s", i, r.Policy, r.Topology, want, topos[i/3].Name)
		}
		if r.CompileTime <= 0 || r.MaxStateKB <= 0 {
			t.Errorf("row %+v has empty measurements", r)
		}
		if r.Policy == "CA" && r.Pids != 2 {
			t.Errorf("CA pids = %d, want 2", r.Pids)
		}
		if r.Policy == "WP" && r.TagBits < 1 {
			t.Errorf("WP tag bits = %d, want >= 1", r.TagBits)
		}
	}
}

func TestStandardPoliciesCompileEverywhere(t *testing.T) {
	for _, g := range []*Topology{Fattree(4, 0), RandomTopology(30, 4, 3), Abilene()} {
		for name, gen := range StandardPolicies() {
			if _, err := CompileSource(gen(g), g); err != nil {
				t.Fatalf("%s on %s: %v", name, g.Name, err)
			}
		}
	}
}
