package workload

import (
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"contra/internal/sim"
	"contra/internal/topo"
)

func TestSampleMeanMatchesAnalyticMean(t *testing.T) {
	for _, d := range []*Distribution{WebSearch(), Cache()} {
		rng := rand.New(rand.NewSource(1))
		var sum float64
		n := 300000
		for i := 0; i < n; i++ {
			sum += float64(d.Sample(rng))
		}
		got := sum / float64(n)
		want := d.Mean()
		if math.Abs(got-want)/want > 0.1 {
			t.Errorf("%s: sampled mean %.0f vs analytic %.0f", d.Name, got, want)
		}
	}
}

func TestDistributionShapes(t *testing.T) {
	// Cache flows are mostly tiny; web-search flows are much larger on
	// average.
	ws, ca := WebSearch(), Cache()
	if ws.Mean() < 10*ca.Mean() {
		t.Fatalf("web-search mean (%.0f) should dwarf cache mean (%.0f)", ws.Mean(), ca.Mean())
	}
	rng := rand.New(rand.NewSource(2))
	small := 0
	n := 10000
	for i := 0; i < n; i++ {
		if ca.Sample(rng) < 2000 {
			small++
		}
	}
	if frac := float64(small) / float64(n); frac < 0.6 {
		t.Fatalf("cache: only %.2f of flows under 2KB, want most", frac)
	}
}

func TestSampleDeterminism(t *testing.T) {
	d := WebSearch()
	a := rand.New(rand.NewSource(7))
	b := rand.New(rand.NewSource(7))
	for i := 0; i < 1000; i++ {
		if d.Sample(a) != d.Sample(b) {
			t.Fatal("same seed diverged")
		}
	}
}

// fctStream is the base stream scenario.fctFlows builds: Poisson
// arrivals at load over the SplitHosts halves, flow IDs from 1.
func fctStream(g *topo.Graph, d *Distribution, pattern string, load, capacity float64, durNs, seed int64, maxFlows int) Stream {
	return Stream{
		Rate: LoadRate(load, capacity, d), Size: d, Ends: EndsFor(g, pattern, 0),
		DurationNs: durNs, Seed: seed, FirstID: 1, MaxFlows: maxFlows,
	}
}

func mustGenerate(t *testing.T, g *topo.Graph, s Stream) []sim.FlowSpec {
	t.Helper()
	flows, err := Generate(g, s)
	if err != nil {
		t.Fatal(err)
	}
	if len(flows) == 0 {
		t.Fatal("no flows")
	}
	return flows
}

func TestGenerateLoadCalibration(t *testing.T) {
	g := topo.PaperDataCenter()
	senders, _ := SplitHosts(g)
	capacity := float64(len(senders)) * 10e9
	for _, load := range []float64{0.2, 0.6} {
		flows := mustGenerate(t, g, fctStream(g, WebSearch(), "", load, capacity, 200_000_000, 3, 0))
		var bytes float64
		for _, f := range flows {
			bytes += float64(f.Size)
		}
		offered := bytes * 8 / 0.2 // bits per second over 200ms
		ratio := offered / (load * capacity)
		if ratio < 0.7 || ratio > 1.4 {
			t.Errorf("load %.1f: offered/target = %.2f (n=%d flows)", load, ratio, len(flows))
		}
	}
}

func TestGenerateProperties(t *testing.T) {
	g := topo.PaperDataCenter()
	s := fctStream(g, Cache(), "", 0.5, 160e9, 50_000_000, 4, 500)
	s.StartNs = 1_000_000
	flows := mustGenerate(t, g, s)
	seen := map[uint64]bool{}
	last := int64(0)
	for _, f := range flows {
		if seen[f.ID] {
			t.Fatal("duplicate flow ID")
		}
		seen[f.ID] = true
		if f.Start < 1_000_000 {
			t.Fatal("flow before start window")
		}
		if f.Start < last {
			t.Fatal("arrivals out of order")
		}
		last = f.Start
		if f.Size <= 0 {
			t.Fatal("non-positive size")
		}
		if g.HostEdge(f.Src) == g.HostEdge(f.Dst) {
			t.Fatal("flow within one edge switch")
		}
	}
	// Determinism.
	again := mustGenerate(t, g, s)
	if len(again) != len(flows) {
		t.Fatal("same seed, different flow count")
	}
	for i := range again {
		if again[i] != flows[i] {
			t.Fatal("same seed, different flows")
		}
	}
}

func TestIncastPatternConvergesOnHotReceivers(t *testing.T) {
	g := topo.PaperDataCenter()
	_, receivers := SplitHosts(g)
	s := fctStream(g, Cache(), "", 0.4, 160e9, 20_000_000, 5, 400)
	s.Ends = EndsFor(g, PatternIncast, 2)
	flows := mustGenerate(t, g, s)
	dsts := map[topo.NodeID]bool{}
	for _, f := range flows {
		dsts[f.Dst] = true
		if g.HostEdge(f.Src) == g.HostEdge(f.Dst) {
			t.Fatal("incast flow within one edge switch")
		}
	}
	if len(dsts) > 2 {
		t.Fatalf("incast with 2 targets hit %d receivers", len(dsts))
	}
	for d := range dsts {
		if d != receivers[0] && d != receivers[1] {
			t.Fatalf("incast receiver %v outside the hot set", d)
		}
	}
}

func TestAllToAllPatternUsesEveryHostBothWays(t *testing.T) {
	g := topo.PaperDataCenter()
	_, receivers := SplitHosts(g)
	flows := mustGenerate(t, g, fctStream(g, Cache(), PatternAllToAll, 0.5, 160e9, 40_000_000, 6, 2000))
	recvSet := map[topo.NodeID]bool{}
	for _, r := range receivers {
		recvSet[r] = true
	}
	// Under all-to-all, hosts from the "receivers" half must show up as
	// sources too (and vice versa) — that is the point of the pattern.
	srcFromRecvHalf, dstFromSendHalf := 0, 0
	for _, f := range flows {
		if recvSet[f.Src] {
			srcFromRecvHalf++
		}
		if !recvSet[f.Dst] {
			dstFromSendHalf++
		}
		if g.HostEdge(f.Src) == g.HostEdge(f.Dst) {
			t.Fatal("all-to-all flow within one edge switch")
		}
	}
	if srcFromRecvHalf == 0 || dstFromSendHalf == 0 {
		t.Fatalf("all_to_all did not mix halves: %d/%d", srcFromRecvHalf, dstFromSendHalf)
	}
}

func TestRandomPatternUnchangedByPatternField(t *testing.T) {
	// The explicit "random" name — and the cohort placement "uniform",
	// the same rule — must produce byte-identical flows to the legacy
	// empty pattern, preserving historical seeds.
	g := topo.PaperDataCenter()
	a := mustGenerate(t, g, fctStream(g, Cache(), "", 0.5, 160e9, 20_000_000, 4, 300))
	for _, rule := range []string{PatternRandom, PlaceUniform} {
		b := mustGenerate(t, g, fctStream(g, Cache(), rule, 0.5, 160e9, 20_000_000, 4, 300))
		if len(a) != len(b) {
			t.Fatalf("%s: flow counts differ: %d vs %d", rule, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s: flow %d differs: %+v vs %+v", rule, i, a[i], b[i])
			}
		}
	}
}

// TestGenerateRejectsStreamsItCannotDraw: Generate returns an error,
// and neither panics nor spins, on a rate that is not a positive finite
// number, an empty window, empty host pools, a gap law with no scale
// left at its rate, and a stream that drops every arrival it draws.
func TestGenerateRejectsStreamsItCannotDraw(t *testing.T) {
	g := topo.PaperDataCenter()
	mod := func(f func(*Stream)) Stream {
		s := fctStream(g, Cache(), "", 0.5, 160e9, 20_000_000, 4, 300)
		f(&s)
		return s
	}
	cases := []struct {
		name string
		s    Stream
		want string
	}{
		{"zero rate", mod(func(s *Stream) { s.Rate = 0 }), "arrival rate 0 flows/s"},
		{"negative rate", mod(func(s *Stream) { s.Rate = -3 }), "arrival rate -3 flows/s"},
		{"NaN rate", mod(func(s *Stream) { s.Rate = math.NaN() }), "arrival rate NaN flows/s"},
		{"infinite rate", mod(func(s *Stream) { s.Rate = math.Inf(1) }), "arrival rate +Inf flows/s"},
		{"empty window", mod(func(s *Stream) { s.DurationNs = 0 }), "arrival window of 0 ns is empty"},
		{"negative window", mod(func(s *Stream) { s.DurationNs = -5 }), "arrival window of -5 ns is empty"},
		{"no receivers", mod(func(s *Stream) { s.Ends.Receivers = nil }), "no hosts"},
		{"weibull without scale", mod(func(s *Stream) { s.Process, s.Shape = ProcWeibull, 0.001 }), "leaves no gap scale"},
		{"gamma without scale", mod(func(s *Stream) { s.Process, s.Shape, s.Rate = ProcGamma, 1e300, 1e300 }), "leaves no gap scale"},
		// A rate past the clock's resolution never advances t, and a
		// profile that is zero at the window's start drops every draw.
		{"stalled stream", mod(func(s *Stream) {
			s.Rate, s.StartNs = 1e30, 1_000_000
			s.Profile = func(elapsedNs, _ int64) float64 { return float64(elapsedNs) }
		}), "cannot make progress"},
	}
	for _, tc := range cases {
		flows, err := Generate(g, tc.s)
		if err == nil {
			t.Errorf("%s: accepted (%d flows)", tc.name, len(flows))
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}

func TestValidPattern(t *testing.T) {
	for _, p := range append(Patterns(), "") {
		if !ValidPattern(p) {
			t.Errorf("ValidPattern(%q) = false", p)
		}
	}
	if ValidPattern("hotspot") {
		t.Error("unknown pattern accepted")
	}
}

func TestSplitHosts(t *testing.T) {
	g := topo.PaperDataCenter()
	s, r := SplitHosts(g)
	if len(s) != 16 || len(r) != 16 {
		t.Fatalf("split = %d/%d, want 16/16", len(s), len(r))
	}
}

func TestByName(t *testing.T) {
	if d, err := ByName("websearch"); err != nil || d.Name != "websearch" {
		t.Fatal("websearch lookup failed")
	}
	if d, err := ByName("cache"); err != nil || d.Name != "cache" {
		t.Fatal("cache lookup failed")
	}
	if _, err := ByName("nope"); err == nil {
		t.Fatal("unknown name should error")
	}
}

// TestByNameErrorListsRegistry pins the ByName error message to the
// registry: every registered name must appear in it, so adding a
// distribution can never leave the valid-name list stale again.
func TestByNameErrorListsRegistry(t *testing.T) {
	_, err := ByName("nope")
	if err == nil {
		t.Fatal("unknown name should error")
	}
	names := Names()
	if len(names) < 2 {
		t.Fatalf("registry lists %d names, want at least websearch and cache", len(names))
	}
	for _, name := range names {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("error %q does not list registered distribution %q", err, name)
		}
	}
	for _, alias := range []string{"web-search", "web"} {
		if _, err := ByName(alias); err != nil {
			t.Errorf("alias %q stopped resolving: %v", alias, err)
		}
	}
}

func TestBadKnotsPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for bad knots")
		}
	}()
	NewDistribution("bad", []float64{10, 5}, []float64{0.5, 1})
}

// TestStreamsShareARandomSource fences the source store: a random
// source is about 5 KB, and a stream that draws one a finished stream
// handed on allocates less than that in all.
func TestStreamsShareARandomSource(t *testing.T) {
	g := topo.Fattree(4, 2)
	s := Stream{Rate: 1e6, Size: WebSearch(), Ends: EndsFor(g, "random", 0), DurationNs: 1e6, Seed: 1, MaxFlows: 1}
	if _, err := Generate(g, s); err != nil {
		t.Fatal(err)
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	s.Seed++
	if _, err := Generate(g, s); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&m1)
	if got := m1.TotalAlloc - m0.TotalAlloc; got >= 4<<10 {
		t.Fatalf("a stream allocates %d bytes: a random source of its own", got)
	}
}
