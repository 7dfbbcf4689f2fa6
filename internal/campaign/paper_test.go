package campaign

import (
	"bytes"
	"encoding/csv"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"

	"contra/internal/cliutil"
	"contra/internal/flowtrace"
	"contra/internal/metrics"
	"contra/internal/scenario"
	"contra/internal/topo"
)

// The paper specs name their topology file relative to the repository
// root, where examples/paper/README.md runs its commands.
func inRepoRoot(t *testing.T) {
	t.Helper()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir("../.."); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := os.Chdir(wd); err != nil {
			t.Error(err)
		}
	})
}

// TestPaperSpecs loads every examples/paper spec the way contracamp
// does (strict parse, validation, expansion) and runs the first cell of
// each topology x script at a shrunken duration, which resolves the
// topology, the host pairs and the scripted links through Run itself.
func TestPaperSpecs(t *testing.T) {
	inRepoRoot(t)
	paths, err := filepath.Glob("examples/paper/*.json")
	if err != nil || len(paths) == 0 {
		t.Fatalf("no paper specs found: %v", err)
	}
	for _, path := range paths {
		t.Run(filepath.Base(path), func(t *testing.T) {
			spec, err := LoadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			jobs, err := spec.Jobs()
			if err != nil {
				t.Fatal(err)
			}
			if len(jobs) != spec.Size() || len(jobs) == 0 {
				t.Fatalf("expanded to %d cells, Size() = %d", len(jobs), spec.Size())
			}
			ran := map[[2]string]bool{}
			for _, j := range jobs {
				sc := j.Scenario
				k := [2]string{sc.TopoSpec, sc.Script}
				if ran[k] {
					continue
				}
				ran[k] = true
				if sc.Workload.Kind == scenario.WorkloadCBR {
					sc.Workload.EndNs = 5_000_000
				} else {
					sc.Workload.DurationNs, sc.Workload.MaxFlows = 1_000_000, 40
				}
				res, err := scenario.Run(sc)
				if err != nil {
					t.Fatalf("%s: %v", sc.Name, err)
				}
				if res.Flows == 0 {
					t.Fatalf("%s: no flows offered", sc.Name)
				}
			}
		})
	}

	// The committed Abilene file is the generator's graph, so Fig 15 and
	// appendix D run on the topology the paper's §6.4 setup describes.
	t.Run("abilene_x0.002.topo", func(t *testing.T) {
		var want bytes.Buffer
		if err := topo.Format(&want, topo.AbileneWithHostsScaled(0, 0.002)); err != nil {
			t.Fatal(err)
		}
		file, err := os.ReadFile("examples/paper/abilene_x0.002.topo")
		if err != nil {
			t.Fatal(err)
		}
		var got []string
		for _, line := range strings.SplitAfter(string(file), "\n") {
			if !strings.HasPrefix(line, "#") {
				got = append(got, line)
			}
		}
		if strings.Join(got, "") != want.String() {
			t.Fatal("examples/paper/abilene_x0.002.topo is not topo.Format(AbileneWithHostsScaled(0, 0.002))")
		}
	})
}

// runPaperSpec runs one committed spec in full and returns its report
// with the CSV rows contracamp -csv would write, keyed by column name.
func runPaperSpec(t *testing.T, name string) (*Report, []map[string]string) {
	t.Helper()
	spec, err := LoadFile(filepath.Join("examples/paper", name))
	if err != nil {
		t.Fatal(err)
	}
	report, err := Run(spec, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if n := report.Failed(); n > 0 {
		t.Fatalf("%s: %d cells failed", name, n)
	}
	var buf bytes.Buffer
	if err := report.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	recs, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	rows := make([]map[string]string, len(recs)-1)
	for i, rec := range recs[1:] {
		rows[i] = map[string]string{}
		for c, col := range recs[0] {
			rows[i][col] = rec[c]
		}
	}
	return report, rows
}

// TestPaperSpecsReproduceExperiments pins what the retired experiments
// command printed for `-quick -seed 1` at its last commit (5f7e7fb): the
// committed specs, run through Run, yield the same numbers to the
// printed digit, apart from the pins a protocol change has moved since,
// each named with its old value in CHANGES.md. runPaperSpec fails on any
// failed cell, so every cell,
// under each scheme, also passes scenario.Run's horizon audit: no
// register miss, every packet conserved, the event queue and timer slots
// in step.
func TestPaperSpecsReproduceExperiments(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	inRepoRoot(t)

	// Figures 11 and 15: mean FCT (ms) by scheme at loads 0.2/0.5/0.8.
	for _, fig := range []struct {
		spec string
		want map[string][3]string
	}{
		{"fig11_websearch.json", map[string][3]string{
			"ecmp":   {"0.093", "0.886", "1.467"},
			"contra": {"0.094", "0.677", "1.201"},
			"hula":   {"0.093", "0.656", "1.158"},
		}},
		{"fig15_websearch.json", map[string][3]string{
			"sp":     {"0.187", "0.454", "0.728"},
			"contra": {"0.222", "0.505", "1.047"},
			"spain":  {"0.188", "0.500", "0.925"},
		}},
	} {
		_, rows := runPaperSpec(t, fig.spec)
		loadIdx := map[string]int{"0.2": 0, "0.5": 1, "0.8": 2}
		if len(rows) != 3*len(fig.want) {
			t.Fatalf("%s: %d rows, want %d", fig.spec, len(rows), 3*len(fig.want))
		}
		for _, r := range rows {
			if want := fig.want[r["scheme"]][loadIdx[r["load"]]]; r["mean_fct_ms"] != want {
				t.Errorf("%s %s load %s: mean FCT %s ms, want %s", fig.spec, r["scheme"], r["load"], r["mean_fct_ms"], want)
			}
		}
	}

	// Figure 13: mean FCT and the queue-length CDF in MSS, sampled every
	// 100 µs from warm-up to the cell's last completion.
	report, _ := runPaperSpec(t, "fig13_queues.json")
	if len(report.Outcomes) != 2 {
		t.Fatalf("fig13: %d cells, want contra and ecmp", len(report.Outcomes))
	}
	for _, o := range report.Outcomes {
		r := o.Result
		q := r.Queues
		if q == nil {
			t.Fatalf("fig13 %s: no queue summary", r.Scheme)
		}
		got := fmt.Sprintf("%.3f ms, %.1f/%.1f/%.1f/%.1f MSS", 1e3*r.MeanFCT, q.P50MSS, q.P90MSS, q.P99MSS, q.MaxMSS)
		want := map[scenario.Scheme]string{
			"contra": "1.153 ms, 0.0/30.3/623.8/801.4 MSS",
			"ecmp":   "1.590 ms, 0.0/9.1/631.4/999.8 MSS",
		}[r.Scheme]
		if got != want {
			t.Errorf("fig13 %s: %s, want %s", r.Scheme, got, want)
		}
	}

	// Figure 14: the old route printed 4.27 / 2.14 / 1.00 for both schemes.
	_, rows := runPaperSpec(t, "fig14_failover.json")
	if len(rows) != 2 {
		t.Fatalf("fig14: %d rows, want contra and hula", len(rows))
	}
	for _, r := range rows {
		if r["baseline_gbps"] != "4.275" || r["min_gbps"] != "2.137" || r["recovery_ms"] != "1.000" {
			t.Errorf("fig14 %s: baseline %s dip %s recovery %s, want 4.275 / 2.137 / 1.000",
				r["scheme"], r["baseline_gbps"], r["min_gbps"], r["recovery_ms"])
		}
	}

	// Figure 16: fabric traffic (tags included) normalized to ECMP.
	report, _ = runPaperSpec(t, "fig16_websearch.json")
	type cell struct {
		scheme scenario.Scheme
		load   float64
	}
	traffic := map[cell]float64{}
	for _, o := range report.Outcomes {
		traffic[cell{o.Result.Scheme, o.Result.Load}] = o.Result.FabricBytes + o.Result.TagBytes
	}
	for c, want := range map[cell]string{
		{"hula", 0.1}: "1.0130", {"contra", 0.1}: "1.0195",
		{"hula", 0.6}: "0.9958", {"contra", 0.6}: "0.9949",
	} {
		if got := fmt.Sprintf("%.4f", traffic[c]/traffic[cell{"ecmp", c.load}]); got != want {
			t.Errorf("fig16 websearch %s at load %g: %s x ECMP, want %s", c.scheme, c.load, got, want)
		}
	}

	// §6.5: share of data packets that revisited a switch.
	report, _ = runPaperSpec(t, "loops.json")
	for _, o := range report.Outcomes {
		want := map[string]string{"dc": "0.0327%", "abilene+hosts": "0.0000%"}[o.Result.Topo]
		if got := fmt.Sprintf("%.4f%%", 100*o.Result.LoopedFrac); got != want {
			t.Errorf("loops %s: looped %s, want %s", o.Result.Topo, got, want)
		}
	}

	// Appendix D: probes + tags as a share of Contra's Abilene traffic.
	report, _ = runPaperSpec(t, "appendix_d.json")
	res := report.Outcomes[0].Result
	if got := fmt.Sprintf("%.4f%%", 100*(res.ProbeBytes+res.TagBytes)/(res.FabricBytes+res.TagBytes)); got != "1.5180%" {
		t.Errorf("appendix D: protocol overhead %s, want 1.5180%%", got)
	}
}

// TestPaperSpecPremises checks, on each spec's built topology, the
// premise the spec's figure stands on: Figs 12 and 15 with no
// simulation, Figs 14 and 16 from the spec's own cells. A spec edit
// that breaks a premise fails here, not as a quietly different curve.
func TestPaperSpecPremises(t *testing.T) {
	inRepoRoot(t)
	for _, p := range []struct {
		spec    string
		premise string
		check   func(*topo.Graph, *Spec) error
	}{
		{"fig15_websearch.json", "SP's paths for the four pairs overlap at most two to a link", spPairsPerLink},
		{"fig15_cache.json", "SP's paths for the four pairs overlap at most two to a link", spPairsPerLink},
		{"fig12_websearch.json", "after the failure ECMP splits a pair equally over unequal paths", ecmpSplitsUnequally},
		{"fig12_cache.json", "after the failure ECMP splits a pair equally over unequal paths", ecmpSplitsUnequally},
		{"fig14_failover.json", "the failed link carries the CBR traffic under every scheme until it fails", failedLinkCarriesTraffic},
		{"fig16_websearch.json", "every scheme is offered the same flows at each load and completes them all", sameFlowsAllComplete},
		{"fig16_cache.json", "every scheme is offered the same flows at each load and completes them all", sameFlowsAllComplete},
	} {
		spec, err := LoadFile(filepath.Join("examples/paper", p.spec))
		if err != nil {
			t.Fatal(err)
		}
		g, err := cliutil.BuildTopology(spec.Topos[0])
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range spec.Scripts {
			for _, ev := range s.Events {
				if ev.Kind == scenario.LinkDown && ev.AtNs == 0 {
					l, err := cliutil.FindLink(g, ev.Link)
					if err != nil {
						t.Fatal(err)
					}
					g.SetDown(l, true)
				}
			}
		}
		if err := p.check(g, spec); err != nil {
			t.Errorf("%s: %s: %v", p.spec, p.premise, err)
		}
	}
}

// spPairsPerLink routes the spec's host pairs as SP does, on the first
// next hop, and holds the pairs each directed switch-switch link
// carries to what the Fig 15 spec has: two on each of five links, one
// on the rest. The pairs never all cross one link, so SP does not
// concentrate them there; a spec that makes them must update this pin.
func spPairsPerLink(g *topo.Graph, spec *Spec) error {
	carried := map[string]int{}
	for _, pair := range spec.Workload.Pairs {
		cur, dst := g.HostEdge(g.MustNode(pair[0])), g.HostEdge(g.MustNode(pair[1]))
		for cur != dst {
			next := g.AppendECMPNextHops(nil, cur, dst)[0]
			carried[g.Node(cur).Name+"->"+g.Node(next).Name]++
			cur = next
		}
	}
	var shared []string
	for link, n := range carried {
		if n > 1 {
			shared = append(shared, fmt.Sprintf("%s %d", link, n))
		}
	}
	sort.Strings(shared)
	if got, want := strings.Join(shared, ", "), "DEN->KC 2, HOU->ATL 2, IND->CHI 2, KC->IND 2, LA->HOU 2"; got != want {
		return fmt.Errorf("links carrying more than one pair: %s, want %s", got, want)
	}
	return nil
}

// failedLinkCarriesTraffic runs each cell of the spec with telemetry
// every millisecond and reads, at the last sample before the spec's
// link_down, the utilisation of the link it fails. Fig 14 measures the
// dip and recovery of traffic that link carried, so it must carry some:
// in either direction at least 1 % of its capacity. Probes alone keep
// an idle fabric link of this spec under 0.1 %, and the CBR traffic
// puts about 11 % on the one that fails.
func failedLinkCarriesTraffic(g *topo.Graph, spec *Spec) error {
	const floor = 0.01
	var down *scenario.Event
	for _, s := range spec.Scripts {
		for i := range s.Events {
			if s.Events[i].Kind == scenario.LinkDown {
				down = &s.Events[i]
			}
		}
	}
	if down == nil {
		return fmt.Errorf("no link_down event")
	}
	id, err := scenario.AutoFailLink(g)
	if down.Link != "" && down.Link != "auto" {
		id, err = cliutil.FindLink(g, down.Link)
	}
	if err != nil {
		return err
	}
	l := g.Links()[id]
	a, b := g.Node(l.A).Name, g.Node(l.B).Name
	jobs, err := spec.Jobs()
	if err != nil {
		return err
	}
	for _, j := range jobs {
		sc := j.Scenario
		sc.MetricsIntervalNs = 1_000_000
		res, err := scenario.Run(sc)
		if err != nil {
			return err
		}
		cols := map[string]int{}
		for i, name := range res.Metrics.Links() {
			cols[name] = i
		}
		var at int64
		var util float64
		res.Metrics.EachSample(func(tk metrics.Tick) {
			if tk.T < down.AtNs {
				at, util = tk.T, math.Max(tk.Util[cols[a+"->"+b]], tk.Util[cols[b+"->"+a]])
			}
		})
		if util < floor {
			return fmt.Errorf("%s: %s-%s at %d ns is %.2f %% utilised, want at least %.0f %%", sc.Scheme, a, b, at, 100*util, 100*floor)
		}
	}
	return nil
}

// sameFlowsAllComplete runs each cell of the spec with its flows
// recorded. Fig 16 divides each scheme's fabric bytes by ECMP's at the
// same load, which compares like with like only when every scheme is
// offered the same flows and delivers all of them within its drain.
func sameFlowsAllComplete(_ *topo.Graph, spec *Spec) error {
	jobs, err := spec.Jobs()
	if err != nil {
		return err
	}
	offered := map[float64][]flowtrace.Flow{}
	for _, j := range jobs {
		sc := j.Scenario
		sc.RecordFlows = true
		res, err := scenario.Run(sc)
		if err != nil {
			return err
		}
		if res.Flows == 0 || res.Completed != int64(res.Flows) {
			return fmt.Errorf("%s at load %g: %d of %d flows completed", sc.Scheme, res.Load, res.Completed, res.Flows)
		}
		flows := res.FlowTrace.Flows
		if first, ok := offered[res.Load]; !ok {
			offered[res.Load] = flows
		} else if !slices.Equal(flows, first) {
			return fmt.Errorf("%s at load %g: offered %d flows unlike the first scheme's %d", sc.Scheme, res.Load, len(flows), len(first))
		}
	}
	return nil
}

// ecmpSplitsUnequally spreads one unit of demand between every two
// switches with hosts over ECMP's next hops, hop by hop, and looks for
// a pair whose first-hop split is equal but whose branches differ in
// bottleneck: the least capacity per unit of demand on a link the
// branch may take. That is the asymmetry Fig 12 measures; on the
// intact fabric every branch of a pair is alike.
func ecmpSplitsUnequally(g *topo.Graph, _ *Spec) error {
	var ends []topo.NodeID
	for _, s := range g.Switches() {
		for _, p := range g.Ports(s) {
			if g.Node(p.Peer).Kind == topo.Host {
				ends = append(ends, s)
				break
			}
		}
	}
	type hop struct{ a, b topo.NodeID }
	demand := map[hop]float64{}
	var spread func(at, dst topo.NodeID, share float64)
	spread = func(at, dst topo.NodeID, share float64) {
		nh := g.AppendECMPNextHops(nil, at, dst)
		for _, n := range nh {
			demand[hop{at, n}] += share / float64(len(nh))
			spread(n, dst, share/float64(len(nh)))
		}
	}
	for _, s := range ends {
		for _, d := range ends {
			spread(s, d, 1)
		}
	}
	// bottleneck is the least capacity per unit of demand from a over
	// the hop to b and on toward dst.
	var bottleneck func(a, b, dst topo.NodeID) float64
	bottleneck = func(a, b, dst topo.NodeID) float64 {
		c := g.LinkBetween(a, b).Bandwidth / demand[hop{a, b}]
		for _, n := range g.AppendECMPNextHops(nil, b, dst) {
			c = math.Min(c, bottleneck(b, n, dst))
		}
		return c
	}
	for _, s := range ends {
		for _, d := range ends {
			nh := g.AppendECMPNextHops(nil, s, d)
			for _, n := range nh[min(1, len(nh)):] {
				if bottleneck(s, n, d) != bottleneck(s, nh[0], d) {
					return nil
				}
			}
		}
	}
	return fmt.Errorf("every pair's ECMP branches have the same bottleneck")
}
