package scenario

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"time"

	"contra/internal/baseline"
	"contra/internal/chaos"
	"contra/internal/cliutil"
	"contra/internal/dataplane"
	"contra/internal/flowtrace"
	"contra/internal/metrics"
	"contra/internal/sim"
	"contra/internal/stats"
	"contra/internal/topo"
	"contra/internal/trace"
	"contra/internal/workload"
)

// Result summarizes one scenario run. Every field that reaches JSON is
// a deterministic function of the Scenario, so a campaign's aggregated
// output is byte-identical however its runs are scheduled; wall-clock
// time and bulky artifacts (series, traces, telemetry) stay out of the
// encoding.
type Result struct {
	Name    string  `json:"name,omitempty"`
	Topo    string  `json:"topo"`
	Scheme  Scheme  `json:"scheme"`
	Script  string  `json:"script,omitempty"`
	Dist    string  `json:"dist,omitempty"`
	Pattern string  `json:"pattern,omitempty"`
	Load    float64 `json:"load,omitempty"`
	RateBps float64 `json:"rate_bps,omitempty"`
	Seed    int64   `json:"seed"`

	Flows     int   `json:"flows"`
	Completed int64 `json:"completed"`

	// The mean and every percentile are read, by linear interpolation,
	// from the one exact sample of completed FCTs (sim.Network.FCT).
	MeanFCT float64 `json:"mean_fct,omitempty"` // seconds
	P50FCT  float64 `json:"p50_fct,omitempty"`
	P95FCT  float64 `json:"p95_fct,omitempty"`
	P99FCT  float64 `json:"p99_fct,omitempty"`

	FabricBytes   float64 `json:"fabric_bytes"`
	DataBytes     float64 `json:"data_bytes"`
	AckBytes      float64 `json:"ack_bytes"`
	ProbeBytes    float64 `json:"probe_bytes"`
	TagBytes      float64 `json:"tag_bytes"`
	QueueDrops    float64 `json:"queue_drops"`
	LinkDownDrops float64 `json:"linkdown_drops"`
	LoopedFrac    float64 `json:"looped_frac,omitempty"`
	LoopBreaks    float64 `json:"loop_breaks,omitempty"`

	// Probe aggregation (probe_packing / suppress_eps / refresh_every):
	// on-wire probe transmissions avoided by packing and per-origin
	// re-advertisements skipped by delta suppression. Zero (and absent
	// from the JSON) when the knobs are off, so historical campaign
	// output is byte-identical. ProbeAggOn records that a knob was
	// enabled, so downstream aggregation can tell a genuine zero
	// saving apart from knobs-off.
	ProbeAggOn      bool    `json:"probe_agg_on,omitempty"`
	ProbeTxSaved    float64 `json:"probe_tx_saved,omitempty"`
	ProbeSuppressed float64 `json:"probe_suppressed,omitempty"`

	// Time-series telemetry (metrics_interval_ns): MetricsOn records
	// that the sampler ran (so downstream views can tell "no samples"
	// from "metrics off"), MetricsSamples counts retained ticks. Both
	// are absent from the JSON when metrics are off, keeping historical
	// campaign output byte-identical; the recorder itself is an
	// artifact (Metrics below, excluded from JSON).
	MetricsOn      bool `json:"metrics_on,omitempty"`
	MetricsSamples int  `json:"metrics_samples,omitempty"`

	// Decision tracing (trace_level): the summary counts ride the
	// deterministic encoding — absent when tracing is off, so
	// historical campaign output stays byte-identical. The recorder
	// itself is an artifact (Trace below, excluded from JSON).
	TraceLevel     string `json:"trace_level,omitempty"`
	TraceFlows     int64  `json:"trace_flows,omitempty"`
	TraceDecisions int64  `json:"trace_decisions,omitempty"`
	TraceDivergent int64  `json:"trace_divergent,omitempty"`

	// Per-class FCT attribution (class_stats): elephant vs. mice
	// quantiles, per-cohort stats, Jain fairness. Nil when off.
	Classes *ClassStats `json:"classes,omitempty"`

	// Queue-length distribution (sample_queues): the sampled fabric
	// backlogs in MSS, Figure 13's CDF at four points. Nil when off.
	Queues *QueueSummary `json:"queues,omitempty"`

	// Counterfactual replay (the counterfactual setting): per-flow ΔFCT
	// of the pinned flows. Nil when off.
	Counterfactual *CounterfactualReport `json:"counterfactual,omitempty"`

	// Failover analysis (BinNs > 0 and a runtime link_down/degrade
	// event): throughput before the first event, the deepest dip after
	// it, and how long delivered throughput stayed depressed. For
	// scripts with several disruptions these top-level fields keep
	// describing the first one (the historical single-failure report)
	// and Recoveries carries one window per disruption instant.
	BaselineBps float64          `json:"baseline_bps,omitempty"`
	MinBps      float64          `json:"min_bps,omitempty"`
	RecoveryNs  int64            `json:"recovery_ns,omitempty"`
	FailAtNs    int64            `json:"fail_at_ns,omitempty"`
	BinNs       int64            `json:"bin_ns,omitempty"` // Series bin width
	Recoveries  []RecoveryWindow `json:"recoveries,omitempty"`

	// Chaos measurements (switch failures, probe loss, policy swaps).
	// NodeDownDrops counts packets lost to whole-switch failures;
	// ProbeLossSeen/Dropped count probes offered to and discarded by
	// loss-injected channels (their ratio is ProbeLossFrac); Swaps
	// carries one convergence window per policy_swap event.
	NodeDownDrops    float64            `json:"nodedown_drops,omitempty"`
	ProbeLossSeen    int64              `json:"probe_loss_seen,omitempty"`
	ProbeLossDropped int64              `json:"probe_loss_dropped,omitempty"`
	ProbeLossFrac    float64            `json:"probe_loss_frac,omitempty"`
	Swaps            []chaos.SwapWindow `json:"swaps,omitempty"`

	// SimulatedNs is where the cell ended: an FCT cell's last completion
	// (or its horizon, with flows open), a CBR cell's EndNs.
	SimulatedNs int64 `json:"simulated_ns"`

	// Artifacts excluded from the deterministic encoding.
	WallTime  time.Duration     `json:"-"`
	Series    []stats.Point     `json:"-"` // bin start ns -> delivered bits/sec
	Trace     *trace.Recorder   `json:"-"` // set when TraceLevel is active
	Metrics   *metrics.Recorder `json:"-"` // set when MetricsIntervalNs > 0
	FlowTrace *flowtrace.Trace  `json:"-"` // set when RecordFlows is on
}

// ProbeFrac returns probe bytes as a fraction of all fabric bytes.
func (r *Result) ProbeFrac() float64 {
	if r.FabricBytes <= 0 {
		return 0
	}
	return r.ProbeBytes / r.FabricBytes
}

// SwapConvergenceNs summarizes the policy-swap outcome for flat
// reports: no swaps (0, false); at least one swap that never converged
// before the run ended (-1, true); otherwise the widest convergence
// window across the scenario's swaps (ns, true).
func (r *Result) SwapConvergenceNs() (int64, bool) {
	if len(r.Swaps) == 0 {
		return 0, false
	}
	var widest int64
	for _, w := range r.Swaps {
		if w.ConvergenceNs < 0 {
			return -1, true
		}
		if w.ConvergenceNs > widest {
			widest = w.ConvergenceNs
		}
	}
	return widest, true
}

// QueueSummary is the sampled fabric queue-length distribution. Every
// field is always encoded: at moderate load most samples are empty
// queues, and a p50 of 0 is a reading, not an absence.
type QueueSummary struct {
	Samples int64   `json:"samples"`
	P50MSS  float64 `json:"p50_mss"`
	P90MSS  float64 `json:"p90_mss"`
	P99MSS  float64 `json:"p99_mss"`
	MaxMSS  float64 `json:"max_mss"`
}

// FabricCapacity sums edge-uplink bandwidth (edge/leaf to the rest of
// the fabric), the reference the paper's load fractions normalize
// against. Down links still count: the asymmetric experiments keep the
// symmetric load reference ("75% of capacity remains").
func FabricCapacity(g *topo.Graph) float64 {
	var total float64
	for _, l := range g.Links() {
		a, b := g.Node(l.A), g.Node(l.B)
		if a.Kind != topo.Switch || b.Kind != topo.Switch {
			continue
		}
		if a.Role == topo.RoleEdge || b.Role == topo.RoleEdge {
			total += l.Bandwidth
		}
	}
	if total == 0 {
		// Non-hierarchical (WAN) topology: use a single link's worth,
		// scaled by sender count elsewhere.
		for _, l := range g.Links() {
			if g.Node(l.A).Kind == topo.Switch && g.Node(l.B).Kind == topo.Switch {
				total = l.Bandwidth
				break
			}
		}
	}
	return total
}

// AutoFailLink picks the first edge-fabric link: the default target of
// "auto" link events and the link the paper's Figure 14 fails.
func AutoFailLink(g *topo.Graph) (topo.LinkID, error) {
	for _, l := range g.Links() {
		if g.Node(l.A).Kind == topo.Switch && g.Node(l.B).Kind == topo.Switch {
			if g.Node(l.A).Role == topo.RoleEdge || g.Node(l.B).Role == topo.RoleEdge {
				return l.ID, nil
			}
		}
	}
	return -1, fmt.Errorf("scenario: no fabric link to fail in %s", g.Name)
}

// AutoFailSwitch picks the default target of "auto" switch events: the
// first core switch (whole-spine failure, the classic node-failure
// experiment), falling back to the first aggregation switch and then
// any switch.
func AutoFailSwitch(g *topo.Graph) (topo.NodeID, error) {
	var firstAgg, firstAny topo.NodeID = -1, -1
	for _, id := range g.Switches() {
		switch g.Node(id).Role {
		case topo.RoleCore:
			return id, nil
		case topo.RoleAgg:
			if firstAgg < 0 {
				firstAgg = id
			}
		}
		if firstAny < 0 {
			firstAny = id
		}
	}
	if firstAgg >= 0 {
		return firstAgg, nil
	}
	if firstAny >= 0 {
		return firstAny, nil
	}
	return -1, fmt.Errorf("scenario: no switch to fail in %s", g.Name)
}

// findSwitch resolves a switch name ("auto"/empty via AutoFailSwitch).
func findSwitch(g *topo.Graph, name string) (topo.NodeID, error) {
	if name == "" || name == "auto" {
		return AutoFailSwitch(g)
	}
	id, ok := g.NodeByName(name)
	if !ok {
		return -1, fmt.Errorf("scenario: no node %q in %s", name, g.Name)
	}
	if g.Node(id).Kind != topo.Switch {
		return -1, fmt.Errorf("scenario: node %q in %s is a host, not a switch", name, g.Name)
	}
	return id, nil
}

// fabricLinksOf lists the switch-switch links attached to a switch
// (the per-switch probe_loss target set).
func fabricLinksOf(g *topo.Graph, id topo.NodeID) []topo.LinkID {
	var out []topo.LinkID
	for _, p := range g.Ports(id) {
		if g.Node(p.Peer).Kind == topo.Switch {
			out = append(out, p.Link)
		}
	}
	return out
}

// Deploy builds the scenario's scheme on a network: one router per
// switch, from the scenario's policy and protocol settings. Contra's
// program is the one the process shares for g, policy and options
// (sharedProgram), compiled on first use. It returns
// the Contra fleet handle when there is one (runtime policy swaps and
// diagnostics; fleet.Routers() exposes the per-switch routers) and nil
// for every baseline. Observers are not its business: attachObservers
// hands them to whichever routers take them.
func Deploy(n *sim.Network, g *topo.Graph, s *Scenario) (*dataplane.Fleet, error) {
	switch s.Scheme {
	case SchemeContra:
		comp, err := sharedProgram(g, s.Policy, s.Options)
		if err != nil {
			return nil, err
		}
		return dataplane.DeployFleet(n, comp), nil
	case SchemeECMP:
		baseline.DeployECMP(n)
	case SchemeSP:
		baseline.DeploySP(n)
	case SchemeHula:
		if err := baseline.CheckHulaTopology(g); err != nil {
			return nil, fmt.Errorf("scenario: scheme %q on topology %q: %w", s.Scheme, s.TopoSpec, err)
		}
		baseline.DeployHula(n, s.Options)
	case SchemeSpain:
		baseline.DeploySpain(n, baseline.SpainConfig{})
	default:
		return nil, fmt.Errorf("scenario: unknown scheme %q", s.Scheme)
	}
	return nil, nil
}

// attachObservers hands the run's observers to every router that takes
// them, discovered the way sim.Rebooter is: by optional interface. A
// nil observer is off and attaches nothing. rec is decision tracing
// (the routers that make per-flowlet decisions: contra, hula); mrec
// gives each router with probe tables a churn accumulator under its
// switch's name (contra, hula; the recorder sorts by name, so the visit
// order does not reach the output); ovr pins flows for counterfactual
// replay (contra — Validate has refused it for anything else). The next
// observer is one more interface here.
func attachObservers(n *sim.Network, g *topo.Graph, rec *trace.Recorder, mrec *metrics.Recorder, ovr *trace.Overrides) {
	for _, id := range g.Switches() {
		r := n.Switch(id).Router()
		if t, ok := r.(interface{ SetTracer(*trace.Recorder) }); ok && rec != nil {
			t.SetTracer(rec)
		}
		if c, ok := r.(interface{ SetChurn(*metrics.Churn) }); ok && mrec != nil {
			c.SetChurn(mrec.RegisterRouter(g.Node(id).Name))
		}
		if o, ok := r.(interface{ SetOverrides(*trace.Overrides) }); ok && ovr != nil {
			o.SetOverrides(ovr)
		}
	}
}

// resolved is a scenario's event script with every name looked up in
// the topology, split by who consumes each part.
type resolved struct {
	pre    []topo.LinkID      // links failed in the topology itself, before routers deploy
	links  []sim.NetworkEvent // runtime link down/up/scale, injected by play
	nodes  []sim.NetworkEvent // switch failures and reboots
	loss   []sim.NetworkEvent // probe-loss rates, one event per covered link
	swaps  []chaos.SwapEvent  // policy hot-swaps, armed by chaos.Arm
	surges []Event            // extra traffic, materialised by fctFlows
}

// findLink resolves a link name ("auto"/empty via AutoFailLink).
func findLink(g *topo.Graph, name string) (topo.LinkID, error) {
	if name == "" || name == "auto" {
		return AutoFailLink(g)
	}
	return cliutil.FindLink(g, name)
}

// resolvedEvents looks the script's names up in g and sorts its events
// by consumer, each list in script order.
func (s *Scenario) resolvedEvents(g *topo.Graph) (*resolved, error) {
	var sc resolved
	for _, ev := range s.Events {
		switch ev.Kind {
		case Surge:
			sc.surges = append(sc.surges, ev)
		case SwitchDown, SwitchUp:
			node, err := findSwitch(g, ev.Node)
			if err != nil {
				return nil, err
			}
			kind := sim.EvNodeDown
			if ev.Kind == SwitchUp {
				kind = sim.EvNodeUp
			}
			sc.nodes = append(sc.nodes, sim.NetworkEvent{At: ev.AtNs, Kind: kind, Node: node})
		case PolicySwap:
			sc.swaps = append(sc.swaps, chaos.SwapEvent{At: ev.AtNs, Source: ev.NewPolicy})
		case ProbeLoss:
			var links []topo.LinkID
			if ev.Node != "" {
				node, err := findSwitch(g, ev.Node)
				if err != nil {
					return nil, err
				}
				links = fabricLinksOf(g, node)
				if len(links) == 0 {
					return nil, fmt.Errorf("scenario %q: switch %q has no fabric links for probe_loss", s.Name, ev.Node)
				}
			} else {
				id, err := findLink(g, ev.Link)
				if err != nil {
					return nil, err
				}
				links = []topo.LinkID{id}
			}
			for _, id := range links {
				sc.loss = append(sc.loss, sim.NetworkEvent{At: ev.AtNs, Kind: sim.EvProbeLoss, Link: id, Rate: ev.Rate})
			}
		case LinkDown, LinkUp, Degrade:
			id, err := findLink(g, ev.Link)
			if err != nil {
				return nil, err
			}
			if ev.Kind == LinkDown && ev.AtNs <= 0 {
				sc.pre = append(sc.pre, id)
				continue
			}
			ne := sim.NetworkEvent{At: ev.AtNs, Link: id}
			switch ev.Kind {
			case LinkDown:
				ne.Kind = sim.EvLinkDown
			case LinkUp:
				ne.Kind = sim.EvLinkUp
			case Degrade:
				ne.Kind = sim.EvLinkScale
				ne.Scale = ev.Scale
			}
			sc.links = append(sc.links, ne)
		}
	}
	return &sc, nil
}

// lossSeedMix decouples the probe-loss RNG stream from every other
// consumer of the scenario seed.
const lossSeedMix = 0x70726f6265 // "probe"

// Run executes a scenario and collects its Result. Execution is
// deterministic: the same scenario (including seed) produces an
// identical Result on every run, serial or inside a parallel campaign.
// With the counterfactual setting on, it is a what-if replay
// (runCounterfactual).
func Run(s Scenario) (*Result, error) {
	// Validate once, before fill: fill expands ramp sugar into surges,
	// so a malformed ramp (e.g. negative steps) must be rejected while
	// it is still visible — otherwise a Go-constructed scenario would
	// silently lose the event instead of failing like a decoded spec.
	// fill keeps a valid scenario valid (FuzzWorkload holds it to that),
	// and track_loops is checked on the graph built below.
	if err := s.validate(); err != nil {
		return nil, err
	}
	if s.Counterfactual != nil {
		return runCounterfactual(s)
	}
	s.fill()
	wallStart := time.Now()
	g, err := sharedTopology(s.TopoSpec)
	if err != nil {
		return nil, err
	}
	if s.TrackLoops {
		if err := s.checkTrackLoops(g); err != nil {
			return nil, err
		}
	}
	evs, err := s.resolvedEvents(g)
	if err != nil {
		return nil, err
	}
	if len(evs.pre) > 0 {
		// A link failed before the routers deploy is down in the topology
		// itself, and the graph other cells share is never written: this
		// cell fails it in a copy of its own, which also compiles uncached.
		g = g.Clone()
		for _, id := range evs.pre {
			g.SetDown(id, true)
		}
	}

	// A trace workload resolves and loads its recording up front: the
	// meta line decides the play order, the measurement deadline and
	// (for CBR recordings) the default bin width before any simulation
	// state exists.
	var replay *offered
	if s.Workload.Kind == WorkloadTrace {
		replay, err = loadReplay(&s, g)
		if err != nil {
			return nil, err
		}
		if replay.meta.Kind == flowtrace.KindCBR && s.BinNs == 0 {
			s.BinNs = 500_000
		}
	}

	// A CBR workload, live or replayed, plays in the legacy failover
	// order (see play).
	cbr := s.Workload.Kind == WorkloadCBR || (replay != nil && replay.meta.Kind == flowtrace.KindCBR)
	e := sim.NewEngine()
	e.SetBudget(s.BudgetEvents)
	n := sim.NewNetwork(e, g, sim.Config{TrackVisited: s.TrackLoops})
	// TraceLevel was validated above; a non-off level attaches the
	// recorder to the network (flow summaries) and, below, to the
	// decision-capturing routers.
	var rec *trace.Recorder
	if lvl, _ := trace.ParseLevel(s.TraceLevel); lvl != trace.Off {
		rec = trace.NewRecorder(lvl)
		n.Trace = rec
	}
	// A positive metrics interval attaches the telemetry recorder (link
	// and drop registration here, per-router churn below) and schedules
	// the sampler timer. Off (0) schedules nothing and leaves every hook
	// nil, so the run is byte-identical to the seed.
	var mrec *metrics.Recorder
	if s.MetricsIntervalNs > 0 {
		mrec = metrics.NewRecorder(s.MetricsIntervalNs)
		n.AttachMetrics(mrec)
	}
	fleet, err := Deploy(n, g, &s)
	if err != nil {
		return nil, err
	}
	attachObservers(n, g, rec, mrec, s.Overrides)
	if mrec != nil {
		e.Every(0, s.MetricsIntervalNs, sim.TickFunc(n.SampleMetrics))
	}
	if s.BinNs > 0 {
		n.RxSeries = stats.NewTimeseries(s.BinNs)
	}
	n.Start()
	// Switch failures, probe loss and policy swaps go on the event queue
	// before any simulated time passes, in this order (the link events
	// follow in play), so every event keeps the queue position the golden
	// digests were recorded with. Scenarios without such events schedule
	// nothing here.
	n.Inject(evs.nodes...)
	if len(evs.loss) > 0 {
		n.SetProbeLossSeed(s.Seed ^ lossSeedMix)
		n.Inject(evs.loss...)
	}
	swaps, err := chaos.Arm(n, fleet, evs.swaps, s.ProbePeriodNs, sharedRecompile)
	if err != nil {
		return nil, err
	}

	warmup := 12 * s.ProbePeriodNs
	res := &Result{
		Name:   s.Name,
		Topo:   s.TopoSpec, // the campaign's axis value, which every report view keys on
		Scheme: s.Scheme,
		Script: s.Script,
		Seed:   s.Seed,
	}
	if err := play(&s, e, n, g, warmup, evs, replay, cbr, res); err != nil {
		return nil, err
	}
	// The horizon is between events: every router is quiet, so the
	// network's invariants (no register miss, every packet conserved,
	// the event queue and timer slots in step) must hold exactly. A violation is a simulator bug, and the cell
	// fails with it instead of reporting numbers built on it.
	if err := auditNetwork(n); err != nil {
		return nil, fmt.Errorf("scenario %q: %w", s.Name, err)
	}

	tot := n.Totals()
	res.FabricBytes = n.FabricBytes()
	res.DataBytes = tot.DataBytes
	res.AckBytes = tot.AckBytes
	res.ProbeBytes = tot.ProbeBytes
	res.TagBytes = tot.TagBytes
	res.QueueDrops = float64(tot.Drops[sim.DropQueue])
	res.LinkDownDrops = float64(tot.Drops[sim.DropLinkDown])
	res.NodeDownDrops = float64(tot.Drops[sim.DropNodeDown])
	res.LoopBreaks = float64(tot.LoopBreaks)
	res.ProbeAggOn = s.ProbePacking || s.SuppressEps > 0 || s.RefreshEvery > 0
	res.ProbeTxSaved = float64(tot.ProbeTxSaved)
	res.ProbeSuppressed = float64(tot.ProbeSuppressed)
	res.Swaps = swaps.Windows()
	res.ProbeLossSeen, res.ProbeLossDropped = n.ProbeLossStats()
	if res.ProbeLossSeen > 0 {
		res.ProbeLossFrac = float64(res.ProbeLossDropped) / float64(res.ProbeLossSeen)
	}
	if rec != nil {
		res.TraceLevel = rec.Level().String()
		res.TraceFlows, res.TraceDecisions, res.TraceDivergent = rec.Totals()
		res.Trace = rec
	}
	if mrec != nil {
		res.MetricsOn = true
		res.MetricsSamples = mrec.Samples()
		res.Metrics = mrec
	}
	if n.DataPkts > 0 {
		res.LoopedFrac = float64(n.LoopedPkts) / float64(n.DataPkts)
	}
	if q := n.QueueMSS; s.SampleQueues {
		res.Queues = &QueueSummary{Samples: q.Count(), P50MSS: q.Quantile(0.5),
			P90MSS: q.Quantile(0.9), P99MSS: q.Quantile(0.99), MaxMSS: q.Quantile(1)}
	}
	res.SimulatedNs = e.Now()
	if n.RxSeries != nil {
		res.BinNs = s.BinNs
		pts := n.RxSeries.Points()
		res.Series = make([]stats.Point, len(pts))
		for i, p := range pts {
			res.Series[i] = stats.Point{T: p.T, V: n.RxSeries.Rate(p.V)}
		}
		analyzeRecovery(&s, res)
	}
	// Every field is read and the audit passed, so the network's tables,
	// packets and routers go to the next cell this process runs. A cell
	// that failed returned above and hands nothing on: its packets may
	// still be referenced.
	n.Release()
	res.WallTime = time.Since(wallStart)
	return res, nil
}

// auditNetwork is Network.Audit, a variable so that tests can fail a
// cell's audit.
var auditNetwork = (*sim.Network).Audit

// offered is a materialised workload: the flows to start, in injection
// order, and the flow-trace meta that labels and bounds the run — the
// same pair a recording of it carries, so a live workload plays exactly
// as the replay of its own trace. class labels flows[i] and is read
// only when recording.
type offered struct {
	flows []sim.FlowSpec
	meta  flowtrace.Meta
	class func(i int) string
}

// materialise builds the scenario's workload. The fct and cohorts
// generators draw from RNG streams of their own (derived from the
// scenario seed), so when play calls it does not move a single draw; a
// trace workload was already resolved by loadReplay.
func (s *Scenario) materialise(g *topo.Graph, warmup int64, surges []Event, replay *offered) (offered, error) {
	switch s.Workload.Kind {
	case WorkloadCBR:
		return cbrFlows(s, g, warmup)
	case WorkloadCohorts:
		return cohortFlows(s, g, warmup)
	case WorkloadTrace:
		return *replay, nil
	default:
		return fctFlows(s, g, warmup, surges)
	}
}

// play offers the workload and measures it: the one place flows start
// and FCT statistics are read. Two orderings exist, both historical
// and both pinned by golden digests. CBR (the legacy failover harness):
// flow starts land on the event queue before the event script, then the
// run goes to the recorded end. Everything else: events inject before
// the warm-up run, so a script can disrupt the control plane itself,
// then the flows start and the run drains until they all complete or
// the deadline passes — under extreme load some stay incomplete and the
// FCT statistics cover the completed ones, as in testbed practice.
func play(s *Scenario, e *sim.Engine, n *sim.Network, g *topo.Graph, warmup int64, evs *resolved, replay *offered, cbr bool, res *Result) error {
	if !cbr {
		n.Inject(evs.links...)
		if !e.Run(warmup) {
			return overBudget(s, e, n)
		}
	}
	w, err := s.materialise(g, warmup, evs.surges, replay)
	if err != nil {
		return err
	}
	// Sizes come from specs, traces and heavy-tailed samplers; StartFlows
	// allocates per packet and must never see one it cannot honour.
	for i := range w.flows {
		if f := &w.flows[i]; f.Size < 0 || f.Size > sim.MaxFlowBytes {
			return fmt.Errorf("scenario %q: flow %d (%s -> %s) is %d bytes; a flow carries at most %d",
				s.Name, f.ID, g.Node(f.Src).Name, g.Node(f.Dst).Name, f.Size, sim.MaxFlowBytes)
		}
	}
	var classes *classCollector
	if s.ClassStats && !cbr {
		classes = newClassCollector()
		n.FlowDone = classes.add
	}
	n.StartFlows(w.flows)
	if s.SampleQueues {
		e.Every(warmup, 100_000, sim.TickFunc(n.SampleQueues))
	}
	res.Dist, res.Pattern, res.Load, res.RateBps = w.meta.Dist, w.meta.Pattern, w.meta.Load, w.meta.RateBps
	res.Flows = len(w.flows)
	if cbr {
		n.Inject(evs.links...)
		if !e.Run(w.meta.EndNs) {
			return overBudget(s, e, n)
		}
	} else {
		// One run: it ends at the event that completes the last flow, or
		// at the horizon with some still open.
		if len(w.flows) > 0 && w.meta.DeadlineNs > warmup {
			n.StopAtCompletion(int64(len(w.flows)))
			if !e.Run(horizon(warmup, w.meta.DeadlineNs)) {
				return overBudget(s, e, n)
			}
		}
		res.Completed = n.CompletedFlows()
		res.MeanFCT = n.FCT.Mean()
		res.P50FCT = n.FCT.Quantile(0.5)
		res.P95FCT = n.FCT.Quantile(0.95)
		res.P99FCT = n.FCT.Quantile(0.99)
		if classes != nil {
			res.Classes = classes.stats()
		}
	}
	if s.RecordFlows {
		res.FlowTrace = recordFlows(s, g, w)
	}
	return nil
}

// horizon is where an FCT cell stops when some of its flows never
// complete: the first 10 ms step after warm-up at or past the deadline,
// which must be later than warm-up.
func horizon(warmup, deadline int64) int64 {
	const step = 10_000_000
	h := warmup + (deadline-warmup-1)/step*step + step
	if h < warmup {
		return math.MaxInt64 // a trace's deadline within a step of the clock's end
	}
	return h
}

// overBudget is the error of a run that spent its event budget: what it
// spent, where simulated time stood, and what the probe merges did,
// since a probe storm is what runs a budget out. Run hands nothing on
// from such a cell, as from one that fails its audit.
func overBudget(s *Scenario, e *sim.Engine, n *sim.Network) error {
	return fmt.Errorf("%s: scenario %q spent its %d events at %d ns simulated; probes %+v",
		ErrCellBudget, s.Name, s.BudgetEvents, e.Now(), n.Totals().Probes)
}

// fctFlows draws the Poisson workload plus any surges: the base stream
// (seed, flow IDs from 1) and surge i's stream (seed+101+i, flow IDs
// from (i+1)<<32) share endpoints and sizes, so adding a surge never
// perturbs the base arrival sequence.
func fctFlows(s *Scenario, g *topo.Graph, warmup int64, surges []Event) (offered, error) {
	w := s.Workload
	capacity := w.CapacityBps
	if capacity == 0 {
		capacity = FabricCapacity(g)
	}
	ends := workload.EndsFor(g, w.Pattern, w.IncastTargets)
	for _, p := range w.Pairs {
		var pair [2]topo.NodeID
		for j, name := range p {
			id, err := flowEnd(g, name)
			if err != nil {
				return offered{}, fmt.Errorf("scenario %q: pair endpoint: %v", s.Name, err)
			}
			pair[j] = id
		}
		ends.Pairs = append(ends.Pairs, pair)
	}
	dist, err := workload.ByName(w.Dist)
	if err != nil {
		return offered{}, fmt.Errorf("scenario %q: %v", s.Name, err)
	}
	stream := workload.Stream{
		Rate: workload.LoadRate(w.Load, capacity, dist), Size: dist, Ends: ends,
		StartNs: warmup, DurationNs: w.DurationNs,
		Seed: s.Seed, FirstID: 1, MaxFlows: w.MaxFlows,
	}
	flows, err := workload.Generate(g, stream)
	if err == nil && len(flows) == 0 {
		err = fmt.Errorf("workload produced no flows (load %.2f)", w.Load)
	}
	if err != nil {
		return offered{}, fmt.Errorf("scenario %q: %v", s.Name, err)
	}
	deadline := warmup + w.DurationNs + w.DrainNs
	for i, ev := range surges {
		stream.Rate = workload.LoadRate(ev.Load, capacity, dist)
		stream.StartNs, stream.DurationNs = ev.AtNs, ev.DurationNs
		stream.Seed, stream.FirstID = s.Seed+101+int64(i), uint64(i+1)<<32
		more, err := workload.Generate(g, stream)
		if err != nil {
			return offered{}, fmt.Errorf("scenario %q: surge%d: %v", s.Name, i+1, err)
		}
		flows = append(flows, more...)
		if end := ev.AtNs + ev.DurationNs + w.DrainNs; end > deadline {
			deadline = end
		}
	}
	return offered{
		flows: flows,
		meta: flowtrace.Meta{
			Kind: flowtrace.KindFCT, Dist: dist.Name, Pattern: w.Pattern,
			Load: w.Load, DeadlineNs: deadline,
		},
		class: func(i int) string {
			if co := flows[i].ID >> 32; co > 0 {
				return fmt.Sprintf("surge%d", co)
			}
			return "base"
		},
	}, nil
}

// cbrFlows builds the Figure 14 constant-bit-rate workload: every
// sender streams to a receiver across the fabric until EndNs.
func cbrFlows(s *Scenario, g *topo.Graph, warmup int64) (offered, error) {
	w := s.Workload
	senders, receivers := workload.SplitHosts(g)
	if len(senders) == 0 || len(receivers) == 0 {
		return offered{}, fmt.Errorf("scenario %q: cbr workload needs hosts", s.Name)
	}
	per := w.RateBps / float64(len(senders))
	// Snap the per-flow packet gap to divide the measurement bin, so
	// bins hold an integral packet count: otherwise a slow beat between
	// the CBR period and the bin width shows up as phantom throughput
	// dips that drown the failure signal.
	pktBits := float64((sim.MSS + sim.FrameHeader) * 8)
	gapRaw := pktBits / per * 1e9
	divisions := int64(float64(s.BinNs)/gapRaw + 0.5)
	if divisions < 1 {
		divisions = 1
	}
	per = pktBits * float64(divisions) / float64(s.BinNs) * 1e9
	// Pair each sender with a receiver in a different part of the
	// fabric (offset by a quarter of the host set) so that every flow
	// crosses the core and a failed link actually carries traffic.
	var flows []sim.FlowSpec
	for i, src := range senders {
		dst := receivers[(i+len(receivers)/4+1)%len(receivers)]
		for tries := 0; g.HostEdge(src) == g.HostEdge(dst) && tries < len(receivers); tries++ {
			dst = receivers[(i+len(receivers)/4+1+tries)%len(receivers)]
		}
		flows = append(flows, sim.FlowSpec{
			ID: uint64(i + 1), Src: src, Dst: dst,
			RateBps: per, Start: warmup,
		})
	}
	return offered{
		flows: flows,
		meta:  flowtrace.Meta{Kind: flowtrace.KindCBR, RateBps: w.RateBps, EndNs: w.EndNs},
		class: func(int) string { return "cbr" },
	}, nil
}

// RecoveryWindow is the failover analysis of one disruption instant:
// the delivered-throughput baseline immediately before it, the deepest
// dip afterwards, and how long throughput stayed depressed. Disruptions
// scheduled at the same nanosecond (a multi-link failure) coalesce into
// one window.
type RecoveryWindow struct {
	Kind        EventKind `json:"kind"`
	AtNs        int64     `json:"at_ns"`
	BaselineBps float64   `json:"baseline_bps"`
	MinBps      float64   `json:"min_bps"`
	RecoveryNs  int64     `json:"recovery_ns"`
}

// disruptionSeverity orders coalescing: when several disruptions land
// on the same nanosecond, the merged window is labeled with the most
// severe kind — a whole-switch failure over a link failure over a
// degradation.
func disruptionSeverity(k EventKind) int {
	switch k {
	case SwitchDown:
		return 3
	case LinkDown:
		return 2
	case Degrade:
		return 1
	}
	return 0
}

// disruptions returns the runtime disruption instants in time order. A
// disruption is a switch_down, a link_down at AtNs > 0, or a degrade
// that actually shrinks bandwidth (0 < Scale < 1); switch_up, link_up
// and degrade-restores are recovery actions, not disruptions, so they
// bound the preceding window instead of opening one of their own.
//
// Overlapping disruptions merge by splitting the timeline: each
// disruption closes the previous window at its own instant and opens
// its own (analyzeRecovery bounds every window at the next disruption
// and anchors a nested disruption's baseline at the previous one), so
// a switch_down landing inside an open link_down window yields two
// windows — the link_down's, measured up to the switch failure, and
// the switch_down's, measured against the already-degraded throughput
// delivered between the two events. Disruptions at the same nanosecond
// coalesce into one window labeled with the most severe kind.
func (s *Scenario) disruptions() []RecoveryWindow {
	var ds []RecoveryWindow
	for _, ev := range s.Events {
		if ev.AtNs <= 0 {
			continue
		}
		switch {
		case ev.Kind == LinkDown || ev.Kind == SwitchDown:
		case ev.Kind == Degrade && ev.Scale > 0 && ev.Scale < 1:
		default:
			continue
		}
		ds = append(ds, RecoveryWindow{Kind: ev.Kind, AtNs: ev.AtNs})
	}
	sort.SliceStable(ds, func(i, j int) bool { return ds[i].AtNs < ds[j].AtNs })
	out := ds[:0]
	for _, d := range ds {
		if len(out) > 0 && out[len(out)-1].AtNs == d.AtNs {
			if disruptionSeverity(d.Kind) > disruptionSeverity(out[len(out)-1].Kind) {
				out[len(out)-1].Kind = d.Kind
			}
			continue
		}
		out = append(out, d)
	}
	return out
}

// analyzeRecovery derives the failover metrics from the throughput
// series, one window per disruption instant: pre-event baseline,
// deepest post-event dip, and the time the series stayed depressed
// below the pre-event floor. Each window is bounded by the next
// disruption, so a script with several failures reports each on its
// own (ROADMAP: generalize the one-disruption-per-run assumption). A
// disruption at or after the cell's end never ran and gets no window;
// with none left, the result reports no recovery at all.
func analyzeRecovery(s *Scenario, res *Result) {
	end := s.Workload.EndNs
	if end == 0 {
		end = res.SimulatedNs
	}
	wins := slices.DeleteFunc(s.disruptions(), func(w RecoveryWindow) bool { return w.AtNs >= end })
	if len(wins) == 0 {
		return
	}
	for i := range wins {
		w := &wins[i]
		// Baseline: mean and floor of the bins in the 10ms before the
		// disruption. Residual measurement noise shows up in the
		// pre-failure floor, so "depressed" means below that floor,
		// not below the mean. For a disruption that follows another
		// within 10ms the baseline starts at the previous disruption,
		// so it reflects the throughput actually delivered just before
		// this event rather than mixing in healthy bins whose floor
		// would mask the new dip.
		lo := w.AtNs - 10_000_000
		if i > 0 && wins[i-1].AtNs > lo {
			lo = wins[i-1].AtNs
		}
		var base, cnt float64
		floor := -1.0
		for _, p := range res.Series {
			if p.T >= lo && p.T < w.AtNs-s.BinNs {
				base += p.V
				cnt++
				if floor < 0 || p.V < floor {
					floor = p.V
				}
			}
		}
		if cnt > 0 {
			base /= cnt
		}
		w.BaselineBps = base
		w.MinBps = base
		// The window ends at the next disruption or the last full bin.
		limit := end - s.BinNs
		if i+1 < len(wins) && wins[i+1].AtNs < limit {
			limit = wins[i+1].AtNs
		}
		// Recovery: the end of the last bin still depressed below 99%
		// of the pre-disruption floor. A dip that never crosses the
		// threshold recovered within one bin. A window with no baseline
		// or no bin (a disruption in the cell's last bin) is unmeasured:
		// recovery -1 and min 0, so no reader takes the baseline for a
		// measured minimum.
		lastLow := int64(-1)
		measured := false
		for _, p := range res.Series {
			if p.T < w.AtNs || p.T >= limit {
				continue
			}
			measured = true
			if p.V < w.MinBps {
				w.MinBps = p.V
			}
			if p.V < 0.99*floor {
				lastLow = p.T + s.BinNs
			}
		}
		switch {
		case base <= 0 || !measured:
			w.RecoveryNs, w.MinBps = -1, 0
		case lastLow < 0:
			w.RecoveryNs = s.BinNs
		default:
			w.RecoveryNs = lastLow - w.AtNs
		}
	}
	res.Recoveries = wins
	// The historical top-level fields report the first disruption.
	res.FailAtNs = wins[0].AtNs
	res.BaselineBps = wins[0].BaselineBps
	res.MinBps = wins[0].MinBps
	res.RecoveryNs = wins[0].RecoveryNs
}
