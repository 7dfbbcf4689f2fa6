package scenario

import (
	"fmt"
	"os"
	"path/filepath"

	"contra/internal/flowtrace"
	"contra/internal/sim"
	"contra/internal/topo"
	"contra/internal/workload"
)

// This file holds the workload-engine halves of the run layer: the
// cohorts generator dispatch, flow-trace capture (scenario.RecordFlows),
// and byte-deterministic replay of recorded traces (workload kind
// "trace"). The replay paths mirror runFCT/runCBR operation for
// operation — any ordering drift between them shows up immediately as
// a byte diff in the record→replay CI check.

// runCohorts offers the composed cohort workload and measures it like
// an FCT run: warm up, inject the cohorts' flows, drain, report FCT
// quantiles. Cohort i's flow IDs carry i in their top 32 bits, so
// class_stats cohort rows line up with the spec's cohort order.
func runCohorts(s *Scenario, e *sim.Engine, n *sim.Network, g *topo.Graph, warmup int64, netEvents []sim.NetworkEvent, res *Result) error {
	n.Inject(netEvents...)
	e.Run(warmup)
	w := s.Workload
	capacity := w.CapacityBps
	if capacity == 0 {
		capacity = FabricCapacity(g)
	}
	senders, receivers := workload.SplitHosts(g)
	flows, err := workload.GenerateCohorts(g, workload.CohortConfig{
		Cohorts:     w.Cohorts,
		Senders:     senders,
		Receivers:   receivers,
		CapacityBps: capacity,
		StartNs:     warmup,
		DurationNs:  w.DurationNs,
		Seed:        s.Seed,
		LoadScale:   w.Load,
		MaxFlows:    w.MaxFlows,
	})
	if err != nil {
		return fmt.Errorf("scenario %q: %v", s.Name, err)
	}
	deadline := warmup + w.DurationNs + w.DrainNs
	var classes *classCollector
	if s.ClassStats {
		classes = newClassCollector(s.ElephantBytes)
		n.FlowDone = classes.add
	}
	n.StartFlows(flows)
	if s.SampleQueues {
		e.Every(warmup, 100_000, n.SampleQueues)
	}
	for e.Now() < deadline && n.CompletedFlows() < int64(len(flows)) {
		e.Run(e.Now() + 10_000_000)
	}
	res.Dist = "cohorts"
	res.Load = w.Load
	res.Flows = len(flows)
	res.Completed = n.CompletedFlows()
	res.MeanFCT = n.FCT.Mean()
	res.P50FCT = n.FCT.Quantile(0.5)
	res.P95FCT = n.FCTQuant.Quantile(0.95)
	res.P99FCT = n.FCT.Quantile(0.99)
	if classes != nil {
		res.Classes = classes.stats()
	}
	if s.RecordFlows {
		recordFlows(s, g, res, flows, flowtrace.Meta{
			Kind: flowtrace.KindCohorts, Dist: "cohorts",
			Load: w.Load, DeadlineNs: deadline,
		}, func(f sim.FlowSpec) string {
			return w.Cohorts[f.ID>>32].Name
		})
	}
	return nil
}

// recordFlows attaches the v1 flow-trace artifact for a materialized
// flow set: endpoints by node name (stable across processes), flows in
// injection order, meta carrying the scenario's identity.
func recordFlows(s *Scenario, g *topo.Graph, res *Result, flows []sim.FlowSpec, meta flowtrace.Meta, class func(sim.FlowSpec) string) {
	meta.Topo = res.Topo
	meta.Seed = s.Seed
	meta.Key = s.Key()
	t := &flowtrace.Trace{Meta: meta, Flows: make([]flowtrace.Flow, 0, len(flows))}
	for _, f := range flows {
		t.Flows = append(t.Flows, flowtrace.Flow{
			ID:      f.ID,
			Src:     g.Node(f.Src).Name,
			Dst:     g.Node(f.Dst).Name,
			Bytes:   f.Size,
			RateBps: f.RateBps,
			StartNs: f.Start,
			Class:   class(f),
		})
	}
	res.FlowTrace = t
}

// loadReplay resolves and loads a trace workload's recording. A
// directory path resolves per cell by sanitized scenario name — the
// record-dir layout — so one replay spec with the recording campaign's
// axes replays every cell against its own trace.
func loadReplay(s *Scenario, g *topo.Graph) (*flowtrace.Trace, error) {
	path := s.Workload.TracePath
	if st, err := os.Stat(path); err == nil && st.IsDir() {
		if s.Name == "" {
			return nil, fmt.Errorf("scenario: trace path %q is a directory, which resolves per campaign cell; name the scenario or point at a trace file", path)
		}
		path = filepath.Join(path, flowtrace.FileName(s.Name))
	}
	tr, err := flowtrace.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("scenario %q: %v", s.Name, err)
	}
	topoName := s.TopoSpec
	if topoName == "" {
		topoName = g.Name
	}
	if tr.Meta.Topo != topoName {
		return nil, fmt.Errorf("scenario %q: trace %s was recorded on topo %q, this scenario runs %q", s.Name, path, tr.Meta.Topo, topoName)
	}
	return tr, nil
}

// runReplay offers a recorded trace's flows exactly as captured and
// measures the run the way the recording's kind was measured. The
// operation order mirrors runFCT / runCBR exactly: with the recording
// scenario's non-workload knobs (scheme, seed, probe timing, events),
// the replayed Result is byte-identical to the live one.
func runReplay(s *Scenario, e *sim.Engine, n *sim.Network, g *topo.Graph, warmup int64, netEvents []sim.NetworkEvent, tr *flowtrace.Trace, res *Result) error {
	if len(tr.Flows) == 0 {
		return fmt.Errorf("scenario %q: trace carries no flows", s.Name)
	}
	flows := make([]sim.FlowSpec, 0, len(tr.Flows))
	for i, tf := range tr.Flows {
		src, ok := g.NodeByName(tf.Src)
		if !ok {
			return fmt.Errorf("scenario %q: trace flow %d: no node %q in topo %s", s.Name, i, tf.Src, g.Name)
		}
		dst, ok := g.NodeByName(tf.Dst)
		if !ok {
			return fmt.Errorf("scenario %q: trace flow %d: no node %q in topo %s", s.Name, i, tf.Dst, g.Name)
		}
		flows = append(flows, sim.FlowSpec{
			ID:      tf.ID,
			Src:     src,
			Dst:     dst,
			Size:    tf.Bytes,
			RateBps: tf.RateBps,
			Start:   tf.StartNs,
		})
	}

	if tr.Meta.Kind == flowtrace.KindCBR {
		// Mirror runCBR: flow starts land on the event queue before the
		// event script, then run to the recorded end.
		n.StartFlows(flows)
		if s.SampleQueues {
			e.Every(warmup, 100_000, n.SampleQueues)
		}
		n.Inject(netEvents...)
		e.Run(tr.Meta.EndNs)
		res.Flows = len(flows)
		res.RateBps = tr.Meta.RateBps
	} else {
		// Mirror runFCT: events first, warm up, then offer the recorded
		// arrivals and drain to the recorded deadline.
		n.Inject(netEvents...)
		e.Run(warmup)
		var classes *classCollector
		if s.ClassStats {
			classes = newClassCollector(s.ElephantBytes)
			n.FlowDone = classes.add
		}
		n.StartFlows(flows)
		if s.SampleQueues {
			e.Every(warmup, 100_000, n.SampleQueues)
		}
		deadline := tr.Meta.DeadlineNs
		for e.Now() < deadline && n.CompletedFlows() < int64(len(flows)) {
			e.Run(e.Now() + 10_000_000)
		}
		res.Dist = tr.Meta.Dist
		res.Pattern = tr.Meta.Pattern
		res.Load = tr.Meta.Load
		res.Flows = len(flows)
		res.Completed = n.CompletedFlows()
		res.MeanFCT = n.FCT.Mean()
		res.P50FCT = n.FCT.Quantile(0.5)
		res.P95FCT = n.FCTQuant.Quantile(0.95)
		res.P99FCT = n.FCT.Quantile(0.99)
		if classes != nil {
			res.Classes = classes.stats()
		}
	}
	if s.RecordFlows {
		// Re-recording a replay passes the trace through (with this
		// scenario's identity), so record→replay→record is a fixpoint.
		meta := tr.Meta
		meta.Topo = res.Topo
		meta.Seed = s.Seed
		meta.Key = s.Key()
		res.FlowTrace = &flowtrace.Trace{Meta: meta, Flows: tr.Flows}
	}
	return nil
}
