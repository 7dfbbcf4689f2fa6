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
// cohorts and recorded-trace materialisers, flow-trace capture
// (scenario.RecordFlows), and trace loading. A replay goes through the
// same player as the live run (play in run.go), handed the meta and
// flows the live run recorded, so the replayed Result is byte-identical
// to the live one by construction.

// cohortFlows generates the composed cohort workload. Cohort i's flow
// IDs carry i in their top 32 bits, so class_stats cohort rows line up
// with the spec's cohort order.
func cohortFlows(s *Scenario, g *topo.Graph, warmup int64) (offered, error) {
	w := s.Workload
	capacity := w.CapacityBps
	if capacity == 0 {
		capacity = FabricCapacity(g)
	}
	flows, err := workload.GenerateCohorts(g, workload.CohortConfig{
		Cohorts:     w.Cohorts,
		CapacityBps: capacity,
		StartNs:     warmup,
		DurationNs:  w.DurationNs,
		Seed:        s.Seed,
		LoadScale:   w.Load,
		MaxFlows:    w.MaxFlows,
	})
	if err != nil {
		return offered{}, fmt.Errorf("scenario %q: %v", s.Name, err)
	}
	return offered{
		flows: flows,
		meta: flowtrace.Meta{
			Kind: flowtrace.KindCohorts, Dist: "cohorts",
			Load: w.Load, DeadlineNs: warmup + w.DurationNs + w.DrainNs,
		},
		class: func(i int) string { return w.Cohorts[flows[i].ID>>32].Name },
	}, nil
}

// traceFlows resolves a recorded trace's flows against the topology:
// every endpoint must name a host of it. The recording's meta passes
// through, so re-recording a replay (with this scenario's identity
// stamped over it) is a fixpoint.
func traceFlows(s *Scenario, g *topo.Graph, tr *flowtrace.Trace) (offered, error) {
	flows := make([]sim.FlowSpec, 0, len(tr.Flows))
	for i, tf := range tr.Flows {
		var ends [2]topo.NodeID
		for j, name := range [2]string{tf.Src, tf.Dst} {
			id, err := flowEnd(g, name)
			if err != nil {
				return offered{}, fmt.Errorf("scenario %q: trace flow %d: %v", s.Name, i, err)
			}
			ends[j] = id
		}
		flows = append(flows, sim.FlowSpec{
			ID:      tf.ID,
			Src:     ends[0],
			Dst:     ends[1],
			Size:    tf.Bytes,
			RateBps: tf.RateBps,
			Start:   tf.StartNs,
		})
	}
	return offered{
		flows: flows,
		meta:  tr.Meta,
		class: func(i int) string { return tr.Flows[i].Class },
	}, nil
}

// recordFlows builds the v1 flow-trace artifact of a materialised
// workload: endpoints by node name (stable across processes), flows in
// injection order, meta carrying the scenario's identity.
func recordFlows(s *Scenario, g *topo.Graph, w offered) *flowtrace.Trace {
	meta := w.meta
	meta.Topo = s.TopoSpec
	meta.Seed = s.Seed
	meta.Key = s.Key()
	t := &flowtrace.Trace{Meta: meta, Flows: make([]flowtrace.Flow, 0, len(w.flows))}
	for i, f := range w.flows {
		t.Flows = append(t.Flows, flowtrace.Flow{
			ID:      f.ID,
			Src:     g.Node(f.Src).Name,
			Dst:     g.Node(f.Dst).Name,
			Bytes:   f.Size,
			RateBps: f.RateBps,
			StartNs: f.Start,
			Class:   w.class(i),
		})
	}
	return t
}

// loadReplay resolves, loads and materialises a trace workload's
// recording, so that everything a trace can get wrong is an error
// before any simulation state exists. A directory path resolves per
// cell by sanitized scenario name — the record-dir layout — so one
// replay spec with the recording campaign's axes replays every cell
// against its own trace.
func loadReplay(s *Scenario, g *topo.Graph) (*offered, error) {
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
	if tr.Meta.Topo != s.TopoSpec {
		return nil, fmt.Errorf("scenario %q: trace %s was recorded on topo %q, this scenario runs %q", s.Name, path, tr.Meta.Topo, s.TopoSpec)
	}
	if len(tr.Flows) == 0 {
		return nil, fmt.Errorf("scenario %q: trace carries no flows", s.Name)
	}
	w, err := traceFlows(s, g, tr)
	if err != nil {
		return nil, err
	}
	return &w, nil
}
