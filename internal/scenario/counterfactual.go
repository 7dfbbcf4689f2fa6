package scenario

import (
	"fmt"
	"sort"

	"contra/internal/trace"
)

// modeHula is the counterfactual mode that re-runs the scenario under
// the HULA scheme instead of pinning flows.
const modeHula = "hula"

// CounterfactualConfig parameterizes a what-if replay (the
// counterfactual setting of Observe).
type CounterfactualConfig struct {
	// TopK bounds how many divergent flows are pinned (default 10).
	// Flows are ranked by size descending (ties by id ascending), so
	// the replay answers the question for the flows that move the
	// most bytes.
	TopK int `json:"top_k,omitempty"`
	// Mode is the replacement choice: trace.ModeRunnerUp (default),
	// trace.ModeECMP, or modeHula — which re-runs the same scenario
	// under the HULA scheme instead of pinning (workload generation is
	// scheme-independent, so flow IDs line up across the two runs).
	Mode string `json:"mode,omitempty"`
}

// validate refuses what a replay cannot answer; nil means off.
func (c *CounterfactualConfig) validate(s *Scenario) error {
	if c == nil {
		return nil
	}
	if s.Scheme != "" && s.Scheme != SchemeContra {
		return fmt.Errorf("base scenario must run the contra scheme, got %q", s.Scheme)
	}
	if s.Workload.Kind == WorkloadCBR {
		return fmt.Errorf("needs an fct workload (CBR flows have no FCT)")
	}
	if c.TopK < 0 {
		return fmt.Errorf("top_k %d is negative", c.TopK)
	}
	_, err := c.mode()
	return err
}

// mode resolves the configured mode, defaulting to the runner-up.
func (c *CounterfactualConfig) mode() (string, error) {
	if c.Mode == modeHula {
		return modeHula, nil
	}
	m, err := trace.ParseMode(c.Mode)
	if err != nil {
		return "", fmt.Errorf("unknown mode %q (want %s, %s or %s)", c.Mode, trace.ModeRunnerUp, trace.ModeECMP, modeHula)
	}
	return m, nil
}

// FlowDelta is one pinned flow's outcome: its FCT under the policy's
// choices versus under the counterfactual.
type FlowDelta struct {
	Flow      uint64  `json:"flow"`
	Src       string  `json:"src"`
	Dst       string  `json:"dst"`
	SizeBytes int64   `json:"size_bytes"`
	Divergent int64   `json:"divergent"` // divergence points in the base run
	BaseFctNs int64   `json:"base_fct_ns"`
	AltFctNs  int64   `json:"alt_fct_ns"` // -1 when the flow never completed in the replay
	DeltaNs   int64   `json:"delta_ns"`   // alt - base; 0 when alt is incomplete
	DeltaPct  float64 `json:"delta_pct"`  // 100 * delta / base
}

// CounterfactualReport is the outcome of a replay: per-flow ΔFCT for
// the pinned flows, ranked as they were selected.
type CounterfactualReport struct {
	Mode          string      `json:"mode"`
	TopK          int         `json:"top_k"`
	BaseDecisions int64       `json:"base_decisions"`
	BaseDivergent int64       `json:"base_divergent"`
	Candidates    int         `json:"candidates"` // completed flows with >=1 divergence
	Flows         []FlowDelta `json:"flows"`
}

// runCounterfactual answers "what did the policy's choices buy these
// flows?": it runs the scenario once with decision tracing to find the
// flows whose forwarding decisions had a live alternative, then re-runs
// it with the top-k of them pinned to that alternative (or under HULA
// outright) and reports per-flow ΔFCT. Both runs are deterministic, so
// the report is a pure function of the scenario. The base run's Result
// (with its trace recorder attached) carries the report. Run has
// validated s.
func runCounterfactual(s Scenario) (*Result, error) {
	cfg := *s.Counterfactual
	s.Counterfactual = nil
	if cfg.TopK == 0 {
		cfg.TopK = 10
	}
	mode, _ := cfg.mode() // Validate vetted it

	base := s
	base.TraceLevel = trace.Decisions.String()
	base.Overrides = nil
	baseRes, err := Run(base)
	if err != nil {
		return nil, err
	}
	rec := baseRes.Trace

	// Candidates: completed flows with at least one divergence point,
	// largest first. Under "hula" every completed flow is a candidate —
	// the whole routing system changes, not just the divergent choices.
	var cands []*trace.FlowTrace
	for _, ft := range rec.Flows() {
		if ft.FctNs <= 0 {
			continue
		}
		if mode != modeHula && ft.Divergent == 0 {
			continue
		}
		cands = append(cands, ft)
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].Size != cands[j].Size {
			return cands[i].Size > cands[j].Size
		}
		return cands[i].ID < cands[j].ID
	})

	rep := &CounterfactualReport{Mode: mode, TopK: cfg.TopK, Candidates: len(cands)}
	baseRes.Counterfactual = rep
	_, rep.BaseDecisions, rep.BaseDivergent = rec.Totals()
	if len(cands) > cfg.TopK {
		cands = cands[:cfg.TopK]
	}
	if len(cands) == 0 {
		return baseRes, nil
	}

	alt := s
	alt.TraceLevel = trace.Flows.String() // need per-flow FCT, not decisions
	alt.RecordFlows = false
	if mode == modeHula {
		alt.Scheme = SchemeHula
	} else {
		ids := make([]uint64, len(cands))
		for i, ft := range cands {
			ids[i] = ft.ID
		}
		alt.Overrides = trace.NewOverrides(mode, ids)
	}
	altRes, err := Run(alt)
	if err != nil {
		return nil, err
	}
	altRec := altRes.Trace

	for _, ft := range cands {
		d := FlowDelta{
			Flow: ft.ID, Src: ft.Src, Dst: ft.Dst,
			SizeBytes: ft.Size, Divergent: ft.Divergent,
			BaseFctNs: ft.FctNs, AltFctNs: -1,
		}
		if aft := altRec.Flow(ft.ID); aft != nil && aft.FctNs > 0 {
			d.AltFctNs = aft.FctNs
			d.DeltaNs = aft.FctNs - ft.FctNs
			d.DeltaPct = 100 * float64(d.DeltaNs) / float64(ft.FctNs)
		}
		rep.Flows = append(rep.Flows, d)
	}
	return baseRes, nil
}
