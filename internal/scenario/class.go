package scenario

import (
	"sort"

	"contra/internal/sim"
	"contra/internal/stats"
)

// ClassFCT summarizes the completions of one flow class.
type ClassFCT struct {
	Flows  int64   `json:"flows"`
	MeanMs float64 `json:"mean_fct_ms"`
	P50Ms  float64 `json:"p50_fct_ms"`
	P95Ms  float64 `json:"p95_fct_ms"`
	P99Ms  float64 `json:"p99_fct_ms"`
}

// CohortStats summarizes one traffic cohort: the base workload is
// cohort 0 and each surge event i contributes cohort i+1 (flow IDs
// carry the cohort in their top 32 bits).
type CohortStats struct {
	Cohort uint64  `json:"cohort"`
	Flows  int64   `json:"flows"`
	MeanMs float64 `json:"mean_fct_ms"`
	P99Ms  float64 `json:"p99_fct_ms"`
}

// elephantBytes splits elephants (at least this many bytes) from mice.
const elephantBytes = 1_000_000

// ClassStats is the per-class FCT attribution block of a Result:
// elephant vs. mice quantiles split at ElephantBytes (always 1 MB),
// per-cohort stats, and Jain fairness indices over per-flow throughput
// (bytes/FCT) — overall and within each class.
type ClassStats struct {
	ElephantBytes int64         `json:"elephant_bytes"`
	Mice          ClassFCT      `json:"mice"`
	Elephants     ClassFCT      `json:"elephants"`
	Jain          float64       `json:"jain"`
	JainMice      float64       `json:"jain_mice,omitempty"`
	JainElephants float64       `json:"jain_elephants,omitempty"`
	Cohorts       []CohortStats `json:"cohorts,omitempty"`
}

// classCollector accumulates per-completion observations via the
// sim.Network FlowDone hook. Flows complete in deterministic simulator
// order, so everything derived here is byte-stable.
type classCollector struct {
	miceFCT  *stats.Sample
	elephFCT *stats.Sample
	miceTh   []float64
	elephTh  []float64
	cohorts  map[uint64]*stats.Sample
}

func newClassCollector() *classCollector {
	return &classCollector{
		miceFCT:  stats.NewSample(),
		elephFCT: stats.NewSample(),
		cohorts:  make(map[uint64]*stats.Sample),
	}
}

// add is the FlowDone hook body.
func (cc *classCollector) add(f sim.FlowSpec, fctNs int64) {
	sec := float64(fctNs) / 1e9
	if sec <= 0 {
		return
	}
	th := float64(f.Size) / sec
	if f.Size >= elephantBytes {
		cc.elephFCT.Add(sec)
		cc.elephTh = append(cc.elephTh, th)
	} else {
		cc.miceFCT.Add(sec)
		cc.miceTh = append(cc.miceTh, th)
	}
	co := f.ID >> 32
	s := cc.cohorts[co]
	if s == nil {
		s = stats.NewSample()
		cc.cohorts[co] = s
	}
	s.Add(sec)
}

func classOf(s *stats.Sample, n int64) ClassFCT {
	if n == 0 {
		return ClassFCT{}
	}
	return ClassFCT{
		Flows:  n,
		MeanMs: s.Mean() * 1e3,
		P50Ms:  s.Quantile(0.5) * 1e3,
		P95Ms:  s.Quantile(0.95) * 1e3,
		P99Ms:  s.Quantile(0.99) * 1e3,
	}
}

// stats folds the collected observations into the Result block.
func (cc *classCollector) stats() *ClassStats {
	out := &ClassStats{
		ElephantBytes: elephantBytes,
		Mice:          classOf(cc.miceFCT, int64(len(cc.miceTh))),
		Elephants:     classOf(cc.elephFCT, int64(len(cc.elephTh))),
		JainMice:      stats.Jain(cc.miceTh),
		JainElephants: stats.Jain(cc.elephTh),
	}
	all := make([]float64, 0, len(cc.miceTh)+len(cc.elephTh))
	all = append(all, cc.miceTh...)
	all = append(all, cc.elephTh...)
	out.Jain = stats.Jain(all)

	ids := make([]uint64, 0, len(cc.cohorts))
	for co := range cc.cohorts {
		ids = append(ids, co)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, co := range ids {
		s := cc.cohorts[co]
		out.Cohorts = append(out.Cohorts, CohortStats{
			Cohort: co,
			Flows:  s.Count(),
			MeanMs: s.Mean() * 1e3,
			P99Ms:  s.Quantile(0.99) * 1e3,
		})
	}
	return out
}
