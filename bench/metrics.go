package main

import "sort"

// metricDecl declares one benchmark metric. Bound (end-to-end metrics
// only) is the share of the parent's median by which the metric may
// worsen before a change counts as a regression.
type metricDecl struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"` // "lower" | "higher"
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the metrics a user of the system sees, measured with
// tracing off. Every one is defined, and non-zero, on every workload.
var endToEnd = []metricDecl{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "wall_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "work_per_s", Unit: "unit/s", Better: "higher", Bound: 0.25},
	{Name: "allocs_per_op", Unit: "count", Better: "lower", Bound: 0.25},
	{Name: "alloc_MB_per_op", Unit: "MB", Better: "lower", Bound: 0.25},
	{Name: "peak_rss_MB", Unit: "MB", Better: "lower", Bound: 0.25},
}

// perLayer are the single-layer metrics of the traced pass. Exact
// marks values that come from the deterministic outputs and repeat
// exactly for a fixed seed; the rest are CPU-profile shares and
// harness spans.
var perLayer = func() []metricDecl {
	var out []metricDecl
	add := func(unit, better string, names ...string) {
		for _, n := range names {
			out = append(out, metricDecl{Name: n, Unit: unit, Better: better})
		}
	}
	for _, l := range cpuLayers {
		add("ratio", "lower", l+".cpu_frac")
	}
	add("ratio", "lower", "runtime.alloc_gc_frac", "runtime.map_frac", "runtime.math_frac")
	add("ratio", "lower", "scenario.phase.topo_frac", "scenario.phase.compile_frac",
		"scenario.phase.deploy_frac", "scenario.phase.attach_frac", "scenario.phase.workload_frac")
	add("ratio", "higher", "scenario.phase.engine_run_frac")
	add("ratio", "lower", "trace.overhead_frac")
	add("count", "higher", "trace.samples")
	add("ms", "lower", "scenario.cell_ms", "topo.build_ms", "policy.parse_ms", "core.compile_ms",
		"core.p4gen_ms", "campaign.load_ms", "campaign.encode_json_ms", "campaign.encode_csv_ms",
		"dist.merge_ms", "fabric.overhead_ms_per_cell")
	add("s", "lower", "campaign.run_inmem_s", "dist.run_sharded_s", "fabric.run_s")
	add("ratio", "lower", "fabric.attempts_per_cell")
	add("count", "lower", "fabric.heartbeats", "fabric.duplicates")
	out = append(out, exactMetrics...)
	return out
}()

// exactMetrics repeat exactly for a fixed seed: a simulator speed-up
// must leave every one of them identical.
var exactMetrics = []metricDecl{
	{Name: "sim.fabric_MB", Unit: "MB", Better: "lower"},
	{Name: "sim.simulated_ms", Unit: "ms", Better: "lower"},
	{Name: "sim.queue_drops", Unit: "count", Better: "lower"},
	{Name: "sim.linkdown_drops", Unit: "count", Better: "lower"},
	{Name: "sim.loop_breaks", Unit: "count", Better: "lower"},
	{Name: "sim.fct_mean_ms", Unit: "ms", Better: "lower"},
	{Name: "sim.fct_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "sim.probe_frac", Unit: "ratio", Better: "lower"},
	{Name: "sim.recovery_ms", Unit: "ms", Better: "lower"},
	{Name: "sim.completed_frac", Unit: "ratio", Better: "higher"},
	{Name: "dataplane.probe_MB", Unit: "MB", Better: "lower"},
	{Name: "dataplane.probe_tx_saved", Unit: "count", Better: "higher"},
	{Name: "dataplane.probe_suppressed", Unit: "count", Better: "higher"},
	{Name: "dataplane.tag_MB", Unit: "MB", Better: "lower"},
	{Name: "core.state_max_kB", Unit: "kB", Better: "lower"},
	{Name: "core.probe_classes", Unit: "count", Better: "lower"},
	{Name: "core.tag_bits", Unit: "count", Better: "lower"},
	{Name: "core.p4_kB", Unit: "kB", Better: "lower"},
	{Name: "workload.flows", Unit: "count", Better: "higher"},
	{Name: "campaign.report_kB", Unit: "kB", Better: "lower"},
	{Name: "dist.records_kB", Unit: "kB", Better: "lower"},
	{Name: "scenario.digest_match", Unit: "count", Better: "higher"},
}

// worsening returns by what share of base the metric got worse going
// from base to cur (negative when it improved). The ratio's base is
// always the first argument: the parent's median.
func (m metricDecl) worsening(base, cur float64) float64 {
	if base == 0 {
		if cur == 0 {
			return 0
		}
		base = 1e-12
	}
	d := (cur - base) / base
	if m.Better == "higher" {
		d = -d
	}
	return d
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(v, n=4) does (exclusive method), which is what
// the acceptance procedure uses for run-to-run spread.
func quartiles(v []float64) (q1, q3 float64) {
	n := len(v)
	if n < 2 {
		return median(v), median(v)
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	at := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

// summary is a reported value with the sample spread behind it. With
// the nine-odd samples a run takes, no percentile above the median is
// supported, so none is reported.
type summary struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Q1    float64 `json:"q1,omitempty"`
	Q3    float64 `json:"q3,omitempty"`
	N     int     `json:"n,omitempty"`
}

func summarize(unit string, v []float64) summary {
	q1, q3 := quartiles(v)
	return summary{Value: median(v), Unit: unit, Q1: q1, Q3: q3, N: len(v)}
}
