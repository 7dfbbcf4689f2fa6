package campaign

import (
	"fmt"

	"contra/internal/scenario"
)

// Column is one reportable quantity of a scenario result. Every output
// that shows it reads it here — the per-scenario CSV and the comparison
// table in this package, the seed aggregate and the figure curves in
// internal/agg — so its name, its applies-rule and its format are
// stated once.
type Column struct {
	Name string

	// Obs returns the observations one result contributes: none when
	// the quantity does not apply to the run (the feature was off,
	// nothing completed, no disruption was scripted), so that a measured
	// zero stays distinguishable from "not measured"; several when a
	// script carries several disruptions.
	Obs func(*scenario.Result) []float64

	// format is the fmt verb of the per-scenario cell ("%v" prints
	// counts as strconv's shortest 'g').
	format string

	// cell, when set, replaces the per-scenario rule "the single
	// observation, or blank" for the columns whose digest-pinned cell
	// is something else.
	cell func(*scenario.Result) string
}

// Cell renders the column's per-scenario CSV cell.
func (c *Column) Cell(r *scenario.Result) string {
	if c.cell != nil {
		return c.cell(r)
	}
	obs := c.Obs(r)
	if len(obs) == 0 {
		return ""
	}
	return fmt.Sprintf(c.format, obs[0])
}

// ColumnSet is an ordered column table.
type ColumnSet []Column

// Index returns the position of the named column. The names are fixed
// at compile time, so a miss is a bug.
func (cs ColumnSet) Index(name string) int {
	for i := range cs {
		if cs[i].Name == name {
			return i
		}
	}
	panic("campaign: no column " + name)
}

// Columns lists the reportable quantities in output order.
var Columns = ColumnSet{
	fctColumn("mean_fct_ms", func(r *scenario.Result) float64 { return r.MeanFCT }),
	fctColumn("p50_fct_ms", func(r *scenario.Result) float64 { return r.P50FCT }),
	fctColumn("p95_fct_ms", func(r *scenario.Result) float64 { return r.P95FCT }),
	fctColumn("p99_fct_ms", func(r *scenario.Result) float64 { return r.P99FCT }),
	{Name: "probe_frac", format: "%.5f",
		Obs: func(r *scenario.Result) []float64 { return []float64{r.ProbeFrac()} }},
	{Name: "queue_drops", format: "%v",
		Obs: func(r *scenario.Result) []float64 { return []float64{r.QueueDrops} }},
	{Name: "linkdown_drops", format: "%v",
		Obs: func(r *scenario.Result) []float64 { return []float64{r.LinkDownDrops} }},
	{Name: "looped_frac", format: "%.5f",
		Obs: func(r *scenario.Result) []float64 { return []float64{r.LoopedFrac} }},
	// The throughput context of the recovery analysis applies only to
	// runs that had one; the per-scenario cell prints the zero anyway.
	{Name: "baseline_gbps",
		Obs:  func(r *scenario.Result) []float64 { return when(r.BaselineBps > 0, r.BaselineBps/1e9) },
		cell: func(r *scenario.Result) string { return fmt.Sprintf("%.3f", r.BaselineBps/1e9) }},
	{Name: "min_gbps",
		Obs:  func(r *scenario.Result) []float64 { return when(r.BaselineBps > 0, r.MinBps/1e9) },
		cell: func(r *scenario.Result) string { return fmt.Sprintf("%.3f", r.MinBps/1e9) }},
	// recovery_ms observes every per-disruption window that recovered,
	// so a script with three failures contributes three observations
	// per seed; the per-scenario cell keeps describing the first
	// disruption, as RecoveryNs does.
	{Name: "recovery_ms",
		Obs: func(r *scenario.Result) []float64 {
			var out []float64
			for _, w := range r.Recoveries {
				if w.RecoveryNs >= 0 {
					out = append(out, float64(w.RecoveryNs)/1e6)
				}
			}
			if out == nil && r.RecoveryNs > 0 {
				// Results encoded before per-event windows existed.
				out = []float64{float64(r.RecoveryNs) / 1e6}
			}
			return out
		},
		cell: func(r *scenario.Result) string { return msec(float64(r.RecoveryNs)) }},
	{Name: "nodedown_drops", format: "%v",
		Obs: func(r *scenario.Result) []float64 { return []float64{r.NodeDownDrops} }},
	// probe_loss_frac applies where a probe actually crossed a
	// loss-injected channel.
	{Name: "probe_loss_frac", format: "%.5f",
		Obs: func(r *scenario.Result) []float64 { return when(r.ProbeLossSeen != 0, r.ProbeLossFrac) }},
	// swap_conv_ms observes every converged policy-swap window; swaps
	// the run ended on top of are excluded, like unrecovered
	// disruptions. The per-scenario cell is the widest window, or -1
	// when a swap never converged.
	{Name: "swap_conv_ms",
		Obs: func(r *scenario.Result) []float64 {
			var out []float64
			for _, w := range r.Swaps {
				if w.ConvergenceNs >= 0 {
					out = append(out, float64(w.ConvergenceNs)/1e6)
				}
			}
			return out
		},
		cell: func(r *scenario.Result) string {
			ns, ok := r.SwapConvergenceNs()
			switch {
			case !ok:
				return ""
			case ns < 0:
				return "-1"
			default:
				return msec(float64(ns))
			}
		}},
	// The probe-aggregation savings apply where packing or suppression
	// was configured: a knobs-on run that saved nothing contributes its
	// zero.
	{Name: "probe_tx_saved", format: "%v",
		Obs: func(r *scenario.Result) []float64 { return when(r.ProbeAggOn, r.ProbeTxSaved) }},
	{Name: "probe_suppressed", format: "%v",
		Obs: func(r *scenario.Result) []float64 { return when(r.ProbeAggOn, r.ProbeSuppressed) }},
	// metrics_samples applies where telemetry sampling was on; a zero
	// spread across seeds is itself a determinism signal.
	{Name: "metrics_samples", format: "%.0f",
		Obs: func(r *scenario.Result) []float64 { return when(r.MetricsOn, float64(r.MetricsSamples)) }},
	// The per-class quantiles apply with class_stats on and at least one
	// completion in the class: a run whose elephants all timed out stays
	// blank rather than contributing a zero.
	{Name: "mice_p99_ms", format: "%.3f",
		Obs: func(r *scenario.Result) []float64 {
			if r.Classes == nil {
				return nil
			}
			return when(r.Classes.Mice.Flows > 0, r.Classes.Mice.P99Ms)
		}},
	{Name: "eleph_p99_ms", format: "%.3f",
		Obs: func(r *scenario.Result) []float64 {
			if r.Classes == nil {
				return nil
			}
			return when(r.Classes.Elephants.Flows > 0, r.Classes.Elephants.P99Ms)
		}},
	{Name: "jain", format: "%.4f",
		Obs: func(r *scenario.Result) []float64 {
			if r.Classes == nil {
				return nil
			}
			return []float64{r.Classes.Jain}
		}},
}

// when is the one observation v, or none.
func when(applies bool, v float64) []float64 {
	if !applies {
		return nil
	}
	return []float64{v}
}

// fctColumn is a flow-completion-time statistic in milliseconds. It
// applies once a flow completed; the per-scenario cell prints the zero
// of a run where none did.
func fctColumn(name string, sec func(*scenario.Result) float64) Column {
	return Column{
		Name: name,
		Obs:  func(r *scenario.Result) []float64 { return when(r.Completed != 0, sec(r)*1e3) },
		cell: func(r *scenario.Result) string { return msec(sec(r) * 1e9) },
	}
}

func msec(ns float64) string { return fmt.Sprintf("%.3f", ns/1e6) }
