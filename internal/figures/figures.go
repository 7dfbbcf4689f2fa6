// Package figures turns a completed campaign report into
// paper-figure inputs: gnuplot scripts paired with data files, ready
// for `gnuplot <name>.gp`. Three figures are supported — the link
// utilization timeline per scheme (from the telemetry sampler), the
// delivered-throughput recovery timeline around chaos events (from the
// binned rx series), and the FCT-vs-load curve (when the campaign
// swept more than one load). Each is emitted only when the report
// carries the data it needs; Emit reports what it wrote.
//
// Output is deterministic: cells appear in expansion order, numeric
// formatting is fixed, and nothing in the data files depends on
// scheduling, so figure data can be diffed across runs like every
// other campaign artifact.
package figures

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"contra/internal/agg"
	"contra/internal/campaign"
	"contra/internal/metrics"
	"contra/internal/scenario"
)

// Emit writes figure data and gnuplot scripts into dir (created if
// missing) and returns the filenames written, in emission order. tab is
// the report's seed aggregate (agg.FromOutcomes).
func Emit(dir string, report *campaign.Report, tab *agg.Table) ([]string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	var written []string
	emit := func(name, content string) error {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
			return err
		}
		written = append(written, name)
		return nil
	}
	if dat, gp, ok := utilTimeline(report); ok {
		if err := emit("util_timeline.dat", dat); err != nil {
			return written, err
		}
		if err := emit("util_timeline.gp", gp); err != nil {
			return written, err
		}
	}
	if dat, gp, ok := recoveryTimeline(report); ok {
		if err := emit("recovery_timeline.dat", dat); err != nil {
			return written, err
		}
		if err := emit("recovery_timeline.gp", gp); err != nil {
			return written, err
		}
	}
	if dat, gp, ok := fctVsLoad(tab); ok {
		if err := emit("fct_vs_load.dat", dat); err != nil {
			return written, err
		}
		if err := emit("fct_vs_load.gp", gp); err != nil {
			return written, err
		}
	}
	if len(written) == 0 {
		return nil, fmt.Errorf("figures: report carries no figure data " +
			"(no metrics samples, no binned series, single load)")
	}
	return written, nil
}

// utilTimeline renders per-cell fabric utilization over time from the
// telemetry sampler: one gnuplot index block per cell with the mean
// and max utilization across fabric links at each sample tick.
func utilTimeline(report *campaign.Report) (dat, gp string, ok bool) {
	var b strings.Builder
	var titles []string
	for i := range report.Outcomes {
		o := &report.Outcomes[i]
		res := o.Result
		if res == nil || res.Metrics == nil || res.Metrics.Samples() == 0 {
			continue
		}
		if len(titles) > 0 {
			b.WriteString("\n\n") // gnuplot index separator
		}
		fmt.Fprintf(&b, "# cell: %s\n# t_ms mean_util max_util\n", o.Scenario.Name)
		res.Metrics.EachSample(func(tk metrics.Tick) {
			mean, peak := 0.0, 0.0
			for _, u := range tk.Util {
				mean += u
				if u > peak {
					peak = u
				}
			}
			if len(tk.Util) > 0 {
				mean /= float64(len(tk.Util))
			}
			fmt.Fprintf(&b, "%.3f %.4f %.4f\n", float64(tk.T)/1e6, mean, peak)
		})
		titles = append(titles, o.Scenario.Name)
	}
	if len(titles) == 0 {
		return "", "", false
	}
	return b.String(), utilGP(titles), true
}

func utilGP(titles []string) string {
	var b strings.Builder
	b.WriteString(`set terminal svg size 800,480
set output 'util_timeline.svg'
set title 'Fabric link utilization over time'
set xlabel 'time (ms)'
set ylabel 'utilization'
set yrange [0:1.05]
set key outside right
plot \
`)
	for i, t := range titles {
		sep := ", \\\n"
		if i == len(titles)-1 {
			sep = "\n"
		}
		fmt.Fprintf(&b, "  'util_timeline.dat' index %d using 1:2 with lines title '%s'%s",
			i, gpEscape(t), sep)
	}
	return b.String()
}

// recoveryTimeline renders delivered throughput per bin around the
// script's chaos events: one index block per cell, with every event
// instant marked by a vertical line in the script.
func recoveryTimeline(report *campaign.Report) (dat, gp string, ok bool) {
	var b strings.Builder
	var titles []string
	eventMs := map[float64]string{}
	for i := range report.Outcomes {
		o := &report.Outcomes[i]
		res := o.Result
		if res == nil || len(res.Series) == 0 {
			continue
		}
		if len(titles) > 0 {
			b.WriteString("\n\n")
		}
		fmt.Fprintf(&b, "# cell: %s\n# t_ms gbps\n", o.Scenario.Name)
		for _, p := range res.Series {
			fmt.Fprintf(&b, "%.3f %.4f\n", float64(p.T)/1e6, p.V/1e9)
		}
		titles = append(titles, o.Scenario.Name)
		for _, ev := range o.Scenario.Events {
			eventMs[float64(ev.AtNs)/1e6] = string(ev.Kind)
		}
	}
	if len(titles) == 0 {
		return "", "", false
	}
	return b.String(), recoveryGP(titles, eventMs), true
}

func recoveryGP(titles []string, eventMs map[float64]string) string {
	var b strings.Builder
	b.WriteString(`set terminal svg size 800,480
set output 'recovery_timeline.svg'
set title 'Delivered throughput around chaos events'
set xlabel 'time (ms)'
set ylabel 'delivered (Gbps)'
set key outside right
`)
	ts := make([]float64, 0, len(eventMs))
	for t := range eventMs {
		ts = append(ts, t)
	}
	sort.Float64s(ts)
	for i, t := range ts {
		fmt.Fprintf(&b, "set arrow %d from %.3f, graph 0 to %.3f, graph 1 nohead dashtype 2\n",
			i+1, t, t)
		fmt.Fprintf(&b, "set label %d '%s' at %.3f, graph 0.97 rotate by 90 right font ',8'\n",
			i+1, gpEscape(eventMs[t]), t)
	}
	b.WriteString("plot \\\n")
	for i, t := range titles {
		sep := ", \\\n"
		if i == len(titles)-1 {
			sep = "\n"
		}
		fmt.Fprintf(&b, "  'recovery_timeline.dat' index %d using 1:2 with lines title '%s'%s",
			i, gpEscape(t), sep)
	}
	return b.String()
}

// fctVsLoad renders the tail-latency curve from the seed aggregate:
// mean p99 FCT against offered load, one index block per (topo, script,
// scheme) curve in the table's order. Needs at least two distinct
// loads.
func fctVsLoad(tab *agg.Table) (dat, gp string, ok bool) {
	type curve struct {
		topo, script string
		scheme       scenario.Scheme
	}
	var curves []curve
	points := map[curve][]*agg.Group{}
	loads := map[float64]bool{}
	settings := map[[2]string]bool{}
	for _, g := range tab.Groups {
		if g.Load <= 0 || g.Sum("p99_fct_ms").Count() == 0 {
			continue
		}
		c := curve{g.Topo, g.Script, g.Scheme}
		if points[c] == nil {
			curves = append(curves, c)
		}
		points[c] = append(points[c], g) // the table sorts load within a curve
		loads[g.Load] = true
		settings[[2]string{g.Topo, g.Script}] = true
	}
	if len(loads) < 2 {
		return "", "", false
	}
	var b strings.Builder
	titles := make([]string, len(curves))
	for i, c := range curves {
		titles[i] = string(c.scheme)
		if len(settings) > 1 {
			titles[i] += " " + c.topo + "/" + c.script
		}
		if i > 0 {
			b.WriteString("\n\n")
		}
		fmt.Fprintf(&b, "# scheme: %s\n# load p99_ms\n", titles[i])
		for _, g := range points[c] {
			fmt.Fprintf(&b, "%g %.4f\n", g.Load, g.Sum("p99_fct_ms").Mean())
		}
	}
	return b.String(), fctGP(titles), true
}

func fctGP(titles []string) string {
	var b strings.Builder
	b.WriteString(`set terminal svg size 640,480
set output 'fct_vs_load.svg'
set title 'p99 FCT vs offered load'
set xlabel 'load'
set ylabel 'p99 FCT (ms)'
set key top left
plot \
`)
	for i, t := range titles {
		sep := ", \\\n"
		if i == len(titles)-1 {
			sep = "\n"
		}
		fmt.Fprintf(&b, "  'fct_vs_load.dat' index %d using 1:2 with linespoints title '%s'%s",
			i, gpEscape(t), sep)
	}
	return b.String()
}

// gpEscape makes a string safe inside gnuplot single quotes.
func gpEscape(s string) string { return strings.ReplaceAll(s, "'", "''") }
