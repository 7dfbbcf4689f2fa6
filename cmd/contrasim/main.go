// Command contrasim runs a single routing experiment on the
// packet-level simulator: a flow-completion-time run or a
// link-failure (failover) run, for Contra or any baseline. Both modes
// are scenarios under the hood; -fail and -failover simply add events
// to the scenario's script.
//
// Usage:
//
//	contrasim -topo dc -scheme contra -dist websearch -load 0.6
//	contrasim -topo dc -scheme ecmp -load 0.4 -queues
//	contrasim -topo dc -scheme contra -failover
//	contrasim -topo abilene+hosts -scheme spain -dist cache -load 0.3
//	contrasim -topo dc -scheme contra -fail l0-s0 -load 0.5
//	contrasim -topo dc -scheme contra -trace-level decisions -trace-out trace.jsonl
//	contrasim -topo dc -scheme contra -class-stats -counterfactual 10
//	contrasim -topo dc -scheme contra -load 0.6 -record run.flow.jsonl
//	contrasim -topo dc -scheme contra -replay run.flow.jsonl
package main

import (
	"flag"
	"fmt"
	"os"

	"contra/internal/cliutil"
	"contra/internal/core"
	"contra/internal/scenario"
	"contra/internal/trace"
)

// obsOpts bundles the observability flags: decision tracing, per-class
// FCT attribution, and counterfactual what-if replay.
type obsOpts struct {
	traceLevel      string
	traceOut        string
	classStats      bool
	elephantBytes   int64
	counterK        int
	counterMode     string
	metricsInterval int64
	metricsOut      string
}

func main() {
	topoSpec := flag.String("topo", "dc", "topology spec")
	scheme := flag.String("scheme", "contra", "contra|ecmp|hula|spain|sp")
	policyArg := flag.String("policy", "minimize(path.util)", "Contra policy source or @file")
	dist := flag.String("dist", "websearch", "websearch|cache")
	load := flag.Float64("load", 0.5, "offered load fraction")
	durationMs := flag.Int("duration", 20, "arrival window in ms")
	maxFlows := flag.Int("maxflows", 4000, "cap on generated flows")
	seed := flag.Int64("seed", 1, "workload seed")
	queues := flag.Bool("queues", false, "print queue length CDF")
	loops := flag.Bool("loops", false, "track looped traffic")
	failover := flag.Bool("failover", false, "run the Figure 14 failover experiment instead")
	failLink := flag.String("fail", "", "pre-fail link `A-B` (asymmetric topology)")
	packing := flag.Bool("probe-packing", false, "pack multi-origin probes into one frame per port per period (contra/hula)")
	suppressEps := flag.Float64("suppress-eps", 0, "delta-suppression epsilon; > 0 (or -refresh-every) enables suppression")
	refreshEvery := flag.Int("refresh-every", 0, "forced re-advertisement every N probe periods under suppression (default 4)")
	record := flag.String("record", "", "capture the offered flows as a v1 flow trace in `file` (see docs/trace-format.md)")
	replay := flag.String("replay", "", "replay the flows recorded in `file` instead of generating a workload (byte-identical results given the same non-workload flags)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to `file` (pprof)")
	memProfile := flag.String("memprofile", "", "write a heap profile to `file` at exit (pprof)")
	var obs obsOpts
	flag.StringVar(&obs.traceLevel, "trace-level", "off", "decision tracing: off|flows|decisions")
	flag.StringVar(&obs.traceOut, "trace-out", "", "write the trace as JSONL to `file` (- for stdout)")
	flag.BoolVar(&obs.classStats, "class-stats", false, "report per-class FCT attribution (elephants vs mice, Jain index)")
	flag.Int64Var(&obs.elephantBytes, "elephant-bytes", 0, "elephant/mice size threshold in bytes (default 1MB)")
	flag.IntVar(&obs.counterK, "counterfactual", 0, "replay with the top-`K` divergent flows pinned to the counterfactual choice and report per-flow ΔFCT")
	flag.StringVar(&obs.counterMode, "counterfactual-mode", "runnerup", "counterfactual choice: runnerup|ecmp|hula")
	flag.Int64Var(&obs.metricsInterval, "metrics-interval", 0, "sample network telemetry every `ns` of simulated time (0 = off)")
	flag.StringVar(&obs.metricsOut, "metrics-out", "", "write the telemetry samples as JSONL to `file` (- for stdout)")
	flag.Parse()

	stop, err := cliutil.StartProfiles(*cpuProfile, *memProfile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "contrasim:", err)
		os.Exit(1)
	}
	runErr := run(*topoSpec, *scheme, *policyArg, *dist, *load, *durationMs,
		*maxFlows, *seed, *queues, *loops, *failover, *failLink,
		*packing, *suppressEps, *refreshEvery, *record, *replay, obs)
	if err := stop(); err != nil && runErr == nil {
		runErr = err
	}
	if runErr != nil {
		fmt.Fprintln(os.Stderr, "contrasim:", runErr)
		os.Exit(1)
	}
}

func run(topoSpec, scheme, policyArg, dist string, load float64, durationMs,
	maxFlows int, seed int64, queues, loops, failover bool, failLink string,
	packing bool, suppressEps float64, refreshEvery int, record, replay string, obs obsOpts) error {
	src, err := cliutil.ReadPolicyArg(policyArg)
	if err != nil {
		return err
	}
	if _, err := trace.ParseLevel(obs.traceLevel); err != nil {
		return err
	}
	if (record != "" || replay != "") && obs.counterK > 0 {
		return fmt.Errorf("-record/-replay do not combine with -counterfactual")
	}
	if obs.traceOut != "" && (obs.traceLevel == "" || obs.traceLevel == "off") {
		return fmt.Errorf("-trace-out needs -trace-level flows or decisions")
	}
	if obs.metricsOut != "" && obs.metricsInterval <= 0 {
		return fmt.Errorf("-metrics-out needs -metrics-interval > 0")
	}
	s := scenario.Scenario{
		Name:         topoSpec + "/" + scheme,
		TopoSpec:     topoSpec,
		Scheme:       scenario.Scheme(scheme),
		Policy:       src,
		Seed:         seed,
		SampleQueues: queues,
		Options: core.Options{
			ProbePacking: packing,
			SuppressEps:  suppressEps,
			RefreshEvery: refreshEvery,
		},
		Observe: scenario.Observe{
			TrackLoops:        loops,
			TraceLevel:        obs.traceLevel,
			ClassStats:        obs.classStats,
			ElephantBytes:     obs.elephantBytes,
			MetricsIntervalNs: obs.metricsInterval,
		},
	}
	if failLink != "" {
		// A pre-failed link is a link_down event at t=0: the scenario
		// engine marks it down in the topology before routers deploy,
		// so schemes with offline path computation see the asymmetry.
		s.Events = append(s.Events, scenario.Event{Kind: scenario.LinkDown, AtNs: 0, Link: failLink})
	}

	s.RecordFlows = record != ""

	if failover {
		s.Workload = scenario.Workload{Kind: scenario.WorkloadCBR}
		if replay != "" {
			// Replay reproduces the recorded arrivals; the event script
			// (here the failover link_down) still comes from the flags.
			s.Workload = scenario.Workload{Kind: scenario.WorkloadTrace, TracePath: replay}
		}
		s.Events = append(s.Events, scenario.Event{Kind: scenario.LinkDown, AtNs: 50_000_000, Link: "auto"})
		res, err := scenario.Run(s)
		if err != nil {
			return err
		}
		if err := writeFlowTrace(res, record); err != nil {
			return err
		}
		fmt.Printf("baseline %.2f Gbps, dip to %.2f Gbps, recovery %.2f ms after failure\n",
			res.BaselineBps/1e9, res.MinBps/1e9, float64(res.RecoveryNs)/1e6)
		for _, p := range res.Series {
			mark := ""
			if p.T >= res.FailAtNs && p.T < res.FailAtNs+res.BinNs {
				mark = "  <- link fails"
			}
			fmt.Printf("t=%6.2fms  %6.2f Gbps%s\n", float64(p.T)/1e6, p.V/1e9, mark)
		}
		printTraceSummary(res)
		printMetricsSummary(res)
		if err := writeTrace(res, obs.traceOut); err != nil {
			return err
		}
		return writeMetrics(res, obs.metricsOut)
	}

	s.Workload = scenario.Workload{
		Kind:       scenario.WorkloadFCT,
		Dist:       dist,
		Load:       load,
		DurationNs: int64(durationMs) * 1_000_000,
		MaxFlows:   maxFlows,
	}
	if replay != "" {
		s.Workload = scenario.Workload{Kind: scenario.WorkloadTrace, TracePath: replay}
	}

	if obs.counterK > 0 {
		rep, baseRes, err := scenario.Counterfactual(s, scenario.CounterfactualConfig{
			TopK: obs.counterK, Mode: obs.counterMode,
		})
		if err != nil {
			return err
		}
		fmt.Println(baseRes)
		printClasses(baseRes)
		printCounterfactual(rep)
		if err := writeTrace(baseRes, obs.traceOut); err != nil {
			return err
		}
		return writeMetrics(baseRes, obs.metricsOut)
	}

	res, err := scenario.Run(s)
	if err != nil {
		return err
	}
	fmt.Println(res)
	printClasses(res)
	printTraceSummary(res)
	printMetricsSummary(res)
	if err := writeFlowTrace(res, record); err != nil {
		return err
	}
	if err := writeTrace(res, obs.traceOut); err != nil {
		return err
	}
	if err := writeMetrics(res, obs.metricsOut); err != nil {
		return err
	}
	fmt.Printf("fabric bytes: data=%.0f ack=%.0f probe=%.0f tag=%.0f (probe share %.3f%%)\n",
		res.DataBytes, res.AckBytes, res.ProbeBytes, res.TagBytes, 100*res.ProbeFrac())
	if res.ProbeTxSaved > 0 || res.ProbeSuppressed > 0 {
		fmt.Printf("probe aggregation: %.0f probe transmissions avoided, %.0f re-advertisements suppressed\n",
			res.ProbeTxSaved, res.ProbeSuppressed)
	}
	if loops {
		fmt.Printf("looped traffic: %.4f%% of data packets, %d loop breaks\n",
			100*res.LoopedFrac, int64(res.LoopBreaks))
	}
	if queues {
		fmt.Println("queue length CDF (MSS):")
		for _, q := range []float64{0.5, 0.9, 0.99, 1.0} {
			fmt.Printf("  p%-4g %8.1f\n", q*100, res.QueueMSS.Quantile(q))
		}
	}
	fmt.Printf("simulated %.2fms in %v\n", float64(res.SimulatedNs)/1e6, res.WallTime)
	return nil
}

// printTraceSummary reports the trace volume when tracing was on.
func printTraceSummary(res *scenario.Result) {
	if res.Trace == nil {
		return
	}
	fmt.Printf("trace: level=%s flows=%d decisions=%d divergent=%d\n",
		res.TraceLevel, res.TraceFlows, res.TraceDecisions, res.TraceDivergent)
}

// printClasses reports the per-class FCT attribution block.
func printClasses(res *scenario.Result) {
	c := res.Classes
	if c == nil {
		return
	}
	fmt.Printf("classes (elephant >= %d B): jain=%.4f\n", c.ElephantBytes, c.Jain)
	fmt.Printf("  mice:      flows=%-5d mean=%.3fms p50=%.3fms p95=%.3fms p99=%.3fms jain=%.4f\n",
		c.Mice.Flows, c.Mice.MeanMs, c.Mice.P50Ms, c.Mice.P95Ms, c.Mice.P99Ms, c.JainMice)
	fmt.Printf("  elephants: flows=%-5d mean=%.3fms p50=%.3fms p95=%.3fms p99=%.3fms jain=%.4f\n",
		c.Elephants.Flows, c.Elephants.MeanMs, c.Elephants.P50Ms, c.Elephants.P95Ms, c.Elephants.P99Ms, c.JainElephants)
	for _, co := range c.Cohorts {
		fmt.Printf("  cohort %d:  flows=%-5d mean=%.3fms p99=%.3fms\n",
			co.Cohort, co.Flows, co.MeanMs, co.P99Ms)
	}
}

// printCounterfactual renders the per-flow ΔFCT table of a what-if
// replay. Negative delta: the counterfactual choice would have been
// faster for that flow.
func printCounterfactual(rep *scenario.CounterfactualReport) {
	fmt.Printf("counterfactual (%s): %d/%d decisions divergent, %d candidate flows, pinned top %d\n",
		rep.Mode, rep.BaseDivergent, rep.BaseDecisions, rep.Candidates, len(rep.Flows))
	if len(rep.Flows) == 0 {
		return
	}
	fmt.Printf("  %-12s %-8s %-8s %10s %6s %12s %12s %10s\n",
		"flow", "src", "dst", "bytes", "div", "base_ms", "alt_ms", "delta")
	for _, f := range rep.Flows {
		alt, delta := "lost", "-"
		if f.AltFctNs >= 0 {
			alt = fmt.Sprintf("%.3f", float64(f.AltFctNs)/1e6)
			delta = fmt.Sprintf("%+.1f%%", f.DeltaPct)
		}
		fmt.Printf("  %-12d %-8s %-8s %10d %6d %12.3f %12s %10s\n",
			f.Flow, f.Src, f.Dst, f.SizeBytes, f.Divergent,
			float64(f.BaseFctNs)/1e6, alt, delta)
	}
}

// printMetricsSummary reports the telemetry volume when sampling was
// on.
func printMetricsSummary(res *scenario.Result) {
	if res.Metrics == nil {
		return
	}
	fmt.Printf("metrics: interval=%dns samples=%d links=%d routers=%d dropped=%d\n",
		res.Metrics.IntervalNs(), res.Metrics.Samples(),
		len(res.Metrics.Links()), len(res.Metrics.Routers()), res.Metrics.Dropped())
}

// writeMetrics emits the recorded telemetry samples as JSONL.
func writeMetrics(res *scenario.Result, out string) error {
	if out == "" {
		return nil
	}
	if res.Metrics == nil {
		return fmt.Errorf("-metrics-out: no telemetry was recorded")
	}
	return cliutil.WriteTo(out, res.Metrics.WriteJSONL)
}

// writeFlowTrace writes the captured flow trace (-record).
func writeFlowTrace(res *scenario.Result, out string) error {
	if out == "" {
		return nil
	}
	if res.FlowTrace == nil {
		return fmt.Errorf("-record: no flow trace was captured")
	}
	if err := res.FlowTrace.WriteFile(out); err != nil {
		return err
	}
	fmt.Printf("recorded %d flow(s) to %s\n", len(res.FlowTrace.Flows), out)
	return nil
}

// writeTrace emits the recorded trace as JSONL.
func writeTrace(res *scenario.Result, out string) error {
	if out == "" {
		return nil
	}
	if res.Trace == nil {
		return fmt.Errorf("-trace-out: no trace was recorded")
	}
	return cliutil.WriteTo(out, res.Trace.WriteJSONL)
}
