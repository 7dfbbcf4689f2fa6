// Command contracamp runs scenario campaigns: it expands a JSON spec
// (topologies × schemes × loads × event scripts × seeds) into
// scenarios, executes them on a bounded worker pool, and renders the
// results as JSON, CSV, a scheme-comparison table, and seed-aggregated
// figure data.
//
// One-process campaigns hold the report in memory:
//
//	contracamp -spec examples/campaign/campaign.json -workers 8 -out results.json -csv results.csv
//
// Large sweeps shard across processes or machines, stream every
// outcome to a JSONL file as it completes, and checkpoint completed
// scenarios so an interrupted run resumes where it stopped:
//
//	contracamp -spec sweep.json -shard 0/2 -stream s0.jsonl -checkpoint s0.ck
//	contracamp -spec sweep.json -shard 1/2 -stream s1.jsonl -checkpoint s1.ck
//	contracamp -spec sweep.json -shard 0/2 -stream s0.jsonl -checkpoint s0.ck -resume   # after a crash
//	contracamp -merge s0.jsonl,s1.jsonl -out merged.json -csv merged.csv -fct-csv fct.csv
//
// Every run that ends holding the report — an in-memory -spec run, a
// -serve coordinator at completion, a -merge of record streams or of
// report JSON written earlier — renders it through one step, so every
// output flag works on all three: -out, -csv and the comparison table
// per scenario; -agg-csv, -fct-csv and -rec-csv with the seed axis
// collapsed to mean/stddev/min/max; -figures as gnuplot data.
//
// The fault-tolerant fabric replaces static sharding when workers may
// crash: a coordinator leases cells to workers over HTTP, re-leases
// them if a worker stops heartbeating, steals stragglers' cells near
// the end, and deduplicates results so the merged output is
// byte-identical to a single-process run:
//
//	contracamp -spec sweep.json -serve :7070 -stream out.jsonl -workers 4   # local fleet
//	contracamp -worker http://host:7070 -worker-dir /tmp/w0                 # extra workers, any machine
//	contracamp -spec sweep.json -serve :7070 -stream out.jsonl -resume      # restarted coordinator
//
// Campaign output is deterministic: the same spec produces
// byte-identical JSON/CSV whatever the worker count, shard count,
// completion order, or number of crash/resume cycles. Every mode that
// runs cells completes them through one step (dist.Commit: artifacts,
// record, checkpoint mark), so -record-dir, -trace-dir and -metrics-dir
// write the same files in all of them.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"time"

	"contra/internal/agg"
	"contra/internal/campaign"
	"contra/internal/cliutil"
	"contra/internal/dist"
	"contra/internal/figures"
	"contra/internal/scenario"
	"contra/internal/trace"
)

type options struct {
	spec            string
	workers         int
	out             string
	csvOut          string
	quiet           bool
	noTable         bool
	traceLevel      string
	traceDir        string
	recordDir       string
	metricsInterval int64
	metricsDir      string
	figuresDir      string
	progressEvery   time.Duration

	shard      string
	stream     string
	checkpoint string
	resume     bool

	serve      string
	urlFile    string
	leaseTTL   time.Duration
	stealAfter time.Duration
	journal    string
	worker     string
	workerDir  string
	workerID   string

	postmortem string
	statusURL  string
	watch      time.Duration

	cellTimeout time.Duration
	strict      bool

	merge  string
	aggCSV string
	fctCSV string
	recCSV string

	cpuProfile string
	memProfile string
}

func main() {
	var o options
	flag.StringVar(&o.spec, "spec", "", "campaign spec file (JSON; required unless -merge)")
	flag.IntVar(&o.workers, "workers", runtime.NumCPU(), "parallel scenario workers")
	flag.StringVar(&o.out, "out", "", "write results JSON to `file` (- for stdout)")
	flag.StringVar(&o.csvOut, "csv", "", "write per-scenario CSV to `file` (- for stdout)")
	flag.BoolVar(&o.quiet, "q", false, "suppress per-scenario progress")
	flag.BoolVar(&o.noTable, "notable", false, "skip the scheme-comparison table")
	flag.StringVar(&o.traceLevel, "trace-level", "", "override the spec's trace_level (off|flows|decisions; off clears it)")
	flag.StringVar(&o.traceDir, "trace-dir", "", "write each traced cell's decision trace into `dir` as <cell name>.jsonl (needs a trace level)")
	flag.StringVar(&o.recordDir, "record-dir", "", "record each cell's flow trace into `dir` as <cell name>.flow.jsonl; a trace-kind spec pointing workload.trace at the dir replays the campaign byte-identically (see docs/trace-format.md)")
	flag.Int64Var(&o.metricsInterval, "metrics-interval", -1, "override the spec's metrics_interval_ns: sample telemetry every `ns` (0 forces off, -1 leaves the spec)")
	flag.StringVar(&o.metricsDir, "metrics-dir", "", "write each sampled cell's telemetry into `dir` as <cell name>.jsonl (needs a metrics interval)")
	flag.StringVar(&o.figuresDir, "figures", "", "emit paper-figure gnuplot data into `dir` (a -spec run enables telemetry sampling if the spec left it off; the two timelines need the cells' own series and samples, which a streamed or loaded report does not carry)")
	flag.DurationVar(&o.progressEvery, "progress-every", 2*time.Second, "minimum interval between live progress/ETA lines")
	flag.StringVar(&o.shard, "shard", "", "run only shard `i/N` of the expansion (requires -stream)")
	flag.StringVar(&o.stream, "stream", "", "stream outcomes to a JSONL `file` instead of holding them in memory")
	flag.StringVar(&o.checkpoint, "checkpoint", "", "record completed scenario keys in `file` (requires -stream)")
	flag.BoolVar(&o.resume, "resume", false, "skip scenarios already in -checkpoint and append to -stream")
	flag.StringVar(&o.serve, "serve", "", "run the fabric coordinator on `addr` (e.g. 127.0.0.1:7070, :0 for ephemeral; requires -spec and -stream; -workers N spawns a local fleet, 0 means external workers only)")
	flag.StringVar(&o.urlFile, "url-file", "", "serve mode: write the coordinator's URL to `file` once listening (for scripting with -serve :0)")
	flag.DurationVar(&o.leaseTTL, "lease-ttl", fabricDefaultTTL, "serve mode: lease lifetime without a heartbeat; a dead worker's cells re-lease after this")
	flag.DurationVar(&o.stealAfter, "steal-after", 0, "serve mode: min age of an in-flight cell before idle workers steal it at end of campaign (0 = lease TTL)")
	flag.StringVar(&o.journal, "journal", "", "serve mode: append every coordinator event (grants, heartbeats, expiries, steals, results) to a JSONL `file`; a post-mortem report is written next to it at completion")
	flag.StringVar(&o.worker, "worker", "", "run as a fabric worker against the coordinator at `url`")
	flag.StringVar(&o.workerDir, "worker-dir", "", "worker mode: local durability `dir` (results + checkpoint; reuse it to resume after a crash)")
	flag.StringVar(&o.workerID, "worker-id", "", "worker mode: self-chosen worker `id` (default hostname-pid)")
	flag.DurationVar(&o.cellTimeout, "cell-timeout", -1, "per-cell wall-clock budget; exceeded cells are recorded as failed (0 forces off, -1 leaves the spec)")
	flag.BoolVar(&o.strict, "strict", false, "exit nonzero if any scenario failed (default: failed cells carry their error in the output and the exit is clean)")
	flag.StringVar(&o.postmortem, "postmortem", "", "render a campaign post-mortem (markdown, plus -csv) from a coordinator journal `file`")
	flag.StringVar(&o.statusURL, "status", "", "print a live fleet snapshot from the coordinator at `url` (workers, telemetry, straggler cells)")
	flag.DurationVar(&o.watch, "watch", 0, "status mode: refresh every `interval` until the campaign completes (0 prints once)")
	flag.StringVar(&o.merge, "merge", "", "load comma-separated results `files` into one report and render it: JSONL record streams are deduplicated by scenario key and ordered by expansion index, and must come from one campaign; report JSON (-out) inputs carry no key and are appended as given")
	flag.StringVar(&o.aggCSV, "agg-csv", "", "write the seed aggregate, mean/stddev/min/max of every column per (topo, script, load, scheme), to `file` (- for stdout)")
	flag.StringVar(&o.fctCSV, "fct-csv", "", "write FCT-vs-load figure data, seed-aggregated, to `file` (- for stdout)")
	flag.StringVar(&o.recCSV, "rec-csv", "", "write recovery-time figure data, seed-aggregated, to `file` (- for stdout)")
	flag.StringVar(&o.cpuProfile, "cpuprofile", "", "write a CPU profile to `file` (pprof)")
	flag.StringVar(&o.memProfile, "memprofile", "", "write a heap profile to `file` at exit (pprof)")
	flag.Parse()

	stop, err := cliutil.StartProfiles(o.cpuProfile, o.memProfile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "contracamp:", err)
		os.Exit(1)
	}
	runErr := run(o)
	if err := stop(); err != nil && runErr == nil {
		runErr = err
	}
	if runErr != nil {
		fmt.Fprintln(os.Stderr, "contracamp:", runErr)
		os.Exit(1)
	}
}

func run(o options) error {
	modes := 0
	for _, on := range []bool{o.spec != "", o.merge != "", o.worker != "",
		o.postmortem != "", o.statusURL != ""} {
		if on {
			modes++
		}
	}
	if modes != 1 {
		flag.Usage()
		return fmt.Errorf("exactly one of -spec, -merge, -worker, -postmortem, -status is required")
	}
	switch {
	case o.merge != "":
		return runMerge(o)
	case o.worker != "":
		return runWorkerMode(o)
	case o.postmortem != "":
		return runPostmortem(o)
	case o.statusURL != "":
		return runStatusMode(o)
	}
	if o.serve != "" {
		return runServe(o)
	}
	if o.journal != "" {
		return fmt.Errorf("-journal records coordinator events; it needs -serve")
	}
	if o.shard != "" && o.stream == "" {
		return fmt.Errorf("-shard partitions a streamed run; add -stream (results merge later with -merge)")
	}
	if o.checkpoint != "" && o.stream == "" {
		return fmt.Errorf("-checkpoint needs -stream: without the record stream there is nothing to resume from")
	}
	if o.resume && (o.checkpoint == "" || o.stream == "") {
		return fmt.Errorf("-resume needs both -checkpoint and -stream")
	}
	if o.stream != "" && (o.out != "" || o.csvOut != "" || o.aggCSV != "" || o.fctCSV != "" || o.recCSV != "" || o.figuresDir != "") {
		return fmt.Errorf("a streamed run holds no report to render; merge it first (-merge %s with the output flags)", o.stream)
	}
	return runCampaign(o)
}

// progress returns the per-scenario progress printer, nil when quiet.
func progress(o options) func(done, total int, out *campaign.Outcome) {
	if o.quiet {
		return nil
	}
	return func(done, total int, out *campaign.Outcome) {
		status := "ok"
		if out.Err != "" {
			status = "FAIL: " + out.Err
		} else if out.Result != nil && out.Result.Flows > 0 {
			status = fmt.Sprintf("done=%d/%d p99=%.3fms",
				out.Result.Completed, out.Result.Flows, out.Result.P99FCT*1e3)
		}
		fmt.Fprintf(os.Stderr, "[%3d/%3d] %-40s %s\n", done, total, out.Scenario.Name, status)
	}
}

// progressHooks combines the per-scenario printer with the live
// elapsed/ETA/straggler Meter. Both print to stderr; quiet silences
// both. tick re-prints the rate-limited live line without recording an
// event — serve mode fires it on every worker heartbeat so the line
// moves between completions.
func progressHooks(o options, total int) (started func(*campaign.Job), completed func(int, int, *campaign.Outcome), tick func()) {
	per := progress(o)
	if o.quiet {
		return nil, per, nil
	}
	meter := campaign.NewMeter(os.Stderr, total)
	if o.progressEvery > 0 {
		meter.Every = o.progressEvery
	}
	return meter.Started, func(done, total int, out *campaign.Outcome) {
		if per != nil {
			per(done, total, out)
		}
		meter.Completed(done, total, out)
	}, meter.Tick
}

// loadSpec reads the campaign spec and applies the flags that override
// it. -trace-level replaces the spec's trace_level ("off" clears it;
// Expand normalizes "off" away, so scenario keys, checkpoints and golden
// digests are unaffected by an explicit off). -metrics-interval replaces
// metrics_interval_ns (0 forces sampling off, -1 leaves the spec), and
// -figures turns sampling on at a default interval when both left it
// off, since the utilization-timeline figure needs samples — in an
// in-memory run only: the samples do not travel through a stream, so a
// coordinator's workers would take them for nothing.
// -cell-timeout replaces cell_timeout_ns the same way; it is
// execution-only and never enters a key. An artifact dir whose artifact
// no cell would produce is refused here, before the campaign is paid for.
func loadSpec(o options) (*campaign.Spec, error) {
	spec, err := campaign.LoadFile(o.spec)
	if err != nil {
		return nil, err
	}
	if o.traceLevel != "" {
		if _, err := trace.ParseLevel(o.traceLevel); err != nil {
			return nil, err
		}
		spec.TraceLevel = o.traceLevel
	}
	if o.metricsInterval >= 0 {
		spec.MetricsIntervalNs = o.metricsInterval
	}
	if o.figuresDir != "" && o.stream == "" && spec.MetricsIntervalNs == 0 {
		spec.MetricsIntervalNs = 500_000
	}
	if o.cellTimeout >= 0 {
		spec.CellTimeoutNs = int64(o.cellTimeout)
	}
	if o.traceDir != "" && (spec.TraceLevel == "" || spec.TraceLevel == "off") {
		return nil, fmt.Errorf("-trace-dir: no scenario will record a trace; set -trace-level (or trace_level in the spec)")
	}
	if o.metricsDir != "" && spec.MetricsIntervalNs == 0 {
		return nil, fmt.Errorf("-metrics-dir: no scenario will record telemetry; set -metrics-interval (or metrics_interval_ns in the spec)")
	}
	return spec, artifacts(o).Prepare()
}

// artifacts maps the three per-cell artifact flags onto the one value
// every cell-running mode takes.
func artifacts(o options) dist.Artifacts {
	return dist.Artifacts{Flow: o.recordDir, Trace: o.traceDir, Metrics: o.metricsDir}
}

// runCampaign is the one driver of a -spec run: every cell completes
// through dist.Run, whatever the mode. With -stream the sink is the
// JSONL file — a shard, merged later — and nothing is held in memory;
// without it the sink is a dist.Collector, whose report is rendered as
// JSON/CSV/table/figures.
func runCampaign(o options) error {
	spec, err := loadSpec(o)
	if err != nil {
		return err
	}
	shard, err := dist.ParseShard(o.shard)
	if err != nil {
		return err
	}
	var ck *dist.Checkpoint
	if o.checkpoint != "" {
		if !o.resume {
			// A fresh run must not silently skip work recorded by an
			// earlier one.
			if err := os.Remove(o.checkpoint); err != nil && !os.IsNotExist(err) {
				return err
			}
		}
		if ck, err = dist.OpenCheckpoint(o.checkpoint); err != nil {
			return err
		}
		defer ck.Close()
		if o.resume {
			// The checkpoint and the stream are separate files: after
			// a power loss a key can be durable while its record is
			// not. Trust only keys whose records actually exist.
			keys, err := dist.StreamKeys(o.stream)
			if err != nil {
				return err
			}
			if dropped := ck.Retain(func(k string) bool { return keys[k] }); dropped > 0 && !o.quiet {
				fmt.Fprintf(os.Stderr, "checkpoint lists %d scenario(s) missing from %s; re-running them\n",
					dropped, o.stream)
			}
		}
	}
	var sink dist.Sink
	var held *dist.Collector
	if o.stream != "" {
		if sink, err = dist.CreateJSONL(o.stream, o.resume); err != nil {
			return err
		}
	} else {
		held = &dist.Collector{}
		sink = held
	}
	started, completed, _ := progressHooks(o, spec.Size())
	st, runErr := dist.Run(spec, dist.Options{
		Workers:     o.workers,
		Shard:       shard,
		Checkpoint:  ck,
		Progress:    completed,
		Started:     started,
		CellTimeout: spec.CellTimeout(),
		Artifacts:   artifacts(o),
	}, sink)
	if cerr := sink.Close(); runErr == nil {
		runErr = cerr
	}
	if !o.quiet {
		fmt.Fprintf(os.Stderr, "campaign %q shard %s: %d planned, %d skipped (checkpointed), %d ran, %d failed\n",
			spec.Name, shard, st.Planned, st.Skipped, st.Ran, st.Failed)
	}
	if runErr != nil {
		return runErr
	}
	if held == nil {
		return failures(st.Failed, st.Ran, o)
	}
	report, err := held.Report()
	if err != nil {
		return err
	}
	return render(report, spec.Schemes, o)
}

// runMerge loads results files into one deterministic report.
func runMerge(o options) error {
	report, err := dist.Merge(splitList(o.merge))
	if err != nil {
		return err
	}
	if !o.quiet {
		fmt.Fprintf(os.Stderr, "merged %d scenarios from %d file(s)\n",
			len(report.Outcomes), len(splitList(o.merge)))
	}
	return render(report, dist.Schemes(report), o)
}

// render writes every requested view of a report — per scenario (JSON,
// CSV, the comparison table) and with the seed axis collapsed (the
// aggregate CSV, the two curve CSVs, the figure data) — and turns
// failed cells into the exit status. It is the one exit of every mode
// that ends holding a report.
func render(report *campaign.Report, schemes []scenario.Scheme, o options) error {
	tab := agg.FromOutcomes(report.Outcomes)
	for _, out := range []struct {
		path  string
		write func(io.Writer) error
	}{
		{o.out, report.WriteJSON},
		{o.csvOut, report.WriteCSV},
		{o.aggCSV, tab.WriteCSV},
		{o.fctCSV, tab.WriteFCTCurve},
		{o.recCSV, tab.WriteRecoveryCurve},
	} {
		if out.path == "" {
			continue
		}
		if err := cliutil.WriteTo(out.path, out.write); err != nil {
			return err
		}
	}
	if o.figuresDir != "" {
		written, err := figures.Emit(o.figuresDir, report, tab)
		if err != nil {
			return err
		}
		if !o.quiet {
			fmt.Fprintf(os.Stderr, "wrote %d figure file(s) to %s: %s\n",
				len(written), o.figuresDir, strings.Join(written, ", "))
		}
	}
	if !o.noTable {
		header, rows := report.ComparisonTable(schemes)
		cliutil.Table(header, rows)
	}
	return failures(report.Failed(), len(report.Outcomes), o)
}

// splitList splits a comma-separated file list.
func splitList(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}
