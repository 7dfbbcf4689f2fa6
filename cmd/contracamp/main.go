// Command contracamp runs scenario campaigns: it expands a JSON spec
// (topologies × schemes × loads × event scripts × seeds) into
// scenarios, executes them on a bounded worker pool, and renders the
// results as JSON, CSV, a scheme-comparison table, and seed-aggregated
// figure data. It has three subcommands, each with its own flags:
//
//	contracamp run -spec FILE [flags]             run a campaign
//	contracamp merge [flags] FILE...              render results files as one report
//	contracamp check trace|metrics|flow FILE...   validate artifact files
//
// A one-process run holds the report in memory:
//
//	contracamp run -spec examples/campaign/campaign.json -workers 8 -out results.json -csv results.csv
//
// Large sweeps shard across processes or machines, stream every
// outcome to a JSONL file as it completes, and checkpoint completed
// scenarios so an interrupted run resumes where it stopped:
//
//	contracamp run -spec sweep.json -shard 0/2 -stream s0.jsonl -checkpoint s0.ck
//	contracamp run -spec sweep.json -shard 1/2 -stream s1.jsonl -checkpoint s1.ck
//	contracamp run -spec sweep.json -shard 0/2 -stream s0.jsonl -checkpoint s0.ck -resume   # after a crash
//	contracamp merge -out merged.json -csv merged.csv -agg-csv agg.csv s0.jsonl s1.jsonl
//
// Every run that ends holding the report — an in-memory run, a merge
// of record streams or of report JSON written earlier — renders it
// through one step, so every output flag works on both: -out, -csv and
// the comparison table per scenario; -agg-csv with the seed axis
// collapsed to mean/stddev/min/max of every column (the FCT-versus-load
// and recovery-time curves are its *_fct_ms and recovery_ms columns);
// -figures as gnuplot data. merge takes JSONL record streams, which it
// deduplicates by scenario key and orders by expansion index and which
// must come from one campaign, and report JSON written by -out, which
// carries no key and is appended as given. A merge runs no cell, so it
// defines none of the flags that shape one.
//
// Campaign output is deterministic: the same spec produces
// byte-identical JSON/CSV whatever the worker count, shard count,
// completion order, or number of crash/resume cycles. Every cell
// completes through one step (dist.Commit: artifacts, record,
// checkpoint mark), so -record-dir, -trace-dir and -metrics-dir write
// the same files whether the run is held in memory or sharded.
//
// check validates the line-oriented artifacts with the code that reads
// and writes them: decision traces (-trace-dir), link telemetry
// (-metrics-dir) and flow traces (-record-dir). It prints
// "ok   <file>: <summary>" or "FAIL <file>: <first violation>" per file.
//
// contracamp exits 1 when a subcommand fails and 2 on a usage error.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"

	"contra/internal/agg"
	"contra/internal/campaign"
	"contra/internal/cliutil"
	"contra/internal/dist"
	"contra/internal/figures"
	"contra/internal/flowtrace"
	"contra/internal/metrics"
	"contra/internal/scenario"
	"contra/internal/trace"
)

// usage names the three subcommands; a subcommand's usage error lists
// its flags under it.
const usage = `usage: contracamp run -spec FILE [flags]
       contracamp merge [flags] FILE...
       contracamp check trace|metrics|flow FILE...
`

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

	shard      string
	stream     string
	checkpoint string
	resume     bool

	cellBudget int64
	strict     bool

	merge  []string
	aggCSV string

	cpuProfile string
	memProfile string
}

func main() { os.Exit(cli(os.Args[1:], os.Stdout, os.Stderr)) }

// cli runs the subcommand args name and returns the exit status. Usage,
// errors and check's report go to stdout and stderr; run and merge
// print progress and the comparison table on the process's own.
func cli(args []string, stdout, stderr io.Writer) int {
	var o options
	var fs *flag.FlagSet
	if len(args) > 0 {
		fs = flagSet(args[0], &o)
	}
	if fs == nil {
		fmt.Fprint(stderr, usage)
		return 2
	}
	fs.SetOutput(stderr)
	fs.Usage = func() {
		fmt.Fprint(stderr, usage)
		fs.PrintDefaults()
	}
	if err := fs.Parse(args[1:]); errors.Is(err, flag.ErrHelp) {
		return 0
	} else if err != nil {
		return 2
	}
	switch args[0] {
	case "check":
		return check(fs.Args(), stdout, stderr)
	case "run":
		if o.spec == "" || fs.NArg() > 0 {
			fmt.Fprintln(stderr, "contracamp run: -spec FILE is required and nothing follows the flags")
			fs.Usage()
			return 2
		}
	case "merge":
		if o.merge = fs.Args(); len(o.merge) == 0 {
			fmt.Fprintln(stderr, "contracamp merge: name at least one results file after the flags")
			fs.Usage()
			return 2
		}
	}
	stop, err := cliutil.StartProfiles(o.cpuProfile, o.memProfile)
	if err == nil {
		err = run(o)
		if serr := stop(); err == nil {
			err = serr
		}
	}
	if err != nil {
		fmt.Fprintln(stderr, "contracamp:", err)
		return 1
	}
	return 0
}

// flagSet returns subcommand cmd's flags bound to o, or nil if there is
// no such subcommand. merge reads the report and profile flags, run
// those and every flag that shapes a cell, check none.
func flagSet(cmd string, o *options) *flag.FlagSet {
	fs := flag.NewFlagSet("contracamp "+cmd, flag.ContinueOnError)
	switch cmd {
	case "check":
		return fs
	case "merge":
	case "run":
		fs.StringVar(&o.spec, "spec", "", "campaign spec `file` (JSON; required)")
		fs.IntVar(&o.workers, "workers", runtime.NumCPU(), "parallel scenario workers")
		fs.StringVar(&o.traceLevel, "trace-level", "", "override the spec's trace_level (off|flows|decisions; off clears it)")
		fs.StringVar(&o.traceDir, "trace-dir", "", "write each traced cell's decision trace into `dir` as <cell name>.jsonl (needs a trace level)")
		fs.StringVar(&o.recordDir, "record-dir", "", "record each cell's flow trace into `dir` as <cell name>.flow.jsonl; a trace-kind spec pointing workload.trace at the dir replays the campaign byte-identically (see docs/trace-format.md)")
		fs.Int64Var(&o.metricsInterval, "metrics-interval", -1, "override the spec's metrics_interval_ns: sample telemetry every `ns` (0 forces off, -1 leaves the spec)")
		fs.StringVar(&o.metricsDir, "metrics-dir", "", "write each sampled cell's telemetry into `dir` as <cell name>.jsonl (needs a metrics interval)")
		fs.StringVar(&o.shard, "shard", "", "run only shard `i/N` of the expansion (requires -stream)")
		fs.StringVar(&o.stream, "stream", "", "stream outcomes to a JSONL `file` instead of holding them in memory")
		fs.StringVar(&o.checkpoint, "checkpoint", "", "record completed scenario keys in `file` (requires -stream)")
		fs.BoolVar(&o.resume, "resume", false, "skip scenarios already in -checkpoint and append to -stream")
		fs.Int64Var(&o.cellBudget, "cell-budget", -1, "override the spec's cell_budget_events: a cell that executes more than `n` simulator events is recorded as failed, at the same event on any machine and in any mode (0 forces off, -1 leaves the spec)")
	default:
		return nil
	}
	fs.StringVar(&o.out, "out", "", "write results JSON to `file` (- for stdout)")
	fs.StringVar(&o.csvOut, "csv", "", "write per-scenario CSV to `file` (- for stdout)")
	fs.StringVar(&o.aggCSV, "agg-csv", "", "write the seed aggregate, mean/stddev/min/max of every column per (topo, script, load, scheme), to `file` (- for stdout)")
	fs.StringVar(&o.figuresDir, "figures", "", "emit paper-figure gnuplot data into `dir` (a run enables telemetry sampling if the spec left it off; the two timelines need the cells' own series and samples, which a streamed or loaded report does not carry)")
	fs.BoolVar(&o.quiet, "q", false, "suppress per-scenario progress")
	fs.BoolVar(&o.noTable, "notable", false, "skip the scheme-comparison table")
	fs.BoolVar(&o.strict, "strict", false, "exit nonzero if any scenario failed (default: failed cells carry their error in the output and the exit is clean)")
	fs.StringVar(&o.cpuProfile, "cpuprofile", "", "write a CPU profile to `file` (pprof)")
	fs.StringVar(&o.memProfile, "memprofile", "", "write a heap profile to `file` at exit (pprof)")
	return fs
}

// run is the one driver both run and merge reach: a merge when o.merge
// names results files, a campaign run of o.spec otherwise.
func run(o options) error {
	if len(o.merge) > 0 {
		return runMerge(o)
	}
	if o.shard != "" && o.stream == "" {
		return fmt.Errorf("-shard partitions a streamed run; add -stream (contracamp merge joins the shards later)")
	}
	if o.checkpoint != "" && o.stream == "" {
		return fmt.Errorf("-checkpoint needs -stream: without the record stream there is nothing to resume from")
	}
	if o.resume && (o.checkpoint == "" || o.stream == "") {
		return fmt.Errorf("-resume needs both -checkpoint and -stream")
	}
	if o.stream != "" && (o.out != "" || o.csvOut != "" || o.aggCSV != "" || o.figuresDir != "") {
		return fmt.Errorf("a streamed run holds no report to render; merge it first (contracamp merge with the output flags and %s)", o.stream)
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
// both.
func progressHooks(o options, total int) (started func(*campaign.Job), completed func(int, int, *campaign.Outcome)) {
	per := progress(o)
	if o.quiet {
		return nil, per
	}
	meter := campaign.NewMeter(os.Stderr, total)
	return meter.Started, func(done, total int, out *campaign.Outcome) {
		if per != nil {
			per(done, total, out)
		}
		meter.Completed(done, total, out)
	}
}

// loadSpec reads the campaign spec and applies the flags that override
// it. -trace-level replaces the spec's trace_level ("off" clears it;
// Expand normalizes "off" away, so scenario keys, checkpoints and golden
// digests are unaffected by an explicit off). -metrics-interval replaces
// metrics_interval_ns (0 forces sampling off, -1 leaves the spec), and
// -figures turns sampling on at a default interval when both left it
// off, since the utilization-timeline figure needs samples (a streamed
// run, which carries no samples, refuses -figures).
// -cell-budget replaces cell_budget_events the same way; it is
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
	if o.figuresDir != "" && spec.MetricsIntervalNs == 0 {
		spec.MetricsIntervalNs = 500_000
	}
	if o.cellBudget >= 0 {
		spec.CellBudgetEvents = o.cellBudget
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
// dist takes.
func artifacts(o options) dist.Artifacts {
	return dist.Artifacts{Flow: o.recordDir, Trace: o.traceDir, Metrics: o.metricsDir}
}

// runCampaign is the one driver of a campaign run: every cell completes
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
	started, completed := progressHooks(o, spec.Size())
	st, runErr := dist.Run(spec, dist.Options{
		Workers:    o.workers,
		Shard:      shard,
		Checkpoint: ck,
		Progress:   completed,
		Started:    started,
		Artifacts:  artifacts(o),
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
	report, err := dist.Merge(o.merge)
	if err != nil {
		return err
	}
	if !o.quiet {
		fmt.Fprintf(os.Stderr, "merged %d scenarios from %d file(s)\n",
			len(report.Outcomes), len(o.merge))
	}
	return render(report, dist.Schemes(report), o)
}

// render writes every requested view of a report — per scenario (JSON,
// CSV, the comparison table) and with the seed axis collapsed (the
// aggregate CSV, the figure data) — and turns failed cells into the
// exit status. It is the one exit of every mode that ends holding a
// report.
func render(report *campaign.Report, schemes []scenario.Scheme, o options) error {
	tab := agg.FromOutcomes(report.Outcomes)
	for _, out := range []struct {
		path  string
		write func(io.Writer) error
	}{
		{o.out, report.WriteJSON},
		{o.csvOut, report.WriteCSV},
		{o.aggCSV, tab.WriteCSV},
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

// failures turns scenario failures into an exit status: by default a
// campaign degrades gracefully (failed cells carry their reason in the
// JSON/CSV error column, everything else is intact) and the exit is
// clean; -strict makes any failure fatal.
func failures(failed, total int, o options) error {
	if failed == 0 {
		return nil
	}
	if o.strict {
		return fmt.Errorf("%d of %d scenarios failed", failed, total)
	}
	if !o.quiet {
		fmt.Fprintf(os.Stderr, "warning: %d of %d scenarios failed (rows carry the error; -strict makes this fatal)\n",
			failed, total)
	}
	return nil
}

// checkers maps an artifact kind to the checker of the package that
// reads and writes it: check holds no format rule of its own.
var checkers = map[string]func(io.Reader) (summary string, err error){
	"trace":   trace.Check,
	"metrics": metrics.Check,
	"flow":    flowtrace.Check,
}

// check validates files of the kind args[0] names, printing one ok or
// FAIL line per file, and returns 1 if any failed, 2 on a usage error.
func check(args []string, stdout, stderr io.Writer) int {
	if len(args) < 2 || checkers[args[0]] == nil {
		fmt.Fprint(stderr, usage)
		return 2
	}
	status := 0
	for _, path := range args[1:] {
		var summary string
		f, err := os.Open(path)
		if err == nil {
			summary, err = checkers[args[0]](f)
			f.Close()
		}
		if err != nil {
			fmt.Fprintf(stdout, "FAIL %s: %v\n", path, err)
			status = 1
			continue
		}
		fmt.Fprintf(stdout, "ok   %s: %s\n", path, summary)
	}
	return status
}
