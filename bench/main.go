// Command bench is the repository's benchmark: six whole-cell
// workloads, end-to-end metrics measured with tracing off, and a
// separate traced pass that attributes each workload's time to the
// repo's layers. See README.md in this directory and BENCHMARK.json at
// the repository root.
//
// The harness measures every layer from outside: spans around calls
// into public functions, MemStats/VmHWM deltas around an op, fields of
// the deterministic results, and CPU-profile samples attributed by
// function name. It changes nothing under internal/ or cmd/.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// childrenPerPass is how many fresh processes the untraced pass
// spreads its ops over; minOpsPerChild keeps at least nine timed ops a
// pass however slow the machine. -quick runs one child and one op.
const (
	childrenPerPass = 3
	minOpsPerChild  = 3
	defaultSeconds  = 8
)

func pinProcs() int {
	n := runtime.NumCPU()
	if n > 2 {
		n = 2
	}
	runtime.GOMAXPROCS(n)
	return n
}

func main() {
	started := time.Now()
	if cfg := os.Getenv(childEnv); cfg != "" {
		if err := childMain(cfg, started, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "bench child:", err)
			os.Exit(1)
		}
		return
	}
	os.Exit(parentMain(os.Args[1:]))
}

// runner holds what every pass of one invocation shares.
type runner struct {
	exe      string
	outDir   string // bench/out: span logs and the suite's JSON
	scratch  string // removed at exit
	expected string // bench/expected: pinned digests for seed 1
	seed     int64
	seconds  float64
	quick    bool
	// children and minOps size a pass (childrenPerPass and
	// minOpsPerChild; one of each under -quick).
	children int
	minOps   int
	// opBudget is the longest a child may go without reporting an op:
	// ten times what an op takes on a slow reference box.
	opBudget time.Duration
}

func parentMain(args []string) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	name := fs.String("workload", "", "run only this workload (default: all six)")
	seed := fs.Int64("seed", 1, "input-generation seed")
	seconds := fs.Float64("seconds", defaultSeconds, "timed seconds per pass")
	trace := fs.Int("trace", -1, "0: untraced pass only, 1: traced pass only; prints one JSON result line (needs -workload). Default: both passes, full report")
	out := fs.String("out", "", "write the full report as JSON here (default bench/out/report.json)")
	selfcheck := fs.Bool("selfcheck", false, "run the untraced set twice and fail if the two disagree beyond the metrics' own bounds")
	quick := fs.Bool("quick", false, "smoke size: ~1/20 of the work, for tests")
	pin := fs.Bool("pin", false, "rewrite expected/<workload>.sha256 for seed 1 (benchmark-defining changes only)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var selected []*workload
	for i := range workloads {
		if *name == "" || workloads[i].name == *name {
			selected = append(selected, &workloads[i])
		}
	}
	if len(selected) == 0 {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *name)
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	benchDir, err := findBenchDir()
	if err != nil {
		return fail(err)
	}
	exe, err := os.Executable()
	if err != nil {
		return fail(err)
	}
	r := &runner{
		exe: exe, outDir: filepath.Join(benchDir, "out"), expected: filepath.Join(benchDir, "expected"),
		seed: *seed, seconds: *seconds, quick: *quick,
		children: childrenPerPass, minOps: minOpsPerChild, opBudget: 15 * time.Second,
	}
	if r.quick {
		r.seconds, r.children, r.minOps = 0, 1, 1
	}
	if err := os.MkdirAll(r.outDir, 0o755); err != nil {
		return fail(err)
	}
	if r.scratch, err = os.MkdirTemp(r.outDir, "tmp-"); err != nil {
		return fail(err)
	}
	defer os.RemoveAll(r.scratch)
	env := readEnvironment(benchDir)
	env.warn(os.Stderr)

	switch {
	case *pin:
		return r.pin(selected)
	case *trace == 0 || *trace == 1:
		if *name == "" {
			return fail(fmt.Errorf("-trace needs -workload"))
		}
		return r.single(selected[0], *trace == 1)
	case *selfcheck:
		return r.selfcheck(selected)
	}
	if *out == "" {
		*out = filepath.Join(r.outDir, "report.json")
	}
	return r.suite(selected, env, *out)
}

// findBenchDir locates this package's directory from the working
// directory: the module root (go.mod of module contra) plus bench/.
func findBenchDir() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if b, err := os.ReadFile(filepath.Join(dir, "go.mod")); err == nil && strings.HasPrefix(string(b), "module contra\n") {
			return filepath.Join(dir, "bench"), nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod of module contra above the working directory")
		}
		dir = parent
	}
}

// passResult is one pass over one workload.
type passResult struct {
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Errors    []string           `json:"errors,omitempty"`
	Metrics   map[string]summary `json:"metrics"`
	// Exact holds the deterministic per-layer values seen by this
	// pass's ops (the traced pass reports them; -selfcheck compares
	// them between untraced sets).
	Exact map[string]float64 `json:"-"`
	// Counts holds the medians of the ops' scheduling-dependent counts.
	Counts map[string]float64 `json:"-"`
	Digest string             `json:"digest"`
}

func (p *passResult) correct() bool { return p.Failed == 0 && len(p.Errors) == 0 }

// childResult is what the parent collected from one child.
type childResult struct {
	setupS     float64
	setupExact map[string]float64
	digest     string
	ops        []childEvent
	hwmKB      float64
	traced     map[string]float64
	attempted  int
	failed     int
	errs       []string
}

// runChild re-executes the harness as a child and collects its event
// stream. Each event must arrive within a budget of ten times its
// expected duration; a child that overruns is killed and the op it
// was in counts as attempted and failed.
func (r *runner) runChild(wl *workload, cfg childConfig) childResult {
	var res childResult
	died := func(format string, a ...any) childResult {
		res.attempted++
		res.failed++
		res.errs = append(res.errs, fmt.Sprintf(format, a...))
		return res
	}
	cfg.Workload, cfg.Seed, cfg.Quick = wl.name, r.seed, r.quick
	dir, err := os.MkdirTemp(r.scratch, wl.name+"-")
	if err != nil {
		return died("%v", err)
	}
	defer os.RemoveAll(dir)
	cfg.Dir = dir
	cfgJSON, err := json.Marshal(cfg)
	if err != nil {
		return died("%v", err)
	}
	cmd := exec.Command(r.exe)
	cmd.Env = append(os.Environ(), childEnv+"="+string(cfgJSON))
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return died("%v", err)
	}
	if err := cmd.Start(); err != nil {
		return died("%v", err)
	}
	events := make(chan childEvent)
	go func() {
		defer close(events)
		dec := json.NewDecoder(stdout)
		for {
			var ev childEvent
			if dec.Decode(&ev) != nil {
				return
			}
			events <- ev
		}
	}()
	// Set-up is prepare plus the warm-up op; the fleet's prepare also
	// runs the campaign in memory, so it gets three ops' worth.
	timer := time.NewTimer(3 * r.opBudget)
	defer timer.Stop()
	done, timedOut := false, false
loop:
	for {
		select {
		case ev, ok := <-events:
			if !ok {
				break loop
			}
			if !timer.Stop() {
				<-timer.C
			}
			timer.Reset(r.opBudget)
			switch ev.Event {
			case "setup":
				res.setupS, res.setupExact, res.digest = ev.SetupS, ev.SetupExact, ev.WarmDigest
			case "op":
				res.attempted++
				if ev.Err != "" {
					res.failed++
					res.errs = append(res.errs, ev.Err)
				}
				res.ops = append(res.ops, ev)
			case "done":
				done = true
				res.hwmKB, res.traced = ev.HWMkB, ev.Traced
			case "error":
				res.errs = append(res.errs, ev.Err)
			}
		case <-timer.C:
			timedOut = true
			_ = cmd.Process.Kill() // it may have exited meanwhile; Wait reports either way
			for range events {
			}
			break loop
		}
	}
	waitErr := cmd.Wait()
	switch {
	case timedOut:
		return died("%s: no progress within the op budget (%v); child killed", wl.name, r.opBudget)
	case waitErr != nil:
		return died("%s: child failed: %v", wl.name, waitErr)
	case !done:
		return died("%s: child exited without finishing", wl.name)
	}
	return res
}

// collect folds children into a pass result with the end-to-end
// metrics; wall times, work rates and allocation counts are medians
// over every timed op of every child.
func collect(children []childResult) *passResult {
	p := &passResult{Metrics: map[string]summary{}, Exact: map[string]float64{}, Counts: map[string]float64{}}
	var setup, wall, rate, allocs, allocMB, hwm []float64
	counts := map[string][]float64{}
	for _, c := range children {
		p.Attempted += c.attempted
		p.Failed += c.failed
		p.Errors = append(p.Errors, c.errs...)
		if c.digest != "" {
			if p.Digest != "" && p.Digest != c.digest {
				p.Errors = append(p.Errors, "children disagree on the output digest for one seed")
			}
			p.Digest = c.digest
		}
		if c.setupS > 0 {
			setup = append(setup, c.setupS)
		}
		if c.hwmKB > 0 {
			hwm = append(hwm, c.hwmKB/1e3)
		}
		for k, v := range c.setupExact {
			p.Exact[k] = v
		}
		for _, op := range c.ops {
			if op.Err != "" || op.Facts == nil {
				continue
			}
			wall = append(wall, op.WallS)
			rate = append(rate, op.Facts.Work/op.WallS)
			allocs = append(allocs, float64(op.Mallocs))
			allocMB = append(allocMB, float64(op.AllocBytes)/1e6)
			for k, v := range op.Facts.Counts {
				counts[k] = append(counts[k], v)
			}
			if op.Input != 0 {
				continue // exact metrics describe input 0, the pinned one
			}
			for k, v := range op.Facts.Exact {
				if old, ok := p.Exact[k]; ok && old != v {
					p.Errors = append(p.Errors, fmt.Sprintf("exact metric %s varies across ops on one input: %v vs %v", k, old, v))
				}
				p.Exact[k] = v
			}
		}
	}
	for k, v := range counts {
		p.Counts[k] = median(v)
	}
	p.Metrics["setup_s"] = summarize("s", setup)
	p.Metrics["wall_s"] = summarize("s", wall)
	p.Metrics["work_per_s"] = summarize("unit/s", rate)
	p.Metrics["allocs_per_op"] = summarize("count", allocs)
	p.Metrics["alloc_MB_per_op"] = summarize("MB", allocMB)
	p.Metrics["peak_rss_MB"] = summarize("MB", hwm)
	return p
}

// untraced is the pass end-to-end metrics come from: fresh children in
// sequence, each with its own set-up and warm-up, tracing off.
func (r *runner) untraced(wl *workload) *passResult {
	children := make([]childResult, r.children)
	for i := range children {
		children[i] = r.runChild(wl, childConfig{Child: i, Seconds: r.seconds / float64(r.children), MinOps: r.minOps})
	}
	return collect(children)
}

// traced is the pass per-layer metrics come from: one short untraced
// child as the overhead reference, then one child with spans and CPU
// profiling on. End-to-end metrics are never taken from it.
func (r *runner) traced(wl *workload) *passResult {
	ref := r.runChild(wl, childConfig{Seconds: r.seconds / 3, MinOps: r.minOps})
	tr := r.runChild(wl, childConfig{
		Seconds: 2 * r.seconds / 3, MinOps: r.minOps, Trace: true,
		SpansOut: filepath.Join(r.outDir, wl.name+".spans.jsonl"),
	})
	both := collect([]childResult{ref, tr})

	vals := map[string]float64{}
	for k, v := range both.Exact {
		vals[k] = v
	}
	for k, v := range both.Counts {
		vals[k] = v
	}
	for k, v := range tr.traced {
		vals[k] = v
	}
	vals["trace.overhead_frac"] = overhead(ref.ops, tr.ops)
	vals["scenario.digest_match"] = digestMatch(both, r.expected, wl.name, r.seed, r.quick)

	p := &passResult{
		Attempted: both.Attempted, Failed: both.Failed, Errors: both.Errors,
		Digest: both.Digest, Exact: both.Exact, Metrics: map[string]summary{},
	}
	for _, m := range perLayer {
		p.Metrics[m.Name] = summary{Value: vals[m.Name], Unit: m.Unit}
	}
	return p
}

// overhead is the traced child's op wall time over the reference
// child's, minus one: the median ratio over the ops both ran, paired by
// position (the two children run the same inputs in the same order,
// the traced one for longer, and a process's later ops can be faster).
func overhead(ref, traced []childEvent) float64 {
	var ratios []float64
	for i := 0; i < len(ref) && i < len(traced); i++ {
		if ref[i].Err == "" && traced[i].Err == "" && ref[i].WallS > 0 {
			ratios = append(ratios, traced[i].WallS/ref[i].WallS-1)
		}
	}
	return median(ratios)
}

// digestMatch is 1 when the outputs are the pinned ones: for the
// default seed at full size the digest equals expected/<name>.sha256;
// for any other input it falls back to "every op reproduced the
// warm-up op's bytes", which the ops have already checked.
func digestMatch(p *passResult, expectedDir, name string, seed int64, quick bool) float64 {
	if !p.correct() || p.Digest == "" {
		return 0
	}
	if seed != 1 || quick {
		return 1
	}
	b, err := os.ReadFile(filepath.Join(expectedDir, name+".sha256"))
	if err != nil || strings.TrimSpace(string(b)) != p.Digest {
		return 0
	}
	return 1
}

// single is the driver's entry: one pass over one workload, with the
// result as the last line of standard output.
func (r *runner) single(wl *workload, trace bool) int {
	var p *passResult
	decls := endToEnd
	if trace {
		p, decls = r.traced(wl), perLayer
	} else {
		p = r.untraced(wl)
	}
	printPass(wl, p, decls)
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: p.correct(), Attempted: p.Attempted, Failed: p.Failed, Metrics: map[string]value{}}
	for _, m := range decls {
		line.Metrics[m.Name] = value{p.Metrics[m.Name].Value, m.Unit}
	}
	if line.Attempted < 1 {
		line.Attempted, line.Failed, line.Correct = 1, 1, false
	}
	b, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Println(string(b))
	if !line.Correct {
		return 1
	}
	return 0
}

func printPass(wl *workload, p *passResult, decls []metricDecl) {
	fmt.Printf("workload %s (work unit: %s): %d ops attempted, %d failed\n", wl.name, wl.unit, p.Attempted, p.Failed)
	for _, e := range p.Errors {
		fmt.Printf("  ERROR %s\n", e)
	}
	for _, m := range decls {
		s := p.Metrics[m.Name]
		if s.N > 1 {
			fmt.Printf("  %-32s %14.6g %-7s (median of %d, quartiles %.6g..%.6g)\n", m.Name, s.Value, m.Unit, s.N, s.Q1, s.Q3)
		} else {
			fmt.Printf("  %-32s %14.6g %-7s\n", m.Name, s.Value, m.Unit)
		}
	}
}

// workloadReport is one workload's entry in the suite's JSON.
type workloadReport struct {
	Name     string      `json:"name"`
	WorkUnit string      `json:"work_unit"`
	EndToEnd *passResult `json:"end_to_end"`
	PerLayer *passResult `json:"per_layer"`
}

// suite runs both passes over every selected workload, prints every
// metric by name with its unit, and writes the same as JSON.
func (r *runner) suite(selected []*workload, env environment, out string) int {
	report := struct {
		Environment environment      `json:"environment"`
		Seed        int64            `json:"seed"`
		Seconds     float64          `json:"seconds"`
		Quick       bool             `json:"quick,omitempty"`
		Workloads   []workloadReport `json:"workloads"`
		// Claim names the gain a change asserts against the parent;
		// a run that only reports claims none.
		Claim *string `json:"claim"`
	}{Environment: env, Seed: r.seed, Seconds: r.seconds, Quick: r.quick}
	env.print(os.Stdout)
	code := 0
	for _, wl := range selected {
		e2e := r.untraced(wl)
		printPass(wl, e2e, endToEnd)
		layers := r.traced(wl)
		printPass(wl, layers, perLayer)
		if !e2e.correct() || !layers.correct() {
			code = 1
		}
		report.Workloads = append(report.Workloads, workloadReport{wl.name, wl.unit, e2e, layers})
	}
	b, err := json.MarshalIndent(report, "", "  ")
	if err == nil {
		err = os.WriteFile(out, append(b, '\n'), 0o644)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Printf("report written to %s\n", out)
	return code
}

// selfcheck runs the untraced set twice and names every metric whose
// two readings disagree: timed metrics by more than their own bound
// (in either direction — the two sets are the same code), exact
// metrics at all.
func (r *runner) selfcheck(selected []*workload) int {
	sets := [2]map[string]*passResult{{}, {}}
	for i := range sets {
		for _, wl := range selected {
			p := r.untraced(wl)
			fmt.Printf("set %d: ", i+1)
			printPass(wl, p, endToEnd)
			sets[i][wl.name] = p
		}
	}
	var bad []string
	for _, wl := range selected {
		a, b := sets[0][wl.name], sets[1][wl.name]
		bad = append(bad, compareSets(wl.name, a, b)...)
	}
	for _, line := range bad {
		fmt.Println("SELFCHECK FAIL", line)
	}
	if len(bad) > 0 {
		return 1
	}
	fmt.Println("selfcheck ok: both sets agree within every metric's bound, exact metrics identical")
	return 0
}

// compareSets lists the disagreements between two untraced passes of
// the same code on one workload.
func compareSets(name string, a, b *passResult) []string {
	var bad []string
	if !a.correct() || !b.correct() {
		bad = append(bad, fmt.Sprintf("%s: failed ops or correctness errors", name))
	}
	for _, m := range endToEnd {
		x, y := a.Metrics[m.Name].Value, b.Metrics[m.Name].Value
		if w := m.worsening(x, y); w > m.Bound {
			bad = append(bad, fmt.Sprintf("%s %s: %.6g -> %.6g is %.1f%% worse than the first set (bound %.0f%%)", name, m.Name, x, y, 100*w, 100*m.Bound))
		} else if w := m.worsening(y, x); w > m.Bound {
			bad = append(bad, fmt.Sprintf("%s %s: %.6g -> %.6g is %.1f%% worse than the second set (bound %.0f%%)", name, m.Name, y, x, 100*w, 100*m.Bound))
		}
	}
	keys := make([]string, 0, len(a.Exact))
	for k := range a.Exact {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if a.Exact[k] != b.Exact[k] {
			bad = append(bad, fmt.Sprintf("%s %s: exact metric differs, %v vs %v", name, k, a.Exact[k], b.Exact[k]))
		}
	}
	if a.Digest != b.Digest {
		bad = append(bad, fmt.Sprintf("%s: output digest differs between sets", name))
	}
	return bad
}

// pin rewrites the committed digests for seed 1. Only a change that
// (re)defines the benchmark may do this; a change that claims a gain
// must leave them alone and show scenario.digest_match = 1.
func (r *runner) pin(selected []*workload) int {
	if r.seed != 1 || r.quick {
		fmt.Fprintln(os.Stderr, "bench: -pin records seed 1 at full size only")
		return 2
	}
	if err := os.MkdirAll(r.expected, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	for _, wl := range selected {
		c := r.runChild(wl, childConfig{MinOps: 1})
		if c.failed > 0 || c.digest == "" {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", wl.name, c.errs)
			return 1
		}
		path := filepath.Join(r.expected, wl.name+".sha256")
		if err := os.WriteFile(path, []byte(c.digest+"\n"), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		fmt.Printf("pinned %s %s\n", wl.name, c.digest)
	}
	return 0
}
