package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"
)

// childEnv carries a childConfig to a re-executed harness process. Go
// seeds map hashing per process, so fresh children sample that
// variation instead of baking one draw into a whole run.
const childEnv = "CONTRA_BENCH_CHILD"

// profileHz is the CPU profiling rate of the traced pass.
const profileHz = 500

// childConfig is one child's assignment: set up a workload for a seed,
// run one warm-up op, then timed ops for Seconds (at least MinOps).
// Child numbers the children of a pass; it enters input derivation.
type childConfig struct {
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Child    int     `json:"child"`
	Quick    bool    `json:"quick"`
	Seconds  float64 `json:"seconds"`
	MinOps   int     `json:"min_ops"`
	Trace    bool    `json:"trace"`
	Dir      string  `json:"dir"`       // scratch, removed by the parent
	SpansOut string  `json:"spans_out"` // traced pass: span log path
}

// childEvent is one line of a child's stdout. The parent arms a
// wall-clock budget between lines, so a runaway op is killed rather
// than hanging the benchmark.
type childEvent struct {
	Event string `json:"event"` // setup | op | tick | done | error

	// setup
	SetupS     float64            `json:"setup_s,omitempty"`
	WarmDigest string             `json:"warm_digest,omitempty"`
	SetupExact map[string]float64 `json:"setup_exact,omitempty"`

	// op; Input is the index of the input it ran (0 = the warm-up's)
	Input      int      `json:"input,omitempty"`
	WallS      float64  `json:"wall_s,omitempty"`
	Mallocs    uint64   `json:"mallocs,omitempty"`
	AllocBytes uint64   `json:"alloc_bytes,omitempty"`
	Facts      *opFacts `json:"facts,omitempty"`
	Err        string   `json:"err,omitempty"`

	// done
	HWMkB  float64            `json:"hwm_kb,omitempty"`
	Traced map[string]float64 `json:"traced,omitempty"`
}

// vmHWM reads the process's peak resident set size in kB.
func vmHWM() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) > 0 {
				v, _ := strconv.ParseFloat(f[0], 64)
				return v
			}
		}
	}
	return 0
}

// timedOp is one op with its measurements. The MemStats reads bracket
// the op call only; verify runs after them.
type timedOp struct {
	p          *prepared
	input      int
	out        any
	wallS      float64
	mallocs    uint64
	allocBytes uint64
	err        error
}

func runOp(p *prepared, sp *spanLog) timedOp {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	out, err := p.run(sp)
	wall := time.Since(start)
	runtime.ReadMemStats(&after)
	return timedOp{
		p: p, out: out, err: err, wallS: wall.Seconds(),
		mallocs: after.Mallocs - before.Mallocs, allocBytes: after.TotalAlloc - before.TotalAlloc,
	}
}

// inputSeed derives the seed of a child's idx-th input. Workloads with
// freshInputs run a different generated cell in every timed op after
// the first, and different ones in every child, so one run's medians
// are taken over about nine distinct cells rather than one draw: a
// cell's cost depends on its seed (which flows collide, how the
// calendar queue's buckets fill) by tens of percent, far more than on
// the machine. Input 0 is the same in every child; its digest is the
// one that is cross-checked and pinned.
func inputSeed(wl *workload, seed int64, child, idx int) int64 {
	if !wl.freshInputs || idx == 0 {
		return seed
	}
	return seed*10007 + int64(child)*101 + int64(idx)
}

// childMain runs one child to completion, streaming events to w.
func childMain(cfgJSON string, started time.Time, w io.Writer) error {
	enc := json.NewEncoder(w)
	fail := func(err error) error {
		_ = enc.Encode(childEvent{Event: "error", Err: err.Error()}) // the parent also sees the exit code
		return err
	}
	var cfg childConfig
	if err := json.Unmarshal([]byte(cfgJSON), &cfg); err != nil {
		return fail(fmt.Errorf("child config: %w", err))
	}
	wl := findWorkload(cfg.Workload)
	if wl == nil {
		return fail(fmt.Errorf("unknown workload %q", cfg.Workload))
	}
	pinProcs()
	var sp *spanLog
	if cfg.Trace {
		sp = newSpanLog()
	}

	// Set-up: input 0 from the seed, then one untimed warm-up op on it
	// whose digest the first timed op, on the same input, must
	// reproduce.
	input := func(idx int) (*prepared, error) {
		return wl.prepare(inputSeed(wl, cfg.Seed, cfg.Child, idx), cfg.Quick, cfg.Dir, sp)
	}
	p0, err := input(0)
	if err != nil {
		return fail(fmt.Errorf("prepare: %w", err))
	}
	warm := runOp(p0, sp)
	if warm.err != nil {
		return fail(fmt.Errorf("warm-up op: %w", warm.err))
	}
	warmFacts, err := p0.verify(warm.out)
	if err != nil {
		return fail(fmt.Errorf("warm-up op: %w", err))
	}
	warm.out = nil
	if err := enc.Encode(childEvent{
		Event: "setup", SetupS: time.Since(started).Seconds(),
		WarmDigest: warmFacts.Digest, SetupExact: p0.setupExact,
	}); err != nil {
		return err
	}

	var prof bytes.Buffer
	if cfg.Trace {
		// StartCPUProfile re-sets the rate to 100 Hz and the runtime
		// refuses with a note on stderr; the rate set here stays.
		runtime.SetCPUProfileRate(profileHz)
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return fail(err)
		}
	}
	// In the traced pass verification waits until the profile is
	// stopped, so digesting is not attributed to any layer.
	var held []timedOp
	report := func(op timedOp) error {
		ev := childEvent{Event: "op", Input: op.input, WallS: op.wallS, Mallocs: op.mallocs, AllocBytes: op.allocBytes}
		if op.err != nil {
			ev.Err = op.err.Error()
		} else {
			facts, err := op.p.verify(op.out)
			ev.Facts = facts
			switch {
			case err != nil:
				ev.Err = err.Error()
			case op.input == 0 && facts.Digest != warmFacts.Digest:
				ev.Err = fmt.Sprintf("output digest %.12s differs from the warm-up op's %.12s", facts.Digest, warmFacts.Digest)
			}
		}
		return enc.Encode(ev)
	}
	timedStart := time.Now()
	for n := 0; n < cfg.MinOps || time.Since(timedStart).Seconds() < cfg.Seconds; n++ {
		sp.setOp(n + 1)
		p := p0
		if wl.freshInputs && n > 0 {
			if p, err = input(n); err != nil {
				return fail(fmt.Errorf("prepare input %d: %w", n, err))
			}
		}
		op := runOp(p, sp)
		if p != p0 {
			op.input = n
		}
		if cfg.Trace {
			held = append(held, op)
			// Keeps the parent's per-op budget armed while results wait.
			if err := enc.Encode(childEvent{Event: "tick"}); err != nil {
				return err
			}
			continue
		}
		if err := report(op); err != nil {
			return err
		}
	}
	var traced map[string]float64
	if cfg.Trace {
		pprof.StopCPUProfile()
		for _, op := range held {
			if err := report(op); err != nil {
				return err
			}
		}
		samples, err := parseProfile(prof.Bytes())
		if err != nil {
			return fail(err)
		}
		traced = attribute(samples)
		for name, v := range spanMetrics(sp.spans) {
			traced[name] = v
		}
		if run := traced["fabric.run_s"]; run > 0 {
			traced["fabric.overhead_ms_per_cell"] = (run - traced["campaign.run_inmem_s"]) * 1e3 / warmFacts.Work
		}
		if err := os.MkdirAll(filepath.Dir(cfg.SpansOut), 0o755); err != nil {
			return fail(err)
		}
		if err := sp.write(cfg.SpansOut); err != nil {
			return fail(err)
		}
	}
	return enc.Encode(childEvent{Event: "done", HWMkB: vmHWM(), Traced: traced})
}

// spanMetricNames maps span names to their per-layer metric and the
// scale from nanoseconds to the metric's unit.
var spanMetricNames = map[string]struct {
	metric string
	perNs  float64
}{
	"scenario.cell":        {"scenario.cell_ms", 1e-6},
	"topo.build":           {"topo.build_ms", 1e-6},
	"policy.parse":         {"policy.parse_ms", 1e-6},
	"core.compile":         {"core.compile_ms", 1e-6},
	"core.p4gen":           {"core.p4gen_ms", 1e-6},
	"campaign.load":        {"campaign.load_ms", 1e-6},
	"campaign.run_inmem":   {"campaign.run_inmem_s", 1e-9},
	"campaign.encode_json": {"campaign.encode_json_ms", 1e-6},
	"campaign.encode_csv":  {"campaign.encode_csv_ms", 1e-6},
	"dist.run_sharded":     {"dist.run_sharded_s", 1e-9},
	"dist.merge":           {"dist.merge_ms", 1e-6},
	"fabric.run":           {"fabric.run_s", 1e-9},
}

// spanMetrics reduces the span log to one number per span metric: the
// median over timed ops of the summed self time per op, or the set-up
// value (op 0) for spans that only occur there.
func spanMetrics(spans []span) map[string]float64 {
	perOp := selfTimes(spans)
	out := map[string]float64{}
	for name, m := range spanMetricNames {
		var timed []float64
		for op, self := range perOp {
			if ns, ok := self[name]; ok && op > 0 {
				timed = append(timed, float64(ns)*m.perNs)
			}
		}
		switch {
		case len(timed) > 0:
			out[m.metric] = median(timed)
		default:
			out[m.metric] = float64(perOp[0][name]) * m.perNs
		}
	}
	return out
}
