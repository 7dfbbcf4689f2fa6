// Package campaign expands a declarative spec — a cartesian matrix of
// topologies × schemes × loads × event scripts × seeds — into concrete
// scenarios, fans them out across a bounded pool of worker goroutines,
// and aggregates the per-scenario results into JSON, CSV, and a
// scheme-comparison table.
//
// The execution core is Stream: it emits each Outcome as it completes
// and retains nothing, so arbitrarily large sweeps run in bounded
// memory. Run is a thin in-memory sink over it, collecting outcomes
// into a Report in expansion order; internal/dist layers shard
// partitioning, JSONL streaming, and checkpoint/resume on the same
// core.
//
// Each scenario's simulation is single-threaded and deterministic, so
// a campaign parallelizes embarrassingly: outcomes are keyed by
// expansion index, which makes the aggregate output byte-identical
// whether the campaign ran on one worker or sixteen, in one process
// or many shards.
package campaign

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"sync"

	"contra/internal/core"
	"contra/internal/scenario"
)

// Script is a named scenario event script.
type Script struct {
	Name   string           `json:"name"`
	Events []scenario.Event `json:"events,omitempty"`
}

// Spec is the campaign file format: the matrix axes plus the base
// workload and protocol knobs shared by every cell.
type Spec struct {
	Name string `json:"name,omitempty"`

	// Matrix axes. Empty Scripts means one steady-state script; empty
	// Seeds means seed 1.
	Topos   []string          `json:"topos"`
	Schemes []scenario.Scheme `json:"schemes"`
	Loads   []float64         `json:"loads"`
	Scripts []Script          `json:"event_scripts,omitempty"`
	Seeds   []int64           `json:"seeds,omitempty"`

	// Base scenario knobs; Workload.Load is overridden per cell.
	Workload scenario.Workload `json:"workload,omitempty"`
	Policy   string            `json:"policy,omitempty"`

	// The settings every cell shares, declared where Scenario declares
	// them and handed to each cell whole: the protocol settings
	// (core.Options) and the observation settings (scenario.Observe).
	// A trace_level of "off" expands to absent, so the expansion — and
	// every scenario Key — is identical to a spec that never mentioned
	// tracing; likewise 0 for metrics_interval_ns is off and leaves
	// every Key alone.
	core.Options
	scenario.Observe

	// CellBudgetEvents bounds the simulator events each cell may
	// execute (0 = no bound); Expand hands it to every scenario as
	// BudgetEvents. A cell that spends it is recorded as a failed
	// outcome (a scenario.ErrCellBudget-prefixed error) instead of
	// holding its worker, and fails at the same event on any machine
	// and in any mode. This is an execution knob, not a scenario
	// parameter: it never enters scenario keys, checkpoints, or golden
	// digests.
	CellBudgetEvents int64 `json:"cell_budget_events,omitempty"`
}

// Parse decodes a campaign spec, rejecting unknown fields.
func Parse(data []byte) (*Spec, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var s Spec
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("campaign: %v", err)
	}
	if err := s.validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// LoadFile reads and decodes a campaign spec file.
func LoadFile(path string) (*Spec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return Parse(b)
}

func (s *Spec) validate() error {
	if len(s.Topos) == 0 {
		return fmt.Errorf("campaign %q: no topos", s.Name)
	}
	if len(s.Schemes) == 0 {
		return fmt.Errorf("campaign %q: no schemes", s.Name)
	}
	switch s.Workload.Kind {
	case scenario.WorkloadCBR, scenario.WorkloadTrace, scenario.WorkloadCohorts:
		// CBR sets an absolute rate, a trace replays recorded traffic,
		// and cohorts carry their own per-cohort rates: a load axis is
		// optional for all three (for cohorts it scales every cohort;
		// for traces it is a label matching the recording campaign).
	default:
		if len(s.Loads) == 0 {
			return fmt.Errorf("campaign %q: no loads", s.Name)
		}
	}
	if s.CellBudgetEvents < 0 {
		return fmt.Errorf("campaign %q: negative cell_budget_events", s.Name)
	}
	return s.checkAxisDuplicates()
}

// checkAxisDuplicates rejects repeated values on any matrix axis. A
// duplicate would expand to two scenarios with identical canonical
// keys at different indices — redundant compute in any mode, and fatal
// only at merge time in the sharded mode, after the sweep has already
// been paid for — so it fails upfront instead (from Expand, not only
// Parse, to cover Go-constructed specs).
func (s *Spec) checkAxisDuplicates() error {
	scripts := make([]string, len(s.Scripts))
	for i, sc := range s.Scripts {
		scripts[i] = sc.Name
	}
	for axis, values := range map[string][]string{
		"topo":         s.Topos,
		"scheme":       schemeStrings(s.Schemes),
		"load":         floatStrings(s.Loads),
		"seed":         seedStrings(s.Seeds),
		"event script": scripts,
	} {
		seen := map[string]bool{}
		for _, v := range values {
			if seen[v] {
				return fmt.Errorf("campaign %q: duplicate %s %q", s.Name, axis, v)
			}
			seen[v] = true
		}
	}
	return nil
}

func schemeStrings(ss []scenario.Scheme) []string {
	out := make([]string, len(ss))
	for i, s := range ss {
		out[i] = string(s)
	}
	return out
}

func floatStrings(fs []float64) []string {
	out := make([]string, len(fs))
	for i, f := range fs {
		out[i] = trimFloat(f)
	}
	return out
}

func seedStrings(is []int64) []string {
	out := make([]string, len(is))
	for i, v := range is {
		out[i] = strconv.FormatInt(v, 10)
	}
	return out
}

// Size returns the number of scenarios the spec expands to.
func (s *Spec) Size() int {
	return len(s.Topos) * len(s.Schemes) * max(len(s.Loads), 1) *
		max(len(s.Scripts), 1) * max(len(s.Seeds), 1)
}

// Expand materializes the cartesian matrix in a fixed order: topo,
// scheme, load, script, seed — slowest axis first. Every scenario is
// validated before any runs, so a bad cell fails the campaign upfront.
// Duplicate axis values are rejected here too (not only in Parse), so
// Go-constructed specs cannot expand to two scenarios sharing one
// canonical key.
func (s *Spec) Expand() ([]scenario.Scenario, error) {
	if err := s.checkAxisDuplicates(); err != nil {
		return nil, err
	}
	loads := s.Loads
	if len(loads) == 0 {
		loads = []float64{0} // CBR campaigns have no load axis
	}
	scripts := s.Scripts
	if len(scripts) == 0 {
		scripts = []Script{{Name: "steady"}}
	}
	seeds := s.Seeds
	if len(seeds) == 0 {
		seeds = []int64{1}
	}
	var out []scenario.Scenario
	for _, tp := range s.Topos {
		for _, scheme := range s.Schemes {
			for _, load := range loads {
				for _, script := range scripts {
					for _, seed := range seeds {
						w := s.Workload
						w.Load = load
						sc := scenario.Scenario{
							Name: fmt.Sprintf("%s/%s/load%s/%s/seed%d",
								tp, scheme, trimFloat(load), script.Name, seed),
							TopoSpec: tp,
							Scheme:   scheme,
							Policy:   s.Policy,
							Seed:     seed,
							Workload: w,
							Events:   script.Events,
							Script:   script.Name,
							Options:  s.Options,
							Observe:  s.Observe,

							BudgetEvents: s.CellBudgetEvents,
						}
						if sc.TraceLevel == "off" {
							sc.TraceLevel = ""
						}
						if err := sc.Validate(); err != nil {
							return nil, err
						}
						out = append(out, sc)
					}
				}
			}
		}
	}
	return out, nil
}

func trimFloat(f float64) string { return strconv.FormatFloat(f, 'g', -1, 64) }

// Job pairs a scenario with its position in the spec's expansion
// order. The index is the unit of shard partitioning and the sort key
// that makes merged shard output byte-identical to a single-process
// run (internal/dist).
type Job struct {
	Index    int
	Scenario scenario.Scenario
}

// Jobs expands the spec into indexed jobs, the input of Stream.
func (s *Spec) Jobs() ([]Job, error) {
	scens, err := s.Expand()
	if err != nil {
		return nil, err
	}
	jobs := make([]Job, len(scens))
	for i, sc := range scens {
		jobs[i] = Job{Index: i, Scenario: sc}
	}
	return jobs, nil
}

// Outcome pairs a scenario with its result or error.
type Outcome struct {
	Scenario scenario.Scenario `json:"-"`
	Result   *scenario.Result  `json:"result,omitempty"`
	Err      string            `json:"error,omitempty"`
}

// Cell is an outcome's position in the campaign matrix.
type Cell struct {
	Topo   string
	Scheme scenario.Scheme
	Load   float64
	Script string
	Seed   int64
}

// Cell returns the outcome's matrix position: the campaign's axis
// values when the scenario is in hand (in-memory runs and record
// streams carry it), so the failed and the successful seeds of one cell
// share a key; the result's own fields for an outcome loaded from bare
// report JSON, which has no scenario column. A failed outcome of such a
// report has neither and cannot be placed.
func (o *Outcome) Cell() (Cell, bool) {
	switch {
	case o.Scenario.TopoSpec != "":
		sc := &o.Scenario
		return Cell{sc.TopoSpec, sc.Scheme, sc.Workload.Load, sc.Script, sc.Seed}, true
	case o.Result != nil:
		r := o.Result
		return Cell{r.Topo, r.Scheme, r.Load, r.Script, r.Seed}, true
	}
	return Cell{}, false
}

// Report is a completed campaign: outcomes in expansion order.
type Report struct {
	Name     string    `json:"name,omitempty"`
	Outcomes []Outcome `json:"scenarios"`
}

// Failed counts scenarios that returned an error.
func (r *Report) Failed() int {
	n := 0
	for _, o := range r.Outcomes {
		if o.Err != "" {
			n++
		}
	}
	return n
}

// Options tunes a campaign run.
type Options struct {
	// Workers bounds the goroutine pool; <= 0 means 1.
	Workers int

	// Progress, when set, fires after each scenario completes (from
	// the completing worker's goroutine).
	Progress func(done, total int, o *Outcome)

	// Started, when set, fires when a worker picks a job up, before
	// its scenario runs. Calls are serialized with Progress and emit
	// under the same lock, so a sink tracking in-flight cells (the
	// progress Meter) needs no locking of its own.
	Started func(j *Job)
}

// Stream is the campaign execution core: it fans jobs out across a
// bounded pool of worker goroutines and hands each completed Outcome
// to emit as it finishes, retaining nothing itself. Emit calls are
// serialized (one at a time, from the completing worker's goroutine)
// so sinks need no locking of their own; outcomes arrive in completion
// order, not expansion order — consumers that need determinism sort on
// Job.Index, as the in-memory Report and the shard merger do.
//
// Scenario failures do not abort the stream — they are emitted as
// outcomes with Err set — but an emit error does: no new jobs are
// dispatched, in-flight scenarios drain, and Stream returns the error.
// That is the hook crash-interruption tests use to kill a campaign
// mid-run.
func Stream(jobs []Job, opts Options, emit func(*Job, *Outcome) error) error {
	if len(jobs) == 0 {
		return nil
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = 1
	}
	if workers > len(jobs) {
		workers = len(jobs)
	}
	jobc := make(chan *Job)
	stop := make(chan struct{})
	var stopOnce sync.Once
	var wg sync.WaitGroup
	var mu sync.Mutex // serializes emit, Progress, and the done counter
	var emitErr error
	done := 0
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobc {
				if opts.Started != nil {
					mu.Lock()
					opts.Started(j)
					mu.Unlock()
				}
				o := Outcome{Scenario: j.Scenario}
				res, err := scenario.Run(j.Scenario)
				if err != nil {
					o.Err = err.Error()
				} else {
					o.Result = res
				}
				mu.Lock()
				done++
				if emitErr == nil {
					if err := emit(j, &o); err != nil {
						emitErr = err
						stopOnce.Do(func() { close(stop) })
					} else if opts.Progress != nil {
						opts.Progress(done, len(jobs), &o)
					}
				}
				mu.Unlock()
			}
		}()
	}
dispatch:
	for i := range jobs {
		select {
		case jobc <- &jobs[i]:
		case <-stop:
			break dispatch
		}
	}
	close(jobc)
	wg.Wait()
	return emitErr
}

// Run expands and executes a campaign, collecting every outcome in
// expansion order — a thin in-memory sink over Stream. Scenario
// failures do not abort the campaign — they are recorded in the report
// — but an invalid spec fails before anything runs.
func Run(spec *Spec, opts Options) (*Report, error) {
	jobs, err := spec.Jobs()
	if err != nil {
		return nil, err
	}
	report := &Report{Name: spec.Name, Outcomes: make([]Outcome, len(jobs))}
	if err := Stream(jobs, opts, func(j *Job, o *Outcome) error {
		report.Outcomes[j.Index] = *o
		return nil
	}); err != nil {
		return nil, err
	}
	return report, nil
}

// WriteJSON encodes the report deterministically (results only carry
// fields that are pure functions of their scenarios).
func (r *Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// idHeader names the identity columns that open every per-scenario
// CSV row; Columns and "error" follow.
var idHeader = []string{"name", "topo", "scheme", "script", "dist", "load", "seed", "flows", "completed"}

// WriteCSV renders one row per scenario: identity, Columns, error.
func (r *Report) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	header := append([]string{}, idHeader...)
	for i := range Columns {
		header = append(header, Columns[i].Name)
	}
	if err := cw.Write(append(header, "error")); err != nil {
		return err
	}
	for _, o := range r.Outcomes {
		res := o.Result
		if res == nil {
			res = &scenario.Result{
				Name:   o.Scenario.Name,
				Topo:   o.Scenario.TopoSpec,
				Scheme: o.Scenario.Scheme,
				Script: o.Scenario.Script,
				Seed:   o.Scenario.Seed,
			}
		}
		row := []string{
			res.Name, res.Topo, string(res.Scheme), res.Script, res.Dist,
			trimFloat(res.Load), strconv.FormatInt(res.Seed, 10),
			strconv.Itoa(res.Flows), strconv.FormatInt(res.Completed, 10),
		}
		for i := range Columns {
			row = append(row, Columns[i].Cell(res))
		}
		if err := cw.Write(append(row, o.Err)); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// ComparisonTable groups outcomes by (topo, load, script, seed) and
// lays the schemes side by side on mean FCT — what the paper's Figures
// 11, 12 and 15 plot — tail FCT (p95 and p99), drops and fairness, each
// the per-scenario cell of its column. Rows are sorted by group key;
// scheme columns follow the given scheme order.
func (r *Report) ComparisonTable(schemes []scenario.Scheme) (header []string, rows [][]string) {
	header = []string{"topo", "load", "script", "seed"}
	for _, s := range schemes {
		header = append(header, string(s)+" mean ms", string(s)+" p95ms", string(s)+" p99ms", string(s)+" drops", string(s)+" jain")
	}
	groups := map[Cell]map[scenario.Scheme]*scenario.Result{}
	var keys []Cell
	for i := range r.Outcomes {
		o := &r.Outcomes[i]
		k, ok := o.Cell()
		if !ok || o.Result == nil {
			continue
		}
		scheme := k.Scheme
		k.Scheme = "" // the axis laid out across the row
		if groups[k] == nil {
			groups[k] = map[scenario.Scheme]*scenario.Result{}
			keys = append(keys, k)
		}
		groups[k][scheme] = o.Result
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a.Topo != b.Topo {
			return a.Topo < b.Topo
		}
		if a.Load != b.Load {
			return a.Load < b.Load
		}
		if a.Script != b.Script {
			return a.Script < b.Script
		}
		return a.Seed < b.Seed
	})
	cell := func(name string, res *scenario.Result) string {
		return Columns[Columns.Index(name)].Cell(res)
	}
	for _, k := range keys {
		row := []string{k.Topo, trimFloat(k.Load), k.Script, strconv.FormatInt(k.Seed, 10)}
		for _, s := range schemes {
			res, ok := groups[k][s]
			if !ok {
				row = append(row, "-", "-", "-", "-", "-")
				continue
			}
			row = append(row,
				cell("mean_fct_ms", res), cell("p95_fct_ms", res), cell("p99_fct_ms", res),
				trimFloat(res.QueueDrops+res.LinkDownDrops),
				cell("jain", res))
		}
		rows = append(rows, row)
	}
	return header, rows
}
