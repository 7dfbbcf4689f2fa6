// Package contra is a Go implementation of Contra (Hsu et al., NSDI
// 2020): a programmable system for performance-aware routing.
//
// Operators describe their network topology and write a declarative
// policy that ranks paths — mixing regular-expression path constraints
// with dynamic metrics such as utilization and latency:
//
//	minimize(if .* W .* then path.util else inf)
//
// Compile analyzes the policy jointly with the topology and produces
// per-switch data-plane programs which collectively implement a
// specialized distance-vector protocol: switches exchange compact
// periodic probes that gather path metrics, rank policy-compliant
// paths in real time, and pin flowlets to the current best path,
// adapting at data-plane timescales.
//
// The package is organized as the paper's system is:
//
//   - the policy language (parse with ParsePolicy, or use the catalog
//     constructors such as MinUtil and Waypoint),
//   - the compiler (Compile → *Program: product graph, probe classes,
//     per-switch tables, P4 source, state accounting),
//   - a deterministic packet-level simulator standing in for the
//     paper's ns-3 testbed (NewSimulation for interactive use),
//   - the baselines the paper compares against (ECMP, HULA, SPAIN,
//     shortest-path) selectable by Scheme, and
//   - a declarative scenario engine (RunScenario) with timed event
//     scripts — failures, recoveries, capacity degradations, traffic
//     surges — plus a parallel campaign runner (RunCampaign) that
//     sweeps scenario matrices and aggregates results
//     deterministically. Every number in the paper's evaluation is a
//     campaign spec under examples/paper; CompileSweep measures the
//     compiler for Figures 9 and 10.
package contra

import (
	"fmt"
	"io"
	"sort"
	"time"

	"contra/internal/campaign"
	"contra/internal/core"
	"contra/internal/policy"
	"contra/internal/scenario"
	"contra/internal/topo"
)

// Re-exported core types. Aliases keep the public API in one import
// path while the implementation stays in focused internal packages.
type (
	// Topology is a network of switches, hosts and links.
	Topology = topo.Graph
	// NodeID identifies a node within a Topology.
	NodeID = topo.NodeID
	// LinkID identifies a link within a Topology.
	LinkID = topo.LinkID
	// Policy is a parsed path-ranking policy.
	Policy = policy.Policy
	// Rank is a policy's value for one path; smaller is better.
	Rank = policy.Rank
)

// Node kinds for Topology construction.
const (
	Switch = topo.Switch
	Host   = topo.Host
)

// NewTopology returns an empty topology.
func NewTopology(name string) *Topology { return topo.New(name) }

// ParseTopology reads the line-oriented topology format:
//
//	node <name> switch|host
//	link <a> <b> [bandwidth] [delay]
func ParseTopology(r io.Reader, name string) (*Topology, error) { return topo.Parse(r, name) }

// Topology generators mirroring the paper's evaluation setups.
var (
	// Fattree builds a k-ary fat-tree (k even), optionally with hosts.
	Fattree = topo.Fattree
	// LeafSpine builds a two-tier Clos fabric.
	LeafSpine = topo.LeafSpine
	// PaperDataCenter is the §6.3 configuration: 32 hosts at 10 Gbps,
	// 4:1 oversubscription, 40 Gbps bisection.
	PaperDataCenter = topo.PaperDataCenter
	// Abilene is the 11-node Internet2 backbone (§6.4).
	Abilene = topo.Abilene
	// AbileneWithHosts attaches one host per Abilene switch.
	AbileneWithHosts = topo.AbileneWithHosts
	// RandomTopology builds a connected random graph (compiler
	// scalability sweeps).
	RandomTopology = topo.RandomConnected
)

// ParsePolicy parses policy source. Passing the topology's switch
// names as symbols enables strict name checking and the paper's
// ".*XY.*" concatenated-link notation.
func ParsePolicy(src string, symbols ...string) (*Policy, error) {
	if len(symbols) > 0 {
		return policy.Parse(src, policy.ParseOptions{Symbols: symbols})
	}
	return policy.Parse(src)
}

// Policy catalog (Figure 3 of the paper).
var (
	// ShortestPathPolicy is P1: minimize(path.len).
	ShortestPathPolicy = policy.ShortestPath
	// MinUtil is P2: minimize(path.util), the HULA policy.
	MinUtil = policy.MinUtil
	// WidestShortest is P3: minimize((path.util, path.len)).
	WidestShortest = policy.WidestShortest
	// ShortestWidest is P4: minimize((path.len, path.util)).
	ShortestWidest = policy.ShortestWidest
	// Waypoint is P5: traffic must cross one of the waypoints.
	Waypoint = policy.Waypoint
	// LinkPreference is P6: only paths over link X→Y are allowed.
	LinkPreference = policy.LinkPreference
	// WeightedLink is P7: penalize paths crossing X→Y.
	WeightedLink = policy.WeightedLink
	// SourceLocal is P8: per-source metric preferences.
	SourceLocal = policy.SourceLocal
	// CongestionAware is P9: the non-isotonic soft-threshold policy.
	CongestionAware = policy.CongestionAware
	// Failover builds Propane-style strict path preferences.
	Failover = policy.Failover
)

// Option tunes compilation.
type Option func(*core.Options)

// WithProbePeriod overrides the §5.2-derived probe period.
func WithProbePeriod(d time.Duration) Option {
	return func(o *core.Options) { o.ProbePeriodNs = int64(d) }
}

// WithFlowletTimeout sets the flowlet gap (§5.3); default 200us.
func WithFlowletTimeout(d time.Duration) Option {
	return func(o *core.Options) { o.FlowletTimeoutNs = int64(d) }
}

// WithFailureDetectPeriods sets k: a link silent for k probe periods
// is presumed failed (§5.4); default 3.
func WithFailureDetectPeriods(k int) Option {
	return func(o *core.Options) { o.FailureDetectPeriods = k }
}

// Program is a compiled policy+topology: the paper's per-switch P4
// artifacts plus everything the simulator needs to execute them.
type Program struct {
	compiled *core.Compiled
}

// Compile runs the Contra compiler.
func Compile(pol *Policy, g *Topology, opts ...Option) (*Program, error) {
	var o core.Options
	for _, opt := range opts {
		opt(&o)
	}
	c, err := core.Compile(g, pol, o)
	if err != nil {
		return nil, err
	}
	return &Program{compiled: c}, nil
}

// CompileSource parses and compiles policy source in one step.
func CompileSource(policySrc string, g *Topology, opts ...Option) (*Program, error) {
	pol, err := ParsePolicy(policySrc, g.SortedNames()...)
	if err != nil {
		return nil, err
	}
	return Compile(pol, g, opts...)
}

// Topology returns the program's topology.
func (p *Program) Topology() *Topology { return p.compiled.Topo }

// Policy returns the compiled policy.
func (p *Program) Policy() *Policy { return p.compiled.Policy }

// Describe renders a human-readable compilation report.
func (p *Program) Describe() string { return p.compiled.Describe() }

// AnalysisReport renders the policy analysis (monotonicity,
// isotonicity, probe-class decomposition).
func (p *Program) AnalysisReport() string { return p.compiled.Analysis.Describe() }

// P4 emits the device-local P4-16 program for a switch. Naming a host
// is an error: programs are compiled for switches only.
func (p *Program) P4(switchName string) (string, error) {
	t := p.compiled.Topo
	id, ok := t.NodeByName(switchName)
	if !ok {
		return "", fmt.Errorf("contra: no switch named %q", switchName)
	}
	src := p.compiled.GenerateP4(id)
	if src == "" {
		return "", fmt.Errorf("contra: no P4 program for %v %q: programs are compiled for switches, not hosts",
			t.Node(id).Kind, switchName)
	}
	return src, nil
}

// ProbePeriod returns the compiled probe period.
func (p *Program) ProbePeriod() time.Duration { return p.compiled.ProbePeriod() }

// MaxStateBytes returns the largest per-switch table state (Fig 10).
func (p *Program) MaxStateBytes() int { return p.compiled.Stats.MaxStateBytes }

// CompileTime returns how long compilation took (Fig 9).
func (p *Program) CompileTime() time.Duration { return p.compiled.Stats.CompileTime }

// ProbeClasses returns the number of probe classes (pids) the policy
// decomposed into.
func (p *Program) ProbeClasses() int { return p.compiled.Stats.Pids }

// TagBits returns the packet-header bits used by the minimized tag.
func (p *Program) TagBits() int { return p.compiled.Stats.TagBits }

// Scheme selects a routing system: contra, ecmp, hula, spain, sp.
type Scheme = scenario.Scheme

// Scheme constants.
const (
	SchemeContra = scenario.SchemeContra
	SchemeECMP   = scenario.SchemeECMP
	SchemeHula   = scenario.SchemeHula
	SchemeSpain  = scenario.SchemeSpain
	SchemeSP     = scenario.SchemeSP
)

// Scenario subsystem re-exports: declarative experiments with timed
// event scripts, and campaigns that sweep a scenario matrix across a
// parallel worker pool.
type (
	// Scenario is one declarative experiment: topology, scheme,
	// workload, and a timed event script.
	Scenario = scenario.Scenario
	// ScenarioEvent is one timed entry of a scenario's script.
	ScenarioEvent = scenario.Event
	// ScenarioWorkload describes a scenario's offered traffic.
	ScenarioWorkload = scenario.Workload
	// ScenarioResult summarizes one scenario run.
	ScenarioResult = scenario.Result
	// CampaignSpec is a cartesian scenario matrix (topologies ×
	// schemes × loads × event scripts × seeds).
	CampaignSpec = campaign.Spec
	// CampaignScript is a named event script inside a campaign.
	CampaignScript = campaign.Script
	// CampaignOptions tunes a campaign run (worker count, progress).
	CampaignOptions = campaign.Options
	// CampaignReport aggregates a campaign's per-scenario results.
	CampaignReport = campaign.Report
)

// Scenario event kinds.
const (
	EventLinkDown = scenario.LinkDown
	EventLinkUp   = scenario.LinkUp
	EventDegrade  = scenario.Degrade
	EventSurge    = scenario.Surge
)

// RunScenario executes one scenario deterministically.
func RunScenario(s Scenario) (*ScenarioResult, error) { return scenario.Run(s) }

// LoadCampaign reads a campaign spec file.
func LoadCampaign(path string) (*CampaignSpec, error) { return campaign.LoadFile(path) }

// RunCampaign expands a campaign matrix and executes it on a bounded
// worker pool; the aggregated report is identical for any worker
// count.
func RunCampaign(spec *CampaignSpec, opts CampaignOptions) (*CampaignReport, error) {
	return campaign.Run(spec, opts)
}

// CompileRow is one compiler scalability measurement (Figs 9/10).
type CompileRow struct {
	Topology    string
	Switches    int
	Policy      string
	CompileTime time.Duration
	MaxStateKB  float64
	MeanStateKB float64
	PGNodes     int
	TagBits     int
	Pids        int
}

// CompileSweep measures compile time and switch state across
// topologies and policies (Figures 9 and 10). The policies map names
// (MU/WP/CA) to source generators given the topology; rows come out in
// topology order, policies by name.
func CompileSweep(topos []*Topology, policies map[string]func(*Topology) string) ([]CompileRow, error) {
	names := make([]string, 0, len(policies))
	for name := range policies {
		names = append(names, name)
	}
	sort.Strings(names)
	var rows []CompileRow
	for _, g := range topos {
		for _, name := range names {
			p, err := CompileSource(policies[name](g), g)
			if err != nil {
				return nil, fmt.Errorf("%s on %s: %w", name, g.Name, err)
			}
			st := p.compiled.Stats
			rows = append(rows, CompileRow{
				Topology:    g.Name,
				Switches:    len(g.Switches()),
				Policy:      name,
				CompileTime: st.CompileTime,
				MaxStateKB:  float64(st.MaxStateBytes) / 1000,
				MeanStateKB: st.MeanStateBytes / 1000,
				PGNodes:     st.PGNodes,
				TagBits:     st.TagBits,
				Pids:        st.Pids,
			})
		}
	}
	return rows, nil
}

// StandardPolicies returns the MU / WP / CA policy generators used by
// the scalability experiments (§6.2): minimum utilization, a
// three-waypoint policy, and the non-isotonic congestion-aware policy.
func StandardPolicies() map[string]func(*Topology) string {
	return map[string]func(*Topology) string{
		"MU": func(*Topology) string { return "minimize(path.util)" },
		"WP": func(g *Topology) string {
			names := g.SortedNames()
			k := len(names) / 2
			w1, w2, w3 := names[k], names[k/2], names[len(names)-1]
			return fmt.Sprintf("minimize(if .* (%s + %s + %s) .* then path.util else inf)", w1, w2, w3)
		},
		"CA": func(*Topology) string {
			return "minimize(if path.util < .8 then (1, 0, path.util) else (2, path.len, path.util))"
		},
	}
}
