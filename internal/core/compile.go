// Package core is the Contra compiler: it analyzes a policy jointly
// with a topology (§4) and produces per-switch data-plane programs that
// collectively implement the specialized distance-vector protocol —
// tag transition tables, probe multicast trees, probe origination
// specs, and the table schemas the runtime populates. It also accounts
// for switch state (Figure 10) and emits P4-16 source mirroring the
// paper's artifact.
package core

import (
	"fmt"
	"math/bits"
	"slices"
	"sync"
	"time"

	"contra/internal/analysis"
	"contra/internal/pg"
	"contra/internal/policy"
	"contra/internal/topo"
)

// Options are the protocol settings of a run. This is their one
// declaration: scenario.Scenario and campaign.Spec embed the struct, so
// the JSON keys below are the spec-file keys of both formats, and the
// decoded value travels unchanged to the compiler (Contra) and to
// baseline.NewHula. The static-table schemes (ecmp, sp, spain) send no
// probes and pin no flowlets, and read none of them. Fill supplies the
// defaults.
type Options struct {
	// ProbePeriodNs is the probe period (contra, hula). 0 derives it
	// from the topology per §5.2 (>= 0.5 x worst-case RTT); scenarios
	// never leave it 0, they default to the paper's 256us (§6.3).
	ProbePeriodNs int64 `json:"probe_period_ns,omitempty"`

	// FlowletTimeoutNs is the flowlet gap after which a new flowlet
	// starts (contra, hula); 0 uses the paper's 200us.
	FlowletTimeoutNs int64 `json:"flowlet_timeout_ns,omitempty"`

	// FailureDetectPeriods is k: a link with no probe for k periods is
	// considered failed (§5.4). 0 uses 3. Contra only: HULA ages every
	// (destination, port) at a fixed 3 periods, as its design does, and
	// ignores this setting.
	FailureDetectPeriods int `json:"failure_detect_periods,omitempty"`

	// ProbePacking enables multi-origin probe packing (§5.2 overhead
	// reduction; contra, hula): a switch that would emit N per-origin
	// probes on a port in one period instead emits a single packed probe
	// carrying N entries, and defers transit re-advertisement to a once-
	// per-period flush. Off by default; the unpacked protocol is
	// byte-identical to pre-packing builds.
	ProbePacking bool `json:"probe_packing,omitempty"`

	// SuppressEps enables delta suppression when > 0 (or when
	// RefreshEvery is set; contra, hula): a switch skips re-advertising
	// an origin whose route is unchanged and whose metric vector moved
	// by at most SuppressEps per component since the last
	// advertisement. 0 with RefreshEvery set suppresses exact repeats
	// only.
	SuppressEps float64 `json:"suppress_eps,omitempty"`

	// RefreshEvery bounds suppression staleness: every entry is
	// re-advertised at least once every RefreshEvery probe periods
	// regardless of SuppressEps. Setting it (or SuppressEps) turns
	// suppression on; 0 with SuppressEps > 0 defaults to 4.
	RefreshEvery int `json:"refresh_every,omitempty"`
}

// LoopTTLDelta is the TTL spread one packet hash may show before the
// loop breaker fires (§5.5, contra).
const LoopTTLDelta = 4

// MaxRankWidth is the most components a policy's rank may have: a
// switch's FwdT register records its cached rank's length in one byte.
const MaxRankWidth = 255

// Fill applies the defaults in place; it is idempotent. Compile and
// baseline.DeployHula call it, so every scheme reads the same filled
// values.
func (o *Options) Fill(t *topo.Graph) {
	if o.ProbePeriodNs == 0 {
		min := t.MaxSwitchRTT() / 2
		if min < 50_000 {
			min = 50_000 // 50us floor for tiny topologies
		}
		o.ProbePeriodNs = min
	}
	if o.FlowletTimeoutNs == 0 {
		o.FlowletTimeoutNs = 200_000 // 200us (§6.1)
	}
	if o.FailureDetectPeriods == 0 {
		o.FailureDetectPeriods = 3
	}
	if o.SuppressEps > 0 && o.RefreshEvery == 0 {
		o.RefreshEvery = 4
	}
}

// SuppressOn reports whether delta suppression is enabled. After Fill,
// SuppressEps > 0 implies RefreshEvery > 0, so the forced-refresh knob
// alone decides.
func (o *Options) SuppressOn() bool { return o.RefreshEvery > 0 }

// SuppressSlack is the number of probe periods by which suppression
// stretches an aging horizon (after Fill). Suppression legitimately
// quiets re-advertisements, and the quiet window compounds across a
// hop: an upstream's forced refresh arriving just inside this switch's
// own refresh horizon is suppressed, so consecutive advertisements can
// be nearly 2x RefreshEvery periods apart. A horizon that did not
// stretch by that bound would expire suppressed-but-alive routes.
func (o *Options) SuppressSlack() int64 { return 2 * int64(o.RefreshEvery) }

// SwitchProgram is the compiled artifact for one switch: everything the
// data-plane runtime needs that is static for a given policy+topology,
// besides what the product graph and Compiled.ProbeOut hold: a probe
// carrying the tag of neighbor virtual node u puts this switch in the
// virtual node v of VNodes with u in PG.In(v), NEXTPGNODE of Figure 7,
// and v's probes multicast to ProbeOut(v).
type SwitchProgram struct {
	Switch topo.NodeID

	// VNodes are this switch's virtual nodes (product graph states) in
	// local tag order: the product graph's read-only window.
	VNodes []pg.NodeID

	// Origin, when non-nil, makes this switch originate probes.
	Origin *OriginSpec

	// ReachableOrigins counts destinations whose probes can reach this
	// switch (sizes FwdT; the paper's "minimizing the forwarding table
	// sizes" optimization).
	ReachableOrigins int
}

// OriginSpec describes probe origination for a destination switch.
type OriginSpec struct {
	VNode pg.NodeID // the probe-sending state (§4.1)
	Pids  []int     // one probe per pid per period
}

// Compiled is the full compilation result.
type Compiled struct {
	Topo     *topo.Graph
	Policy   *policy.Policy
	Analysis *analysis.Result
	PG       *pg.Graph
	Opts     Options
	Stats    Stats

	// programs holds every switch's program in Topo.Switches() order,
	// their OriginSpecs in one slab behind them; programOf[id] is switch
	// id's position in programs, -1 for a host.
	programs  []SwitchProgram
	programOf []int32

	// probePorts[probeOff[v]:probeOff[v+1]] are the egress ports virtual
	// node v's probes multicast to — one per product graph out-edge —
	// ascending.
	probeOff   []int32
	probePorts []int

	// OriginOrd[id] is the dense ordinal of origin id — a switch that
	// originates probes, so a destination FwdT and BestT can hold a route
	// to — counted in Topo.Switches() order, and -1 for every other node;
	// NumOrigins is how many origins there are and Origins lists them by
	// ordinal. Switch register files are indexed by it, so they hold rows
	// for origins only, not for every NodeID (hosts included).
	OriginOrd  []int32
	NumOrigins int
	Origins    []topo.NodeID

	// The policy-wide part of the P4 programs, rendered by the first
	// GenerateP4 call.
	p4Once sync.Once
	p4Tmpl p4Template
}

// Stats reports compile-time measurements (Figures 9 and 10).
type Stats struct {
	CompileTime     time.Duration
	SwitchCount     int
	PGNodes         int
	TagBits         int
	Pids            int
	MVWidth         int
	ProbeBytes      int   // wire size of one probe
	StateBytes      []int // by topo.NodeID, 0 for hosts
	MaxStateBytes   int
	MeanStateBytes  float64
	TotalStateBytes int
}

// Compile runs the full pipeline: analysis, product graph, per-switch
// program generation, and state accounting.
func Compile(t *topo.Graph, pol *policy.Policy, opts Options) (*Compiled, error) {
	start := time.Now()
	opts.Fill(t)

	if pol.Width > MaxRankWidth {
		return nil, fmt.Errorf("core: policy ranks have %d components, a switch register holds at most %d", pol.Width, MaxRankWidth)
	}
	res, err := analysis.Analyze(pol)
	if err != nil {
		return nil, err
	}
	graph, err := pg.Build(t, pol)
	if err != nil {
		return nil, err
	}
	if graph.NumNodes() == 0 {
		return nil, fmt.Errorf("core: policy %q admits no path on topology %s (every virtual node pruned)",
			pol.String(), t.Name)
	}

	switches := t.Switches()
	c := &Compiled{
		Topo:     t,
		Policy:   pol,
		Analysis: res,
		PG:       graph,
		Opts:     opts,

		OriginOrd: make([]int32, t.NumNodes()),
		programs:  make([]SwitchProgram, len(switches)),
		programOf: make([]int32, t.NumNodes()),
	}
	for i := range c.OriginOrd {
		c.OriginOrd[i], c.programOf[i] = -1, -1
	}

	pids := make([]int, res.NumPids())
	for i := range pids {
		pids[i] = i
	}
	for _, x := range switches {
		if _, ok := c.originState(x); ok {
			c.NumOrigins++
		}
	}
	origins := make([]OriginSpec, 0, c.NumOrigins)
	c.Origins = make([]topo.NodeID, 0, c.NumOrigins)
	for i, x := range switches {
		sp := &c.programs[i]
		*sp = SwitchProgram{Switch: x, VNodes: graph.VirtualNodes(x)}
		c.programOf[x] = int32(i)
		if send, ok := c.originState(x); ok {
			c.OriginOrd[x] = int32(len(origins))
			origins = append(origins, OriginSpec{VNode: send, Pids: pids})
			sp.Origin = &origins[len(origins)-1]
			c.Origins = append(c.Origins, x)
		}
	}
	c.layoutProbeOut()

	c.countReachability()
	c.accountState()
	c.Stats.CompileTime = time.Since(start)
	c.Stats.SwitchCount = len(c.programs)
	c.Stats.PGNodes = graph.NumNodes()
	c.Stats.TagBits = graph.TagBits()
	c.Stats.Pids = res.NumPids()
	c.Stats.MVWidth = len(res.MV)
	c.Stats.ProbeBytes = c.probeWireBytes()
	return c, nil
}

// Originates reports whether switch x of t may originate probes: data
// only ever targets the switch a host attaches to, so only those
// switches are destinations, except on a graph with no hosts, where
// every switch is. A switch that may originate does so when the product
// graph gives it a probe-sending state.
func Originates(t *topo.Graph, x topo.NodeID) bool {
	if len(t.Hosts()) == 0 {
		return true
	}
	for _, p := range t.Ports(x) {
		if t.Node(p.Peer).Kind == topo.Host {
			return true
		}
	}
	return false
}

// originState is switch x's probe-sending state when x is an origin.
// It is the one origin rule: NumOrigins, the OriginOrd ordinals and
// countReachability all go through it.
func (c *Compiled) originState(x topo.NodeID) (pg.NodeID, bool) {
	if !Originates(c.Topo, x) {
		return 0, false
	}
	return c.PG.SendState(x)
}

// Switch returns switch x's program, or nil when x is a host or no node
// of the compiled topology.
func (c *Compiled) Switch(x topo.NodeID) *SwitchProgram {
	if uint(x) >= uint(len(c.programOf)) || c.programOf[x] < 0 {
		return nil
	}
	return &c.programs[c.programOf[x]]
}

// ProbeOut returns the egress ports, ascending, that virtual node v's
// probes multicast to: the ports toward its product graph successors.
// The slice must not be modified.
func (c *Compiled) ProbeOut(v pg.NodeID) []int {
	hi := c.probeOff[v+1]
	return c.probePorts[c.probeOff[v]:hi:hi]
}

// layoutProbeOut fills probeOff and probePorts, virtual node by virtual
// node.
func (c *Compiled) layoutProbeOut() {
	n := c.PG.NumNodes()
	c.probeOff = make([]int32, n+1)
	c.probePorts = make([]int, 0, c.PG.NumEdges())
	for v := pg.NodeID(0); int(v) < n; v++ {
		x := c.PG.Node(v).Topo
		for _, u := range c.PG.Out(v) {
			if port := c.Topo.PortTo(x, c.PG.Node(u).Topo); port >= 0 {
				c.probePorts = append(c.probePorts, port)
			}
		}
		slices.Sort(c.probePorts[c.probeOff[v]:])
		c.probeOff[v+1] = int32(len(c.probePorts))
	}
}

// countReachability computes, per switch, how many origins' probes can
// reach it. Origins are taken in Topo.Switches() order, 64 to a block;
// one pass per block propagates a 64-bit origin set per virtual node
// along the product graph's out-edges. reach[v] starts as the bits of
// the origins whose probe-sending state v is, and a node goes back on
// the FIFO worklist only when a predecessor's set adds bits to its own.
// Sets only grow, so a pass ends, and at its end reach[v] is the union
// of what one traversal per origin would have visited. A switch ORs its
// virtual nodes' sets — an origin heard on several of them counts once
// — and adds the popcount. The cost is ⌈origins/64⌉ passes over the
// product graph, not one per origin.
func (c *Compiled) countReachability() {
	n := c.PG.NumNodes()
	reach := make([]uint64, n)
	queued := make([]bool, n)
	ring := make([]pg.NodeID, n) // each node is queued at most once at a time
	count := make([]int, c.Topo.NumNodes())

	switches := c.Topo.Switches()
	for lo := 0; lo < len(switches); lo += 64 {
		block := switches[lo:min(lo+64, len(switches))]
		clear(reach)
		head, size := 0, 0
		for bit, x := range block {
			send, ok := c.originState(x)
			if !ok {
				continue
			}
			reach[send] |= 1 << bit
			if !queued[send] {
				queued[send] = true
				ring[(head+size)%n] = send
				size++
			}
		}
		for size > 0 {
			v := ring[head]
			head = (head + 1) % n
			size--
			queued[v] = false
			r := reach[v]
			for _, u := range c.PG.Out(v) {
				if r&^reach[u] == 0 {
					continue
				}
				reach[u] |= r
				if !queued[u] {
					queued[u] = true
					ring[(head+size)%n] = u
					size++
				}
			}
		}
		for _, x := range switches {
			var heard uint64
			for _, v := range c.PG.VirtualNodes(x) {
				heard |= reach[v]
			}
			count[x] += bits.OnesCount64(heard)
		}
	}
	for i := range c.programs {
		c.programs[i].ReachableOrigins = count[c.programs[i].Switch]
	}
}

// Recompile compiles a new policy source against the same topology and
// options as c — the runtime-update entry point. Policy hot-swap uses
// it so a mid-run recompilation is guaranteed to produce an artifact
// the running fabric can install: same switches, same probe period,
// same protocol knobs, only the policy (and hence the product graph,
// tag space and probe layout) changes.
func (c *Compiled) Recompile(src string) (*Compiled, error) {
	pol, err := policy.Parse(src, policy.ParseOptions{Symbols: c.Topo.SortedNames()})
	if err != nil {
		return nil, err
	}
	return Compile(c.Topo, pol, c.Opts)
}

// ProbePeriod returns the configured probe period.
func (c *Compiled) ProbePeriod() time.Duration {
	return time.Duration(c.Opts.ProbePeriodNs)
}

// probeWireBytes estimates the wire size of one probe: origin (2B),
// pid (1B), version (2B), tag (tag bits rounded up), plus 2 bytes per
// metric — matching the compact fixed-point encodings data planes use.
func (c *Compiled) probeWireBytes() int {
	tagBytes := (c.PG.TagBits() + 7) / 8
	if tagBytes == 0 {
		tagBytes = 1
	}
	return 2 + 1 + 2 + tagBytes + 2*len(c.Analysis.MV)
}

// packedProbeHeaderBytes is the fixed overhead of one packed probe: a
// 2-byte entry count plus a 2-byte era/flags word. The per-entry
// payload reuses Stats.ProbeBytes, so packing amortizes both the L2
// framing and this header across every origin advertised on the port.
const packedProbeHeaderBytes = 4

// PackedProbeBytes returns the payload wire size of a packed probe
// carrying n per-origin entries (n may be 0: a liveness heartbeat).
func (c *Compiled) PackedProbeBytes(n int) int {
	return packedProbeHeaderBytes + n*c.Stats.ProbeBytes
}

// Describe renders a human-readable compilation report.
func (c *Compiled) Describe() string {
	s := c.Stats
	return fmt.Sprintf(
		"compiled %q on %s\n  %s\n  pids=%d mv=%v tagBits=%d probeBytes=%d\n  state: max=%dB mean=%.0fB total=%dB\n  probe period=%v flowlet timeout=%v\n",
		c.Policy.String(), c.Topo.String(), c.PG.String(),
		s.Pids, c.Analysis.MV, s.TagBits, s.ProbeBytes,
		s.MaxStateBytes, s.MeanStateBytes, s.TotalStateBytes,
		time.Duration(c.Opts.ProbePeriodNs), time.Duration(c.Opts.FlowletTimeoutNs))
}
