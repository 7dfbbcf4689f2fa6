package baseline

import (
	"fmt"

	"contra/internal/core"
	"contra/internal/metrics"
	"contra/internal/pintable"
	"contra/internal/sim"
	"contra/internal/slab"
	"contra/internal/topo"
	"contra/internal/trace"
)

// Hula reimplements HULA (Katta et al., SOSR 2016): utilization-aware
// load balancing specialized to Clos/fat-tree topologies. Every
// top-of-rack (edge) switch floods a probe per period along up-down
// paths; switches remember the best (least-utilized) next hop toward
// every ToR and pin flowlets to it. Unlike Contra it relies on the
// tree structure for loop freedom and path exploration, which is
// exactly the generality gap the paper highlights.
type Hula struct {
	base
	periodNs  int64
	flowletNs int64
	ageNs     int64

	level     int   // this switch's tier: 0 edge, 1 agg, 2 core
	peerLevel []int // tier of the switch behind each local port

	// Probe-learned state is laid out as register arrays, the way a
	// hardware HULA switch keeps it: one row per origin — an edge
	// switch, the only kind that originates probes — indexed by its
	// ordinal in origins (zero until the origin is first heard from),
	// and the per-(origin, port) freshness stamps flat beside it. The
	// flowlet table is an exact-match table keyed by destination and
	// flow hash.
	origins *hulaOrigins
	rows    []hulaRow
	// updatedVia[o*ports+port] tracks freshness per (origin ordinal o,
	// port): a flowlet pinned to a port whose probes stopped must
	// expire even while the destination stays reachable through other
	// ports. viaNever marks a pair no probe has ever arrived on.
	updatedVia []int64
	ports      int

	flowlets pintable.Table
	probeSz  int32

	// Probe aggregation (mirroring the Contra data plane, so scheme
	// comparisons stay apples to apples): packing defers transit
	// re-advertisement to a per-period flush emitting one packed
	// multi-origin probe per eligible port (with heartbeats on quiet
	// fabric ports); suppression skips re-advertising origins whose
	// best port and utilization are unchanged within eps, with a
	// forced refresh every refreshNs.
	packing    bool
	suppressOn bool
	eps        float64
	refreshNs  int64
	// pendList holds the ordinals of the origins with a pending row, in
	// flush order. A row is pending at most once per flush, so the list
	// is sized at attach, one slot per origin, and never grows.
	pendList []int32

	// slabs holds the deploy's tables this router takes its windows
	// from; nil for a router attached on its own.
	slabs *hulaSlabs

	// tr, when non-nil, records fresh flowlet decisions at the
	// decisions trace level: HULA's rank is its scalar path
	// utilization, emitted as a one-element vector.
	tr *trace.Recorder

	// mx, when non-nil, accumulates probe-table churn and route flaps
	// for the metrics sampler (mirroring the Contra data plane so
	// scheme comparisons stay apples to apples).
	mx *metrics.Churn
}

// SetTracer attaches a decision-trace recorder (nil detaches).
func (r *Hula) SetTracer(t *trace.Recorder) { r.tr = t }

// SetChurn attaches this router's churn accumulator (nil detaches).
func (r *Hula) SetChurn(ch *metrics.Churn) { r.mx = ch }

// hulaRow is everything one switch knows about one origin ToR. The
// zero row is "never heard from": bestPort, bestUtil and updated read
// as 0 exactly as a missing map key did, and the have/pending/advValid
// bits stand for key presence where presence was tested.
type hulaRow struct {
	have bool // a probe from this origin has been accepted

	// pending: a re-advertisement is queued for the packed flush, with
	// the latest propagated utilization (pendUtil) and the probe-path
	// state it arrived with (pendUp, pendIn).
	pending bool
	pendUp  bool

	// advValid: adv* hold what was last re-advertised (suppression).
	advValid bool

	// Fields ordered by size: 56 bytes a row.
	bestPort int32
	pendIn   int32
	advPort  int32
	bestUtil float64
	updated  int64
	pendUtil float64
	advUtil  float64
	advAt    int64
}

// hulaOrigins numbers HULA's probe origins, the edge switches, densely
// in Switches() order, the way core.Compiled.OriginOrd numbers Contra's.
// Register rows are indexed by ordinal, so a switch holds rows for the
// origins only, not for every node; DeployHula builds one value and
// every switch of the fabric shares it.
type hulaOrigins struct {
	ord []int32       // by NodeID up to the last origin: the origin ordinal, -1 for every other node
	ids []topo.NodeID // by ordinal
}

func newHulaOrigins(g *topo.Graph) *hulaOrigins {
	o := &hulaOrigins{}
	o.number(g)
	return o
}

// number fills o for g, in o's own arrays where they are large enough.
func (o *hulaOrigins) number(g *topo.Graph) {
	o.ids = o.ids[:0]
	for _, s := range g.Switches() {
		if g.Node(s).Role == topo.RoleEdge {
			o.ids = append(o.ids, s)
		}
	}
	o.ord = o.ord[:0]
	if len(o.ids) > 0 {
		o.ord = slab.Reuse(o.ord, int(o.ids[len(o.ids)-1]+1)) // Switches() ascends
	}
	for i := range o.ord {
		o.ord[i] = -1
	}
	for i, s := range o.ids {
		o.ord[s] = int32(i)
	}
}

// hulaSlabs is one deploy's HULA tables, one array each; every switch's
// Attach takes its windows in attach order.
type hulaSlabs struct {
	peerLevel []int
	rows      []hulaRow
	via       []int64
	pend      []int32
}

// viaNever is the updatedVia stamp of a (destination, port) pair no
// probe has arrived on: stale at every time, including t = 0.
const viaNever = -1

// hulaAgePeriods is HULA's aging horizon in probe periods: a
// (destination, port) pair not refreshed for this long is presumed
// failed. It is fixed by HULA's design; Contra's
// failure_detect_periods setting does not reach it.
const hulaAgePeriods = 3

// NewHula builds one HULA switch router from the run's protocol
// settings, defaults already applied (core.Options.Fill) — the same
// value Contra compiles with, so scheme comparisons run on identical
// settings by construction.
func NewHula(o core.Options) *Hula {
	r := newHula(o)
	return &r
}

func newHula(o core.Options) Hula {
	return Hula{
		periodNs:   o.ProbePeriodNs,
		flowletNs:  o.FlowletTimeoutNs,
		ageNs:      (hulaAgePeriods+o.SuppressSlack())*o.ProbePeriodNs + o.ProbePeriodNs,
		probeSz:    64,
		packing:    o.ProbePacking,
		suppressOn: o.SuppressOn(),
		eps:        o.SuppressEps,
		refreshNs:  int64(o.RefreshEvery) * o.ProbePeriodNs,
	}
}

// DeployHula installs HULA on every switch, filling opts' defaults
// first. The topology must carry Clos roles (edge/agg/core), as
// produced by topo.Fattree and topo.LeafSpine. The routers are one
// slab, and each one's tables are windows of the deploy's, laid out in
// what the last released deploy handed on (deployState).
func DeployHula(n *sim.Network, opts core.Options) map[topo.NodeID]*Hula {
	g := n.Topo
	opts.Fill(g)
	st := sim.Reuse[deployState](n)
	origins := &st.origins
	origins.number(g)
	switches := g.Switches()
	ports := 0
	for _, s := range switches {
		ports += len(g.Ports(s))
	}
	rows := len(switches) * len(origins.ids)
	t := &st.hulaTabs
	t.peerLevel = slab.Reuse(t.peerLevel, ports)
	t.rows = slab.Reuse(t.rows, rows)
	t.via = slab.Reuse(t.via, ports*len(origins.ids))
	t.pend = slab.Reuse(t.pend, rows)
	slabs := new(hulaSlabs) // the routers take their windows from a copy
	*slabs = *t
	st.hula = slab.Keep(st.hula, len(switches))
	routers := make(map[topo.NodeID]*Hula, len(switches))
	for i, s := range switches {
		r := &st.hula[i]
		pins := r.flowlets
		pins.Reset()
		*r = newHula(opts)
		r.flowlets = pins
		r.origins = origins
		r.slabs = slabs
		routers[s] = r
		n.SetRouter(s, r)
	}
	return routers
}

func roleLevel(r topo.Role) int {
	switch r {
	case topo.RoleEdge:
		return 0
	case topo.RoleAgg:
		return 1
	case topo.RoleCore:
		return 2
	}
	return -1
}

// CheckHulaTopology reports whether HULA can run on g: its probes climb
// and descend by switch role, so every switch needs a Clos role, as
// topo.Fattree and topo.LeafSpine give them. Attach panics on a switch
// without one; a caller that builds topologies from user input checks
// first.
func CheckHulaTopology(g *topo.Graph) error {
	for _, s := range g.Switches() {
		if roleLevel(g.Node(s).Role) < 0 {
			return fmt.Errorf("HULA needs a Clos topology with switch roles (edge, agg, core); switch %q has none", g.Node(s).Name)
		}
	}
	return nil
}

// Attach implements sim.Router.
func (r *Hula) Attach(sw *sim.SwitchDev) {
	r.init(sw)
	g := sw.Net.Topo
	r.level = roleLevel(g.Node(sw.ID).Role)
	if r.level < 0 {
		// Every switch attaches, so checking our own role covers all.
		panic("baseline: HULA requires a Clos topology with switch roles")
	}
	if r.origins == nil {
		// A router attached on its own, not through DeployHula: its
		// tables are its own.
		r.origins = newHulaOrigins(g)
		r.slabs = &hulaSlabs{}
	}
	ports := g.Ports(sw.ID)
	r.peerLevel = slab.Take(&r.slabs.peerLevel, len(ports))
	for i, p := range ports {
		if g.Node(p.Peer).Kind == topo.Switch {
			r.peerLevel[i] = roleLevel(g.Node(p.Peer).Role)
		}
	}
	r.ports = len(ports)
	origins := len(r.origins.ids)
	r.rows = slab.Take(&r.slabs.rows, origins)
	r.updatedVia = slab.Take(&r.slabs.via, origins*r.ports)
	r.pendList = slab.Take(&r.slabs.pend, origins)[:0]
	r.resetTables()
	offset := (int64(sw.ID) * 7919) % r.periodNs
	if r.packing {
		// Every switch flushes once per period; edge origination rides
		// the packed flush instead of a separate probe burst.
		sw.Net.Eng.Every(offset, r.periodNs, (*hulaFlush)(r))
		return
	}
	if g.Node(sw.ID).Role == topo.RoleEdge {
		sw.Net.Eng.Every(offset, r.periodNs, (*hulaOriginate)(r))
	}
}

// The router's recurring timers are its own pointer under one name per
// timer, so starting one allocates nothing (see sim.Ticker).
type (
	hulaFlush     Hula
	hulaOriginate Hula
)

func (t *hulaFlush) Tick()     { (*Hula)(t).flush() }
func (t *hulaOriginate) Tick() { (*Hula)(t).originate() }

var _ sim.Rebooter = (*Hula)(nil)

// Reboot implements sim.Rebooter: a HULA switch coming back from a
// whole-node failure restarts with its soft state (best-hop tables,
// probe freshness, flowlet pins) flushed, paying the same cold-start
// warm-up Contra pays — chaos scheme comparisons stay apples to
// apples. The tier levels are topology knowledge, not learned state,
// so they survive.
func (r *Hula) Reboot() {
	r.resetTables()
	r.flowlets.Reset()
}

// resetTables returns the register arrays to "never heard from".
func (r *Hula) resetTables() {
	clear(r.rows)
	for i := range r.updatedVia {
		r.updatedVia[i] = viaNever
	}
	r.pendList = r.pendList[:0]
}

// ord is origin's ordinal: the index of its register row. Origins come
// off packets, and where a map lookup with a bad key missed, an array
// index would panic: anything that is not an origin — a node id past
// the topology, a host, a switch that is no edge — yields -1, which
// every caller treats as that miss.
func (r *Hula) ord(origin topo.NodeID) int32 {
	if uint32(origin) >= uint32(len(r.origins.ord)) {
		return -1
	}
	return r.origins.ord[origin]
}

// row returns the register row of origin ordinal o, or nil for -1.
func (r *Hula) row(o int32) *hulaRow {
	if o < 0 {
		return nil
	}
	return &r.rows[o]
}

// originate floods a fresh probe from this ToR upward.
func (r *Hula) originate() {
	for port := 0; port < r.sw.PortCount(); port++ {
		if !r.sw.IsSwitchPort(port) {
			continue
		}
		p := r.sw.Net.NewPacket()
		p.Kind = sim.Probe
		p.Size = r.probeSz
		p.Origin = r.sw.ID
		p.Up = true
		p.TTL = sim.InitialTTL
		r.sw.Send(port, p)
	}
}

// Handle implements sim.Router.
func (r *Hula) Handle(pkt *sim.Packet, inPort int) {
	if pkt.Kind == sim.Probe {
		if pkt.IsPacked() {
			r.handlePacked(pkt, inPort)
		} else {
			r.handleProbe(pkt, inPort)
		}
		return
	}
	dstEdge, ok := r.pre(pkt)
	if !ok {
		return
	}
	now := r.sw.Now()
	// The flowlet key's fid must be direction-sensitive so a flow's
	// data and its acks never share an entry (see dataplane package).
	fid := uint32(flowHash(pkt.FlowID ^ uint64(pkt.Dst)<<40))
	key := pintable.Used | uint64(dstEdge)<<32 | uint64(fid)
	o := r.ord(dstEdge)
	fe := r.flowlets.Find(key)
	if fe != nil && now-fe.LastPkt < r.flowletNs && !r.stale(o, int(fe.Port), now) {
		fe.LastPkt = now
		r.sw.Send(int(fe.Port), pkt)
		return
	}
	port, ok := r.bestFresh(o, now)
	if !ok {
		r.sw.Drop(pkt, sim.DropNoRoute)
		return
	}
	if r.tr != nil && pkt.Kind == sim.Data && r.tr.DecisionsOn() {
		r.recordDecision(pkt, inPort, o, port, now)
	}
	// Nothing since Find touched the table, so a timed-out flowlet is
	// re-decided where it sits.
	if fe == nil {
		fe = r.flowlets.Claim(key)
	}
	fe.Port = int32(port)
	fe.LastPkt = now
	r.sw.Send(port, pkt)
}

// recordDecision feeds one fresh HULA flowlet decision toward the
// origin with ordinal o to the tracer. The rank vector is HULA's
// scalar: the best-known path utilization toward the destination ToR;
// the runner-up is the least-utilized other fresh port, mirroring
// bestFresh's fallback scan.
func (r *Hula) recordDecision(pkt *sim.Packet, inPort int, o int32, port int, now int64) {
	kind := "transit"
	if r.sw.IsHostPort(inPort) {
		kind = "source"
	}
	chosen := r.sw.TxUtil(port)
	if row := r.row(o); row != nil && row.have && int(row.bestPort) == port {
		chosen = row.bestUtil
	}
	rPort := -1
	var rRank []float64
	var rBuf [1]float64
	rBest := 2.0
	for p := 0; p < r.sw.PortCount(); p++ {
		if p == port || !r.sw.IsSwitchPort(p) {
			continue
		}
		if !r.stale(o, p, now) {
			if u := r.sw.TxUtil(p); rPort < 0 || u < rBest {
				rPort, rBest = p, u
			}
		}
	}
	if rPort >= 0 {
		rBuf[0] = rBest
		rRank = rBuf[:]
	}
	var cBuf [1]float64
	cBuf[0] = chosen
	r.tr.Decision(now, pkt.FlowID, r.sw.Name(), kind, port, cBuf[:], rPort, rRank, 0, 0)
}

// stale reports whether routing toward the origin with ordinal o via
// port relies on information older than the aging threshold: probes on
// that port have stopped, so the port is presumed failed for this
// destination. Every port is stale toward the -1 of a miss.
func (r *Hula) stale(o int32, port int, now int64) bool {
	if o < 0 {
		return true
	}
	last := r.updatedVia[int(o)*r.ports+port]
	return last == viaNever || now-last > r.ageNs
}

// bestFresh is the port toward the origin with ordinal o (or the -1 of
// a miss) that HULA forwards a new flowlet on, if any port is fresh.
func (r *Hula) bestFresh(o int32, now int64) (int, bool) {
	row := r.row(o)
	if row == nil {
		return 0, false
	}
	port := int(row.bestPort)
	if !row.have || now-row.updated > r.ageNs || r.stale(o, port, now) {
		// The recorded best went stale; fall back to any fresh port.
		// Only the port and its stamp move: bestUtil keeps the last
		// accepted probe's value until the next accept.
		bestUtil := 2.0
		found := false
		for p := 0; p < r.sw.PortCount(); p++ {
			if !r.sw.IsSwitchPort(p) || r.stale(o, p, now) {
				continue
			}
			u := r.sw.TxUtil(p)
			if !found || u < bestUtil {
				bestUtil = u
				port = p
				found = true
			}
		}
		if !found {
			return 0, false
		}
		if r.mx != nil && row.have && int(row.bestPort) != port {
			r.mx.Flaps++
		}
		row.bestPort = int32(port)
		row.updated = now
		return port, true
	}
	return port, true
}

// handleProbe applies HULA's update rule and the up-down propagation
// constraint.
func (r *Hula) handleProbe(pkt *sim.Packet, inPort int) {
	if pkt.Origin == r.sw.ID {
		r.sw.Net.Free(pkt)
		return
	}
	now := r.sw.Now()
	// Path utilization toward the origin via inPort: max of probe's
	// bottleneck and our transmit utilization on that port.
	util := pkt.MV[0]
	if u := r.sw.TxUtil(inPort); u > util {
		util = u
	}
	o := r.ord(pkt.Origin)
	if o < 0 {
		r.sw.Net.CountRegisterMiss()
		r.sw.Drop(pkt, sim.DropProbeNoTrans)
		return
	}
	row := &r.rows[o]
	accepted, goingUpStill := r.acceptProbe(row, o, util, pkt.Up, inPort, now)
	if !accepted {
		r.sw.Net.Free(pkt)
		return
	}
	if r.suppressOn && r.suppressAdvert(row, now) {
		r.sw.Net.CountProbeSuppressed(1)
		// Count the re-multicasts this skip avoids, mirroring the
		// Contra data plane's accounting so scheme comparisons of
		// probe_tx_saved stay apples to apples.
		saved := int64(0)
		for port := 0; port < r.sw.PortCount(); port++ {
			if _, ok := r.eligiblePort(port, inPort, goingUpStill); ok {
				saved++
			}
		}
		if saved > 0 {
			r.sw.Net.CountProbeSaved(saved)
		}
		r.sw.Net.Free(pkt)
		return
	}
	if r.suppressOn {
		recordAdvert(row, now)
	}
	pkt.MV[0] = util
	for port := 0; port < r.sw.PortCount(); port++ {
		up, ok := r.eligiblePort(port, inPort, goingUpStill)
		if !ok {
			continue
		}
		cp := r.sw.Net.Clone(pkt)
		cp.Up = up
		r.sw.Send(port, cp)
	}
	r.sw.Net.Free(pkt)
}

// acceptProbe runs HULA's update rule for one origin advertisement
// (row is the register row of origin ordinal o) and reports whether it
// was accepted plus the outgoing propagation state.
func (r *Hula) acceptProbe(row *hulaRow, o int32, util float64, up bool, inPort int, now int64) (accepted, goingUpStill bool) {
	r.updatedVia[int(o)*r.ports+inPort] = now
	fresh := now-row.updated <= r.ageNs
	in := int32(inPort)
	if row.have && fresh && util >= row.bestUtil && row.bestPort != in {
		return false, false
	}
	if r.mx != nil {
		switch {
		case !row.have:
			r.mx.Added++
		case !fresh:
			r.mx.Expired++
			if row.bestPort != in {
				r.mx.Flaps++
			}
		case row.bestPort != in:
			r.mx.Replaced++
			r.mx.Flaps++
		}
	}
	row.have = true
	row.bestUtil = util
	row.bestPort = in
	row.updated = now
	// Propagate along reverse up-down paths: a probe that has started
	// descending (arrived from a switch above us) may only continue
	// descending.
	return true, up && r.peerLevel[inPort] < r.level
}

// eligiblePort reports whether a re-advertisement may leave on port
// under the up-down constraint, and whether it keeps traveling upward.
func (r *Hula) eligiblePort(port, inPort int, goingUpStill bool) (up, ok bool) {
	if port == inPort || !r.sw.IsSwitchPort(port) {
		return false, false
	}
	down := r.peerLevel[port] < r.level
	upward := r.peerLevel[port] > r.level
	if !(down || (upward && goingUpStill)) {
		return false, false
	}
	return goingUpStill && upward, true
}

// suppressAdvert reports whether re-advertising row's origin may be
// skipped: best port unchanged, utilization within eps of the last
// advertisement, and the forced-refresh horizon not yet elapsed.
func (r *Hula) suppressAdvert(row *hulaRow, now int64) bool {
	if !row.advValid || row.advPort != row.bestPort {
		return false
	}
	if now-row.advAt >= r.refreshNs {
		return false
	}
	d := row.bestUtil - row.advUtil
	if d < 0 {
		d = -d
	}
	return d <= r.eps
}

// recordAdvert snapshots the advertised state of row's origin.
func recordAdvert(row *hulaRow, now int64) {
	row.advValid = true
	row.advUtil = row.bestUtil
	row.advPort = row.bestPort
	row.advAt = now
}

// markPending queues an accepted advertisement of origin ordinal o for
// the packed flush; the latest accept within a period wins.
func (r *Hula) markPending(row *hulaRow, o int32, util float64, up bool, inPort int) {
	if !row.pending {
		row.pending = true
		r.pendList = append(r.pendList, o)
	}
	row.pendUtil = util
	row.pendUp = up
	row.pendIn = int32(inPort)
}

// Packed HULA probe wire accounting: the single-probe frame is 64B;
// packing pays the frame plus a small header once and ~10B per packed
// origin entry.
const (
	hulaPackedBase  = 22
	hulaPackedEntry = 10
)

// handlePacked processes a packed multi-origin HULA probe: each entry
// runs the standard update rule, and accepted entries are queued for
// this switch's own per-period flush instead of being forwarded
// immediately. Empty packed probes are liveness heartbeats.
func (r *Hula) handlePacked(pkt *sim.Packet, inPort int) {
	now := r.sw.Now()
	txu := r.sw.TxUtil(inPort)
	buf := pkt.Packed // one metric: the path utilisation
	for i := range buf.Entries {
		en := &buf.Entries[i]
		if en.Origin == r.sw.ID {
			continue
		}
		util := buf.MVOf(i)[0]
		if txu > util {
			util = txu
		}
		o := r.ord(en.Origin)
		if o < 0 {
			r.sw.Net.CountRegisterMiss()
			continue
		}
		row := &r.rows[o]
		accepted, goingUpStill := r.acceptProbe(row, o, util, en.Up, inPort, now)
		if !accepted {
			continue
		}
		// An already queued origin is refreshed in place (the flush
		// emits the latest state, so nothing is suppressed).
		if !row.pending {
			if r.suppressOn && r.suppressAdvert(row, now) {
				r.sw.Net.CountProbeSuppressed(1)
				continue
			}
			if r.suppressOn {
				recordAdvert(row, now)
			}
		}
		r.markPending(row, o, util, goingUpStill, inPort)
	}
	r.sw.Net.Free(pkt)
}

// flush is the packed per-period emission: one packed probe per fabric
// port carrying this switch's own origination (edges only) plus every
// eligible pending re-advertisement. Unlike Contra, HULA keeps no
// port-level liveness table — freshness is per (dst, port) and the
// aging horizon is already stretched by the refresh bound — so quiet
// ports get no heartbeat.
func (r *Hula) flush() {
	isEdge := r.level == 0
	for port := 0; port < r.sw.PortCount(); port++ {
		if !r.sw.IsSwitchPort(port) {
			continue
		}
		// Room for the most this port can carry.
		want := len(r.pendList)
		if isEdge {
			want++
		}
		p := r.sw.Net.NewPackedProbe(want, 1)
		buf := p.Packed
		if isEdge {
			buf.Append(sim.ProbeEntry{Origin: r.sw.ID, Up: true})
		}
		for _, o := range r.pendList {
			row := &r.rows[o]
			up, ok := r.eligiblePort(port, int(row.pendIn), row.pendUp)
			if !ok {
				continue
			}
			buf.Append(sim.ProbeEntry{Origin: r.origins.ids[o], Up: up}, row.pendUtil)
		}
		n := len(buf.Entries)
		if n == 0 {
			r.sw.Net.Free(p)
			continue
		}
		if n > 1 {
			r.sw.Net.CountProbeSaved(int64(n - 1))
		}
		p.Size = int32(hulaPackedBase + hulaPackedEntry*n)
		r.sw.Send(port, p)
	}
	now := r.sw.Now()
	for _, o := range r.pendList {
		row := &r.rows[o]
		row.pending = false
		if r.suppressOn {
			// Re-snapshot from the state actually emitted: a pending
			// advertisement may have been refreshed in place after it
			// was recorded, and suppression must compare against what
			// went out on the wire (bestUtil/bestPort track the latest
			// accept, which is exactly what the flush advertised).
			recordAdvert(row, now)
		}
	}
	r.pendList = r.pendList[:0]
}

// BestNextHop exposes HULA's current decision (tests/diagnostics).
func (r *Hula) BestNextHop(dst topo.NodeID) (int, float64) {
	o := r.ord(dst)
	port, ok := r.bestFresh(o, r.sw.Now())
	if !ok {
		return -1, 1
	}
	return port, r.rows[o].bestUtil
}
