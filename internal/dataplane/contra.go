// Package dataplane is the Contra switch runtime: it runs the
// compiler's per-switch programs the way a P4 target would run the
// generated code. It implements PROCESSPROBE and SWIFORWARDPKT
// (Figure 7) with the paper's refinements: versioned probes (§5.1),
// policy-aware flowlet switching (§5.3), failure detection with metric
// expiration (§5.4), and lazy loop breaking via TTL spread (§5.5).
//
// A switch's state is what the paper's switch holds: one flat FwdT
// register file indexed (origin ordinal, local tag ordinal, pid), one
// BestT slot per origin, and exact-match flowlet and source-pin tables
// under one-word keys. Ranks come from the policy's compiled rank
// programs (analysis.Evaluator). After warm-up a probe or a tagged
// packet costs indexed reads and a fixed compare: nothing on either
// path allocates or walks the policy.
//
// The state is sized by what the switch routes and what its policy ranks
// on: a register is 24 bytes and holds only what a probe or a packet
// reads on every visit, its metric vector and rank are floats at the
// policy's widths in one slab, and state that only delta suppression or
// decision tracing reads exists only while that feature is on.
package dataplane

import (
	"slices"

	"contra/internal/analysis"
	"contra/internal/core"
	"contra/internal/metrics"
	"contra/internal/pg"
	"contra/internal/pintable"
	"contra/internal/policy"
	"contra/internal/sim"
	"contra/internal/slab"
	"contra/internal/topo"
	"contra/internal/trace"
)

// fwdEntry is one FwdT register: the best known metric vector for its
// (destination switch, local virtual node, probe id), where it came
// from, and when. Registers live by value in Contra.fwd, and their
// address there (reg) says which destination, virtual node and pid they
// serve, so they do not store those; BestT and the pending list hold
// addresses, not pointers. The metric vector and the rank's components
// live in the address's window of Contra.slab; the register keeps only
// the rank's Inf bit and length.
//
// Most offers lose, and a losing offer reads only present, version,
// nhop, ntag, updated and the vector — is there a route, is the offer
// outdated, is it the route's own upstream, has the route expired, does
// it rank better. Those and what an accept writes are the register and
// its window: 24 bytes plus a float per metric the policy carries.
type fwdEntry struct {
	present bool  // the register holds a learned route (a map would have the key)
	pending bool  // queued for the next packed flush
	rankInf bool  // the cached full-policy rank is infinite
	rankLen uint8 // components of the cached rank in the register's slab window
	version uint32
	nhop    int32     // egress port toward the upstream
	ntag    pg.NodeID // the upstream (probe-sender) virtual node: the packet's next tag
	updated int64
}

// advSnap is what a register last re-advertised downstream (delta
// suppression), so suppression can skip origins whose route and metrics
// are unchanged — a route change (nhop/ntag) always re-advertises,
// which is what keeps chaos scenarios converging. Contra.adv holds one
// per register while suppression is on, and the advertised metric
// vector sits at the end of the register's slab window (advMV).
type advSnap struct {
	valid bool // the fields below hold an advertisement
	nhop  int32
	ntag  pg.NodeID
	at    int64
}

// altShadow retains the best live offer seen on a port other than the
// incumbent route's. Probe merging keeps one winner per key, so under
// a single-(vnode, pid) policy the losing offers — the alternatives a
// decision actually had — would otherwise be unobservable. Contra.alt
// holds one per register while decision tracing or replay overrides
// read them (altOn). shadow.nhop != entry.nhop is invariant.
type altShadow struct {
	valid   bool // the fields below hold a shadow
	nhop    int32
	ntag    pg.NodeID
	updated int64
	rank    policy.Rank
}

// flushPort is one port's packed-flush state.
type flushPort struct {
	adv    bool        // a product-graph out-port: flushed (or a heartbeat) every period
	origin bool        // carries this switch's own origin entries
	lead   int32       // the first port whose probes always say what this one's do
	queued int32       // on a lead: pending registers whose virtual node advertises on it
	out    *sim.Packet // the packed probe a flush is filling
}

// loopSlots is the size of the loop-detection register array (§5.5).
const loopSlots = 512

// loopTable is the §5.5 loop-detection register array, a struct of
// arrays: per slot the signature of the packet it tracks and the range
// of TTLs that packet was seen with. ttl[i] holds ^min and max, so that
// a zero slot reads min 255 > max 0, which no tracked slot can (min <=
// max from the first sighting on): that is the slot's "set" bit. 5 KB
// a switch.
type loopTable struct {
	sig [loopSlots]uint64
	ttl [loopSlots][2]uint8
}

// detect updates the TTL range of the packet with signature sig, seen
// now with ttl, and reports whether the range has reached the loop
// threshold; firing frees the slot.
func (t *loopTable) detect(sig uint64, ttl uint8) bool {
	i := sig % loopSlots
	r := &t.ttl[i]
	lo, hi := ^r[0], r[1]
	if lo > hi || t.sig[i] != sig {
		t.sig[i] = sig
		*r = [2]uint8{^ttl, ttl}
		return false
	}
	lo, hi = min(lo, ttl), max(hi, ttl)
	if int(hi)-int(lo) >= core.LoopTTLDelta {
		*r = [2]uint8{} // reset after firing
		return true
	}
	*r = [2]uint8{^lo, hi}
	return false
}

// Contra is the per-switch router.
type Contra struct {
	comp *core.Compiled
	prog *core.SwitchProgram
	res  *analysis.Result
	sw   *sim.SwitchDev

	// FwdT and BestT are laid out as the register arrays core/state.go
	// accounts for (Figure 10). fwd is the one register file, indexed
	// (oi*len(prog.VNodes) + ord)*nPids + pid (reg): oi is the destination's
	// origin ordinal (comp.OriginOrd), ord the virtual node's position in
	// prog.VNodes. An origin's blk = len(prog.VNodes)*nPids registers are
	// contiguous; best[oi] is the address of that block's winner, -1 when
	// there is none. slab backs every register's floats, stride each: its
	// metric vector (mvW, the policy's metric-vector width), its rank
	// (rankW, the policy's widest rank) and, while suppression is on, the
	// vector it last advertised (mvW). adv (suppression on) and alt
	// (altOn) run parallel to fwd, nil otherwise. Addresses (best, pend)
	// stay valid until flushTables lays the tables out afresh. inTrans,
	// ordOf and probeOut are the program's tag transitions (PG.In over
	// prog.VNodes), VNodes and ProbeOut addressed the same way: by sender
	// tag, by own tag, and by ordinal; -1 marks "no such tag here".
	// flowlets (§5.3, keyed tag ordinal · pid · flowlet
	// hash so pinning never crosses a policy constraint) and srcPins
	// (destination switch · flowlet hash) are exact-match tables: no two
	// flows share a slot, which a hash-indexed register array would allow.
	fwd      []fwdEntry
	best     []int32
	slab     []float64
	adv      []advSnap
	alt      []altShadow
	mvW      int
	rankW    int
	stride   int
	nPids    int
	blk      int
	inTrans  []int32
	ordOf    []int32
	probeOut [][]int
	flowlets pintable.Table
	srcPins  pintable.Table
	loop     loopTable

	// evCand is the reusable rank evaluator: the probe hot path
	// evaluates and compares ranks on it without allocating.
	evCand *analysis.Evaluator

	version   uint32
	lastProbe []int64 // per port: last probe arrival (failure detection)

	probeSize int32

	// era is the policy generation this router's tables were computed
	// under; Fleet.Install bumps it on every hot swap. Probes and data
	// packets are stamped with it so tag state from a superseded
	// compilation is never misread against the new product graph.
	era uint8

	// originTimer is the probe-origination timer; Install cancels it
	// when a swap changes whether this switch originates probes.
	originTimer sim.Timer

	// Probe aggregation (§5.2 overhead reduction). With packing on,
	// transit re-advertisements are deferred to a once-per-period flush
	// that emits one packed multi-origin probe per egress port (plus a
	// liveness heartbeat on quiet ports), and probe origination rides
	// the same flush. With suppression on, an accepted update whose
	// route is unchanged and whose metric vector moved at most
	// suppressEps per component since the last advertisement is not
	// re-advertised at all; a forced refresh every refreshNs bounds
	// downstream staleness, and the failure/expiry horizons stretch by
	// the same bound so suppressed-but-alive routes never age out.
	packing     bool
	suppressOn  bool
	suppressEps float64
	refreshNs   int64       // forced-refresh horizon (RefreshEvery periods)
	expireNs    int64       // entry expiry horizon incl. suppression slack
	deadNs      int64       // port-liveness horizon incl. suppression slack
	pend        []int32     // register addresses awaiting the packed flush, each once
	flushPorts  []flushPort // per port: its packed-flush state
	leadOut     [][]int     // per local tag ordinal: the leads among its probe-out ports

	// LoopBreaks counts §5.5 flowlet flushes (exported for tests and
	// the evaluation harness).
	LoopBreaks int64

	// tr, when non-nil, receives every fresh forwarding decision
	// (chosen and runner-up port + rank) at the decisions trace level;
	// ovr, when non-nil, pins matching flows to an alternative choice
	// during counterfactual replay. Both stay nil in normal runs so
	// the data path pays one pointer check each.
	tr  *trace.Recorder
	ovr *trace.Overrides
	// altOn enables runner-up shadow maintenance in probe merging; set
	// iff decision tracing or overrides will read the shadows.
	altOn bool

	// mx, when non-nil, accumulates probe-table churn (entries
	// added/replaced/expired) and route flaps (best next-hop changes
	// per destination) for the metrics sampler. Nil when telemetry is
	// off, so the probe path pays one pointer check.
	mx *metrics.Churn

	// tabs holds the fleet's tables from deploy to attach: Attach takes
	// this router's per-port windows from it and lets go of it.
	tabs *tables
}

// tables is a fleet's router state for one compiled program, one array
// per table: every router's tables are disjoint windows of them, taken
// in switch order, so a deploy or an install allocates once per table
// whatever the number of switches. A router laid out from a nil
// *tables (a reboot) makes its own.
type tables struct {
	evals    []analysis.Evaluator
	fwd      []fwdEntry
	best     []int32
	floats   []float64
	adv      []advSnap
	views    []int32 // inTrans and ordOf, two windows a router
	probeOut [][]int
	pend     []int32
	leadOut  [][]int // packed: one row a virtual node, windows of leads
	leads    []int

	// Per port, taken at attach: a deploy sizes them, an install keeps
	// what the routers have.
	lastProbe []int64
	flush     []flushPort
}

// newTables sizes the tables the given switches lay out for comp, plus,
// when attach is set, the per-port ones their Attach takes.
func newTables(comp *core.Compiled, switches []topo.NodeID, attach bool) *tables {
	t := &tables{}
	t.size(comp, switches, attach)
	return t
}

// size lays t out for the given switches and comp as newTables does,
// in t's own arrays where they are large enough.
func (t *tables) size(comp *core.Compiled, switches []topo.NodeID, attach bool) {
	var regs, vnodes, pend, ports, leadRows, leads int
	for _, id := range switches {
		prog := comp.Switch(id)
		regs += comp.NumOrigins * len(prog.VNodes) * comp.Analysis.NumPids()
		vnodes += len(prog.VNodes)
		pend += pendCap(comp, prog)
		ports += len(comp.Topo.Ports(id))
		if comp.Opts.ProbePacking {
			leadRows += len(prog.VNodes)
			for _, v := range prog.VNodes {
				leads += len(comp.ProbeOut(v))
			}
		}
	}
	_, _, stride := registerWidths(comp)
	advRegs, lastProbes, flushPorts := 0, 0, 0
	if comp.Opts.SuppressOn() {
		advRegs = regs
	}
	if attach {
		lastProbes = ports
		if comp.Opts.ProbePacking {
			flushPorts = ports
		}
	}
	t.evals = comp.Analysis.NewEvaluators(len(switches))
	t.fwd = slab.Reuse(t.fwd, regs)
	t.best = slab.Reuse(t.best, len(switches)*comp.NumOrigins)
	t.floats = slab.Reuse(t.floats, regs*stride)
	t.adv = slab.Reuse(t.adv, advRegs)
	t.views = slab.Reuse(t.views, 2*len(switches)*comp.PG.NumNodes())
	t.probeOut = slab.Reuse(t.probeOut, vnodes)
	t.pend = slab.Reuse(t.pend, pend)
	t.leadOut = slab.Reuse(t.leadOut, leadRows)
	t.leads = slab.Reuse(t.leads, leads)
	t.lastProbe = slab.Reuse(t.lastProbe, lastProbes)
	t.flush = slab.Reuse(t.flush, flushPorts)
}

// evaluator takes the next of t's rank evaluators: one per switch t
// was sized for.
func (t *tables) evaluator() *analysis.Evaluator {
	ev := &t.evals[0]
	t.evals = t.evals[1:]
	return ev
}

// registerWidths returns the floats a register's slab window holds for
// comp: its metric vector (mvW, the policy's metric-vector width), its
// rank (rankW, the policy's widest rank) and, while suppression is on,
// the vector it last advertised, together stride.
func registerWidths(comp *core.Compiled) (mvW, rankW, stride int) {
	mvW = len(comp.Analysis.MV)        // at most analysis.MaxMV
	rankW = comp.Analysis.Policy.Width // at most core.MaxRankWidth, so rankLen holds any length
	stride = mvW + rankW
	if comp.Opts.SuppressOn() {
		stride += mvW
	}
	return mvW, rankW, stride
}

// pendCap is the room a packed switch's pending list needs: every
// register of the virtual nodes that advertise at all, each queued at
// most once between two flushes. Without packing there is no list.
func pendCap(comp *core.Compiled, prog *core.SwitchProgram) int {
	if !comp.Opts.ProbePacking {
		return 0
	}
	advertising := 0 // local virtual nodes with an out-port
	for _, v := range prog.VNodes {
		if len(comp.ProbeOut(v)) > 0 {
			advertising++
		}
	}
	return advertising * comp.NumOrigins * comp.Analysis.NumPids()
}

// New builds the router for one switch: a fleet of one.
func New(comp *core.Compiled, swID topo.NodeID) *Contra {
	c := &Contra{}
	c.init(comp, swID, newTables(comp, []topo.NodeID{swID}, true))
	return c
}

// init sets c up as the router of one switch, its tables windows of t.
func (c *Contra) init(comp *core.Compiled, swID topo.NodeID, t *tables) {
	*c = Contra{
		flowlets:    c.flowlets,
		srcPins:     c.srcPins,
		comp:        comp,
		prog:        comp.Switch(swID),
		res:         comp.Analysis,
		evCand:      t.evaluator(),
		probeSize:   int32(comp.Stats.ProbeBytes + 18), // + minimal L2 framing
		packing:     comp.Opts.ProbePacking,
		suppressOn:  comp.Opts.SuppressOn(),
		suppressEps: comp.Opts.SuppressEps,
		tabs:        t,
	}
	c.flowlets.Reset()
	c.srcPins.Reset()
	c.setHorizons()
	c.layoutTables(t)
}

// layoutTables sizes empty FwdT/BestT register arrays and the dense
// program views for the current compiled program, as windows of t. The
// virtual-node space (and with it every register address) belongs to
// one product graph, so a policy install lays everything out again.
func (c *Contra) layoutTables(t *tables) {
	if len(c.prog.VNodes) > maxPinOrd {
		panic("dataplane: too many virtual nodes on one switch for the flowlet key")
	}
	if t == nil {
		t = &tables{}
	}
	c.nPids = c.res.NumPids()
	c.blk = len(c.prog.VNodes) * c.nPids
	c.mvW, c.rankW, c.stride = registerWidths(c.comp)
	n := c.comp.NumOrigins * c.blk
	c.fwd = slab.Take(&t.fwd, n)
	c.best = slab.Take(&t.best, c.comp.NumOrigins)
	for oi := range c.best {
		c.best[oi] = -1
	}
	c.slab = slab.Take(&t.floats, n*c.stride)
	c.adv, c.alt = nil, nil
	if c.suppressOn {
		c.adv = slab.Take(&t.adv, n)
	}
	if c.altOn {
		c.alt = make([]altShadow, n)
	}
	c.inTrans = slab.Take(&t.views, c.comp.PG.NumNodes())
	c.ordOf = slab.Take(&t.views, c.comp.PG.NumNodes())
	for tag := range c.inTrans {
		c.inTrans[tag], c.ordOf[tag] = -1, -1
	}
	c.probeOut = slab.Take(&t.probeOut, len(c.prog.VNodes))
	for ord, v := range c.prog.VNodes {
		c.ordOf[v] = int32(ord)
		c.probeOut[ord] = c.comp.ProbeOut(v)
		for _, u := range c.comp.PG.In(v) {
			c.inTrans[u] = int32(ord)
		}
	}
}

// Packet fields index the register arrays, and where a map lookup with
// a bad key missed, an array index would panic. So every index derived
// from a packet goes through one of the accessors below, which turn
// out-of-range values into exactly the miss the maps produced.

// tagIndex reads a by-id view: the ordinal stored for tag, or -1 when
// the view has none for it or it is outside the view altogether.
func tagIndex(view []int32, tag int32) int32 {
	if uint32(tag) >= uint32(len(view)) {
		return -1
	}
	return view[tag]
}

// originIndex is the ordinal of the origin a packet names, or -1: a
// host, a switch that originates nothing (no host attaches to it, or
// the policy gives it no send state), or no node at all has no
// registers here.
func (c *Contra) originIndex(origin topo.NodeID) int32 {
	return tagIndex(c.comp.OriginOrd, int32(origin))
}

// originKey is originIndex for a probe's (origin, pid): -1 as well when
// the pid addresses no register.
func (c *Contra) originKey(origin topo.NodeID, pid uint8) int32 {
	if int(pid) >= c.nPids {
		return -1
	}
	return c.originIndex(origin)
}

// reg is the FwdT address of (oi, ord, pid), a key that has passed
// tagIndex and originKey. The address is the register's whole identity:
// unreg reads it back.
func (c *Contra) reg(oi, ord int32, pid uint8) int32 {
	return oi*int32(c.blk) + ord*int32(c.nPids) + int32(pid)
}

// unreg splits FwdT address i back into the origin ordinal, local tag
// ordinal and pid it serves: the inverse of reg, in two divisions, or
// none where an origin has one register (one virtual node, one pid).
func (c *Contra) unreg(i int32) (oi, ord int32, pid uint8) {
	if c.blk == 1 {
		return i, 0, 0
	}
	oi = i / int32(c.blk)
	rest := i - oi*int32(c.blk)
	ord = rest / int32(c.nPids)
	return oi, ord, uint8(rest - ord*int32(c.nPids))
}

// lookup returns the address of the learned entry at (oi, ord, pid), or
// -1.
func (c *Contra) lookup(oi, ord int32, pid uint8) int32 {
	if i := c.reg(oi, ord, pid); c.fwd[i].present {
		return i
	}
	return -1
}

// mv is register i's metric vector: the first mvW floats of its slab
// window, laid out per the policy's Analysis.MV.
func (c *Contra) mv(i int32) []float64 {
	w := int(i) * c.stride
	return c.slab[w : w+c.mvW : w+c.mvW]
}

// advMV is the metric vector register i last advertised (suppression
// on): the last mvW floats of its slab window.
func (c *Contra) advMV(i int32) []float64 {
	w := int(i)*c.stride + c.mvW + c.rankW
	return c.slab[w : w+c.mvW : w+c.mvW]
}

// rank is register i's cached full-policy rank, its components aliasing
// the register's slab window after the metric vector.
func (c *Contra) rank(i int32) policy.Rank {
	e := &c.fwd[i]
	w := int(i)*c.stride + c.mvW
	return policy.Rank{Inf: e.rankInf, V: c.slab[w : w+int(e.rankLen) : w+c.rankW]}
}

// setRank copies a (scratch-aliased) rank into register i's slab
// window. The rank's part of it is as wide as the policy's widest rank,
// so a longer one is a bug and fails the slice bound.
func (c *Contra) setRank(i int32, r policy.Rank) {
	e := &c.fwd[i]
	w := int(i)*c.stride + c.mvW
	copy(c.slab[w:w+len(r.V):w+c.rankW], r.V)
	e.rankInf = r.Inf
	e.rankLen = uint8(len(r.V))
}

// bestOf reads BestT: the address of the cached winner for origin oi,
// or -1.
func (c *Contra) bestOf(oi int32) int32 {
	if oi < 0 {
		return -1
	}
	return c.best[oi]
}

// setHorizons derives the expiry and failure-detection horizons from
// the compiled options. Under suppression both stretch by
// core.Options.SuppressSlack — except port liveness under packing,
// where the per-period heartbeat keeps ports fresh at the §5.4 horizon.
func (c *Contra) setHorizons() {
	opts := &c.comp.Opts
	period := opts.ProbePeriodNs
	k := int64(opts.FailureDetectPeriods)
	slack := opts.SuppressSlack()
	c.refreshNs = int64(opts.RefreshEvery) * period
	c.expireNs = (k+slack)*period + period
	if c.packing {
		slack = 0 // heartbeats refresh port liveness every period
	}
	c.deadNs = (k + slack) * period
}

// Attach implements sim.Router: initialize port state and start the
// probe generator (or, under packing, the per-period packed flush).
func (c *Contra) Attach(sw *sim.SwitchDev) {
	c.sw = sw
	t := c.tabs
	c.tabs = nil
	c.lastProbe = slab.Take(&t.lastProbe, sw.PortCount())
	period := c.comp.Opts.ProbePeriodNs
	switch {
	case c.packing:
		// Every switch flushes once per period: origin entries and
		// pending transit re-advertisements share the packed probes.
		c.recomputeAdv(t)
		sw.Net.Eng.Every(originStagger(c.prog.Switch, period), period, (*flushTick)(c))
	case c.prog.Origin != nil:
		c.originTimer = sw.Net.Eng.Every(originStagger(c.prog.Switch, period), period, (*originTick)(c))
	}
	// Housekeeping: sweep expired flowlet entries.
	sw.Net.Eng.Every(period, 16*period, (*sweepTick)(c))
}

// The router's recurring timers are its own pointer under one name per
// timer, so starting one allocates nothing (see sim.Ticker).
type (
	flushTick  Contra
	originTick Contra
	sweepTick  Contra
)

func (t *flushTick) Tick()  { (*Contra)(t).flushPacked() }
func (t *originTick) Tick() { (*Contra)(t).originate() }
func (t *sweepTick) Tick()  { (*Contra)(t).sweep() }

// recomputeAdv rebuilds the packed-flush port state from the current
// program, in windows of t: which ports are product-graph out-ports
// (flush and heartbeat targets), which carry this switch's own origin
// entries, which lead each group of ports that always say the same and
// which leads each virtual node advertises on (leadOut), and an empty
// pending list with room for every register that advertises at all.
// Called at attach and after every policy install.
func (c *Contra) recomputeAdv(t *tables) {
	if n := c.sw.PortCount(); len(c.flushPorts) != n {
		c.flushPorts = slab.Take(&t.flush, n)
	}
	clear(c.flushPorts)
	for _, ports := range c.probeOut {
		for _, p := range ports {
			c.flushPorts[p].adv = true
		}
	}
	if org := c.prog.Origin; org != nil {
		for _, p := range c.comp.ProbeOut(org.VNode) {
			c.flushPorts[p].origin = true
		}
	}
	for p := range c.flushPorts {
		fp := &c.flushPorts[p]
		fp.lead = int32(p)
		for q := 0; fp.adv && q < p; q++ {
			if c.flushPorts[q].lead == int32(q) && c.sameEntries(p, q) {
				fp.lead = int32(q)
				break
			}
		}
	}
	c.leadOut = slab.Take(&t.leadOut, len(c.probeOut))
	for ord, ports := range c.probeOut {
		row := slab.Take(&t.leads, len(ports))[:0]
		for _, p := range ports {
			if c.flushPorts[p].lead == int32(p) {
				row = append(row, p)
			}
		}
		c.leadOut[ord] = row
	}
	// A register is queued at most once between two flushes (pending), so
	// the list never outgrows pendCap: markPending appends in place.
	c.pend = slab.Take(&t.pend, pendCap(c.comp, c.prog))[:0]
}

// sameEntries reports whether every flush says the same on advertising
// ports p and q: both or neither carry the origin entries, and every
// virtual node advertises on both or on neither.
func (c *Contra) sameEntries(p, q int) bool {
	if !c.flushPorts[q].adv || c.flushPorts[p].origin != c.flushPorts[q].origin {
		return false
	}
	for _, ports := range c.probeOut {
		if slices.Contains(ports, p) != slices.Contains(ports, q) {
			return false
		}
	}
	return true
}

// originate emits one probe per pid from the switch's probe-sending
// state (INITPROBE of Figure 7).
func (c *Contra) originate() {
	org := c.prog.Origin
	if org == nil {
		// A swap can retire this switch's origin role while a tick is
		// already queued; the timer is cancelled, the tick is a no-op.
		return
	}
	c.version++
	ports := c.comp.ProbeOut(org.VNode)
	for _, pid := range org.Pids {
		for _, port := range ports {
			p := c.sw.Net.NewPacket()
			p.Kind = sim.Probe
			p.Size = c.probeSize
			p.Origin = c.prog.Switch
			p.Pid = uint8(pid)
			p.Version = c.version
			p.Tag = int32(org.VNode)
			p.Era = c.era
			p.TTL = sim.InitialTTL
			c.sw.Send(port, p)
		}
	}
}

// Handle implements sim.Router.
func (c *Contra) Handle(pkt *sim.Packet, inPort int) {
	switch {
	case pkt.Kind == sim.Probe && pkt.IsPacked():
		c.handlePacked(pkt, inPort)
	case pkt.Kind == sim.Probe:
		c.handleProbe(pkt, inPort)
	default:
		c.handleData(pkt, inPort)
	}
}

// handleProbe receives a standalone probe: one advertisement, which
// handleProbeEntry merges and which is then retagged and forwarded in
// place along the product graph's out-edges.
func (c *Contra) handleProbe(pkt *sim.Packet, inPort int) {
	now := c.sw.Now()
	c.lastProbe[inPort] = now

	// Probes never travel through their own origin: traffic for that
	// destination would already have been delivered here.
	if pkt.Origin == c.prog.Switch {
		c.sw.Net.Free(pkt)
		return
	}
	// A probe from a superseded policy era carries a tag and metric
	// layout from the old product graph; discard it rather than
	// misread it (§5.1's versioning, generalized to whole-policy
	// swaps). The lastProbe touch above still counts: port liveness is
	// a physical signal, independent of the policy generation.
	if pkt.Era != c.era {
		c.sw.Drop(pkt, sim.DropProbeStale)
		return
	}
	// NEXTPGNODE: the sender's virtual node determines ours.
	ord := tagIndex(c.inTrans, pkt.Tag)
	oi := c.originKey(pkt.Origin, pkt.Pid)
	if ord < 0 || oi < 0 {
		c.sw.Net.CountRegisterMiss()
		c.sw.Drop(pkt, sim.DropProbeNoTrans)
		return
	}
	util, latAdd := c.linkMetrics(inPort)
	ad := sim.ProbeEntry{Origin: pkt.Origin, Tag: pkt.Tag, Version: pkt.Version, Pid: pkt.Pid}
	var n sim.ProbeCounts
	i := c.handleProbeEntry(&ad, pkt.MV[:c.mvW], oi, ord, inPort, util, latAdd, now, &n)

	// Retag and multicast along product graph out-edges.
	switch outPorts := c.probeOut[ord]; {
	case i < 0 || len(outPorts) == 0:
		c.sw.Net.Free(pkt)
	case c.suppressOn && c.suppressAdvert(i, now):
		c.sw.Net.CountProbeSuppressed(1)
		c.sw.Net.CountProbeSaved(int64(len(outPorts)))
		c.sw.Net.Free(pkt)
	default:
		if c.suppressOn {
			c.recordAdvert(i, now)
		}
		n.Forwards = int64(len(outPorts))
		pkt.Tag = int32(c.prog.VNodes[ord])
		copy(pkt.MV[:], c.mv(i))
		for k, port := range outPorts {
			if k == len(outPorts)-1 {
				c.sw.Send(port, pkt)
			} else {
				c.sw.Send(port, c.sw.Net.Clone(pkt))
			}
		}
	}
	c.countProbes(&n)
}

// handleProbeEntry is PROCESSPROBE (Figure 7) plus the §5 refinements
// for one advertisement — a standalone probe, or one entry of a packed
// one, with metric vector admv — that arrived on inPort, whose origin
// has ordinal oi and whose sender's tag resolved to our virtual node at
// ordinal ord. util and latAdd are inPort's link metrics in the traffic
// direction (probes flow opposite to traffic, so that is out of inPort).
// It counts the rule that decided the advertisement in n and returns
// the updated register's address when it was accepted, -1 when it was
// discarded. The rule allocates nothing: ad is read in place, the link
// metric folds into stack scratch, the compare and the accepted entry's
// rank run on the policy's compiled programs, and the vector and rank
// land in the register's own window.
func (c *Contra) handleProbeEntry(ad *sim.ProbeEntry, admv []float64, oi, ord int32, inPort int, util, latAdd float64, now int64, n *sim.ProbeCounts) int32 {
	i := c.reg(oi, ord, ad.Pid)
	e := &c.fwd[i]
	if e.present && ad.Version < e.version && !c.altOn {
		// Outdated (§5.1), decided before any metric is folded: only a
		// runner-up shadow would read the folded vector.
		n.Outdated++
		return -1
	}
	v := c.prog.VNodes[ord]
	var scratch [analysis.MaxMV]float64
	mv := scratch[:c.mvW]
	for k, m := range c.res.MV {
		mv[k] = fold(m, admv[k], util, latAdd)
	}
	accept, drop := decide(n, e.present, e.version, ad.Version,
		int32(inPort) == e.nhop && pg.NodeID(ad.Tag) == e.ntag, now-e.updated > c.expireNs)
	if !accept && !drop {
		accept = c.evCand.BetterRank(int(ad.Pid), mv, c.mv(i))
		if accept {
			n.Better++
		} else {
			n.Lost++
		}
	}
	if !accept {
		if c.altOn && int32(inPort) != e.nhop {
			c.noteAlt(i, v, inPort, pg.NodeID(ad.Tag), mv, now)
		}
		return -1
	}
	// Flap detection reads the resolved best next hop before the entry
	// mutates (the accept may rewrite the incumbent best's own port).
	oldHop := -1
	if c.mx != nil {
		oldHop = c.bestHop(oi)
	}
	if !e.present {
		// The origin's first accept claims the register: a register is
		// claimed once per layout, so it is still zero here.
		e.present = true
	} else if c.altOn && int32(inPort) != e.nhop {
		c.demoteToAlt(i)
	}
	copy(c.mv(i), mv)
	e.ntag = pg.NodeID(ad.Tag)
	e.nhop = int32(inPort)
	e.version = ad.Version
	e.updated = now
	c.setRank(i, c.policyRank(v, mv))

	c.updateBest(oi, i)
	if c.mx != nil && oldHop >= 0 && c.bestHop(oi) != oldHop {
		c.mx.Flaps++
	}
	return i
}

// countProbes adds one packet's probe-merge counts to the network's
// totals and, while telemetry is on, to the router's churn.
func (c *Contra) countProbes(n *sim.ProbeCounts) {
	c.sw.Net.CountProbes(n)
	if mx := c.mx; mx != nil {
		mx.Added += n.New
		mx.Replaced += n.Better
		mx.Expired += n.Expired
		mx.Newer += n.Newer
		mx.Refreshed += n.Refresh
		mx.Outdated += n.Outdated
		mx.Lost += n.Lost
		mx.Forwards += n.Forwards
	}
}

// suppressAdvert reports whether re-advertising register i may be
// skipped under delta suppression: its route is unchanged since the
// last advertisement, the forced-refresh horizon has not elapsed, and
// every metric component moved by at most the configured epsilon. New
// entries, route changes (the bad-news path after failures and swaps)
// and stale advertisements always propagate.
func (c *Contra) suppressAdvert(i int32, now int64) bool {
	e, a := &c.fwd[i], &c.adv[i]
	if !a.valid || a.nhop != e.nhop || a.ntag != e.ntag {
		return false
	}
	if now-a.at >= c.refreshNs {
		return false
	}
	mv, adv := c.mv(i), c.advMV(i)
	for k := range mv {
		d := mv[k] - adv[k]
		if d < 0 {
			d = -d
		}
		if d > c.suppressEps {
			return false
		}
	}
	return true
}

// recordAdvert snapshots what is being advertised for register i. The
// fields are stored one by one: a composite literal would be built on
// the stack and copied in wide moves that stall on its narrow stores.
func (c *Contra) recordAdvert(i int32, now int64) {
	e, a := &c.fwd[i], &c.adv[i]
	a.valid = true
	a.nhop = e.nhop
	a.ntag = e.ntag
	a.at = now
	copy(c.advMV(i), c.mv(i))
}

// markPending queues register i for the next packed flush, once, and
// counts it on every lead among its virtual node's out-ports (leads) so
// the flush sizes each lead's probe exactly.
func (c *Contra) markPending(i int32, leads []int) {
	e := &c.fwd[i]
	if e.pending {
		return
	}
	e.pending = true
	c.pend = append(c.pend, i)
	for _, port := range leads {
		c.flushPorts[port].queued++
	}
}

// linkMetrics reads the in-port's link metrics a probe folds in, and
// only those its policy carries: TxUtil folds the estimator's decay into
// its state, so a read the policy does not need would still move later
// readings.
func (c *Contra) linkMetrics(inPort int) (util, latAdd float64) {
	for _, m := range c.res.MV {
		switch m {
		case policy.Util:
			util = c.sw.TxUtil(inPort)
		case policy.Lat:
			latAdd = float64(c.sw.PortDelay(inPort)) / 1e9
		}
	}
	return util, latAdd
}

// handlePacked receives a packed multi-origin probe: each entry is
// merged as a standalone probe would be, but re-advertisement is
// deferred to the per-period flush instead of forwarding the packet.
// An empty packed probe is a pure liveness heartbeat.
func (c *Contra) handlePacked(pkt *sim.Packet, inPort int) {
	now := c.sw.Now()
	c.lastProbe[inPort] = now
	if pkt.Era != c.era {
		c.sw.Drop(pkt, sim.DropProbeStale)
		return
	}
	// Link metrics shared by every entry on this port.
	util, latAdd := c.linkMetrics(inPort)
	var n sim.ProbeCounts
	if m, ok := c.res.ScalarRank(); ok && c.mx == nil && !c.altOn {
		c.mergeScalar(pkt.Packed, m, inPort, util, latAdd, now, &n)
	} else {
		c.mergePacked(pkt.Packed, inPort, util, latAdd, now, &n)
	}
	c.countProbes(&n)
	c.sw.Net.Free(pkt)
}

// mergePacked merges every entry of a packed probe through
// handleProbeEntry.
func (c *Contra) mergePacked(buf *sim.ProbeBuf, inPort int, util, latAdd float64, now int64, n *sim.ProbeCounts) {
	for k := range buf.Entries {
		en := &buf.Entries[k]
		if en.Origin == c.prog.Switch {
			continue
		}
		ord := tagIndex(c.inTrans, en.Tag)
		oi := c.originKey(en.Origin, en.Pid)
		if ord < 0 || oi < 0 {
			c.sw.Net.CountRegisterMiss()
			continue
		}
		if i := c.handleProbeEntry(en, buf.MVOf(k), oi, ord, inPort, util, latAdd, now, n); i >= 0 {
			c.advertise(i, ord, now)
		}
	}
}

// mergeScalar is mergePacked for a policy that ranks on one metric as
// it stands (analysis.Result.ScalarRank), on a router with neither
// telemetry nor runner-up shadows: handleProbeEntry's rule (decide),
// with the folded metric for the vector and the rank alike, so an entry
// costs a compare or two and, when accepted, a store into the register
// and its slab window.
func (c *Contra) mergeScalar(buf *sim.ProbeBuf, m policy.Metric, inPort int, util, latAdd float64, now int64, n *sim.ProbeCounts) {
	port, width := int32(inPort), int(buf.Width)
	for k := range buf.Entries {
		en := &buf.Entries[k]
		if en.Origin == c.prog.Switch {
			continue
		}
		ord := tagIndex(c.inTrans, en.Tag)
		oi := c.originKey(en.Origin, en.Pid)
		if ord < 0 || oi < 0 {
			c.sw.Net.CountRegisterMiss()
			continue
		}
		i := c.reg(oi, ord, en.Pid)
		e := &c.fwd[i]
		take, drop := decide(n, e.present, e.version, en.Version,
			port == e.nhop && pg.NodeID(en.Tag) == e.ntag, now-e.updated > c.expireNs)
		if drop {
			continue
		}
		x := fold(m, buf.MV[k*width], util, latAdd)
		// The register's window: its one-metric vector, then its rank.
		win := c.slab[int(i)*c.stride:][:2]
		switch {
		case take:
		case x < win[0]:
			n.Better++
		default:
			n.Lost++
			continue
		}
		e.present = true
		win[0], win[1] = x, x
		e.rankInf, e.rankLen = false, 1
		e.ntag = pg.NodeID(en.Tag)
		e.nhop = port
		e.version = en.Version
		e.updated = now
		c.updateBest(oi, i)
		c.advertise(i, ord, now)
	}
}

// advertise queues accepted register i, at local tag ordinal ord, for
// the next packed flush: not when its virtual node advertises nowhere,
// when it is queued already (the flush emits its latest vector, so the
// refresh is advertised, not suppressed), or when delta suppression
// holds it back.
func (c *Contra) advertise(i, ord int32, now int64) {
	leads := c.leadOut[ord]
	if len(leads) == 0 || c.fwd[i].pending {
		return
	}
	if c.suppressOn {
		if c.suppressAdvert(i, now) {
			c.sw.Net.CountProbeSuppressed(1)
			return
		}
		c.recordAdvert(i, now)
	}
	c.markPending(i, leads)
}

// flushPacked is the per-period packed emission: one packed probe per
// advertisement port carrying this switch's own origin entries (INIT-
// PROBE riding the flush) plus every pending transit re-advertisement,
// or a bare heartbeat when the port has nothing to say — which is what
// keeps §5.4 port-liveness detection at its normal horizon even when
// suppression quiets the fabric. Ports that always say the same share
// their lead's entry buffer: the flush opens each lead's probe, origin
// entries first, and gives every other port a probe sharing it, walks
// the pending list once appending each register to the leads among its
// virtual node's out-ports (leadOut), and only then sends, in port
// order: per port, the entries come in the order they were queued. (A
// probe sent on a down link is freed at once, so no buffer may go out
// before every port holding it has its share.)
func (c *Contra) flushPacked() {
	org := c.prog.Origin
	if org != nil {
		c.version++
	}
	for port := range c.flushPorts {
		fp := &c.flushPorts[port]
		if !fp.adv {
			continue
		}
		if int(fp.lead) < port {
			// The lead's probe is open: share its buffer, which the
			// appends below fill for both.
			fp.out = c.sw.Net.Share(c.flushPorts[fp.lead].out)
			continue
		}
		var originPids []int
		if org != nil && fp.origin {
			originPids = org.Pids
		}
		// The packet's buffer arrives with room for everything this port
		// will say, recycled from an earlier flush: the appends below stay
		// in place.
		fp.out = c.sw.Net.NewPackedProbe(len(originPids)+int(fp.queued), c.mvW)
		fp.out.Era = c.era
		for _, pid := range originPids {
			fp.out.Packed.Append(sim.ProbeEntry{
				Origin: c.prog.Switch, Tag: int32(org.VNode),
				Version: c.version, Pid: uint8(pid),
			})
		}
	}
	for _, i := range c.pend {
		oi, ord, pid := c.unreg(i)
		en := sim.ProbeEntry{
			Origin: c.comp.Origins[oi], Tag: int32(c.prog.VNodes[ord]),
			Version: c.fwd[i].version, Pid: pid,
		}
		mv := c.mv(i)
		for _, port := range c.leadOut[ord] {
			c.flushPorts[port].out.Packed.Append(en, mv...)
		}
	}
	for port := range c.flushPorts {
		fp := &c.flushPorts[port]
		if !fp.adv {
			continue
		}
		p := fp.out
		fp.out, fp.queued = nil, 0
		n := len(p.Packed.Entries)
		if n > 1 {
			// n per-origin probes collapsed into one wire packet.
			c.sw.Net.CountProbeSaved(int64(n - 1))
		}
		p.Size = int32(c.comp.PackedProbeBytes(n) + 18)
		c.sw.Send(port, p)
	}
	now := c.sw.Now()
	for _, i := range c.pend {
		c.fwd[i].pending = false
		if c.suppressOn {
			// Re-snapshot from the metrics actually emitted: the entry may
			// have been refreshed again since it was queued.
			c.recordAdvert(i, now)
		}
	}
	c.pend = c.pend[:0]
}

// policyRank evaluates the full policy for an entry at virtual node v:
// the recombination step (the "asterisk" choice of §4.2). The result
// aliases evCand's scratch buffer; retain via setRank.
func (c *Contra) policyRank(v pg.NodeID, mv []float64) policy.Rank {
	return c.evCand.EvalPolicy(mv, c.comp.PG.Node(v).Accept)
}

// updateBest maintains BestT for origin oi after its register i changed.
func (c *Contra) updateBest(oi, i int32) {
	cur := c.best[oi]
	if cur < 0 || cur == i {
		// No previous best, or the best itself changed (possibly for
		// the worse): rescan.
		c.rescanBest(oi)
		return
	}
	if !c.alive(&c.fwd[cur]) || c.rank(i).Better(c.rank(cur)) {
		c.rescanBest(oi)
	}
}

// rescanBest recomputes the best (tag, pid) for origin oi across all
// live entries of its register block (virtual nodes in program order,
// pids ascending: the first of equally ranked entries wins), caches its
// address in BestT and returns it; -1 when no live finite-rank entry
// exists, or no such origin.
func (c *Contra) rescanBest(oi int32) int32 {
	if oi < 0 {
		return -1
	}
	best := int32(-1)
	lo := oi * int32(c.blk)
	for i := lo; i < lo+int32(c.blk); i++ {
		if e := &c.fwd[i]; !e.present || !c.alive(e) {
			continue
		}
		if best < 0 || c.rank(i).Better(c.rank(best)) {
			best = i
		}
	}
	if best >= 0 && c.fwd[best].rankInf {
		best = -1
	}
	c.best[oi] = best
	return best
}

// bestHop resolves the current best next-hop port toward origin oi, or
// -1 when no best entry is cached. It backs route-flap detection for
// the metrics layer: a flap is a change in this value for a
// destination that already had one.
func (c *Contra) bestHop(oi int32) int {
	if i := c.bestOf(oi); i >= 0 {
		return int(c.fwd[i].nhop)
	}
	return -1
}

// alive reports whether an entry is usable: not expired (§5.4: refreshed
// within k probe periods, plus one of slack for probe jitter, plus the
// forced-refresh bound when suppression quiets refreshes — see
// setHorizons) and its port not presumed failed.
func (c *Contra) alive(e *fwdEntry) bool {
	return c.sw.Now()-e.updated <= c.expireNs && !c.portDead(int(e.nhop))
}

// portDead is the §5.4 failure detector: no probes on the port for k
// periods (stretched by the forced-refresh bound when suppression can
// quiet a port without packing's heartbeats — see setHorizons).
func (c *Contra) portDead(port int) bool {
	now := c.sw.Now()
	return now-c.lastProbe[port] > c.deadNs && now > c.deadNs
}

// handleData is SWIFORWARDPKT (Figure 7) with policy-aware flowlet
// switching, failure expiry, and lazy loop breaking.
func (c *Contra) handleData(pkt *sim.Packet, inPort int) {
	if pkt.TTL == 0 {
		c.sw.Drop(pkt, sim.DropTTL)
		return
	}
	pkt.TTL--

	dstEdge, ok := c.sw.Net.HostEdge(pkt.Dst)
	if !ok {
		c.sw.Drop(pkt, sim.DropNoHost)
		return
	}
	if dstEdge == c.prog.Switch {
		c.sw.DeliverLocal(pkt)
		return
	}
	now := c.sw.Now()
	fid := flowletHash(pkt.FlowID, pkt.Dst)

	// A tag stamped under a superseded era no longer names a virtual
	// node in the running product graph: make a fresh source-style
	// decision (any switch holds a BestT) instead of dropping traffic
	// caught in flight by a policy swap.
	if c.sw.IsHostPort(inPort) || !pkt.HasTag || pkt.Era != c.era {
		c.forwardFromSource(pkt, dstEdge, fid, now)
		return
	}
	c.forwardTransit(pkt, dstEdge, fid, now)
}

// forwardFromSource makes the source-switch decision: BestT selects
// the (tag, pid), pinned per flowlet.
func (c *Contra) forwardFromSource(pkt *sim.Packet, dstEdge topo.NodeID, fid uint32, now int64) {
	sk := sourceKey(dstEdge, fid)
	pin := c.srcPins.Find(sk)
	flowletNs := c.comp.Opts.FlowletTimeoutNs
	if pin != nil && now-pin.LastPkt < flowletNs && !c.portDead(int(pin.Port)) {
		// The pin freezes the resolved decision for the flowlet's
		// lifetime (§5.3): the first packet picked the then-best path
		// and the rest of the flowlet inherits it even as BestT moves.
		pin.LastPkt = now
		c.emit(pkt, int(pin.Port), pg.NodeID(pin.Tag), pin.Pid)
		return
	}
	oi := c.originIndex(dstEdge)
	i := c.bestOf(oi)
	if i < 0 || !c.alive(&c.fwd[i]) {
		// The dead incumbent's port is still the route traffic was
		// using: a rescan that lands elsewhere is a flap.
		oldHop := -1
		if c.mx != nil {
			oldHop = c.bestHop(oi)
		}
		i = c.rescanBest(oi)
		if c.mx != nil && oldHop >= 0 && c.bestHop(oi) != oldHop {
			c.mx.Flaps++
		}
		if i < 0 {
			c.sw.Drop(pkt, sim.DropNoRoute)
			return
		}
	}
	e := &c.fwd[i]
	_, _, pid := c.unreg(i)
	nhop, ntag, rank := int(e.nhop), e.ntag, c.rank(i)
	if c.ovr != nil && c.ovr.Match(pkt.FlowID) {
		if a, ok2 := c.override(dstEdge, pkt.FlowID, nhop); ok2 {
			nhop, ntag, pid, rank = a.nhop, a.ntag, a.pid, a.rank
		}
	}
	if c.tr != nil && pkt.Kind == sim.Data && c.tr.DecisionsOn() {
		c.recordDecision(pkt.FlowID, "source", dstEdge, 0, false, pid, nhop, rank)
	}
	// Nothing since Find touched the table, so a stale pin is rewritten
	// where it sits.
	if pin == nil {
		pin = c.srcPins.Claim(sk)
	}
	pin.Port = int32(nhop)
	pin.Tag = int32(ntag)
	pin.Pid = pid
	pin.LastPkt = now
	c.emit(pkt, nhop, ntag, pid)
}

// emit tags and transmits a packet (the source-side half of
// SWIFORWARDPKT: set pid from BestT, tag from the entry).
func (c *Contra) emit(pkt *sim.Packet, nhop int, ntag pg.NodeID, pid uint8) {
	if !pkt.HasTag {
		pkt.HasTag = true
		pkt.Size += sim.TagHeaderBytes
	}
	pkt.Pid = pid
	pkt.Tag = int32(ntag)
	pkt.Era = c.era
	c.sw.Send(nhop, pkt)
}

// forwardTransit forwards an already-tagged packet: flowlet table
// first, falling back to FwdT, with loop breaking.
func (c *Contra) forwardTransit(pkt *sim.Packet, dstEdge topo.NodeID, fid uint32, now int64) {
	// The tag comes straight off a packet: one that names no virtual
	// node of this switch (or no node at all) has pinned no flowlet and
	// finds no FwdT entry.
	ord := tagIndex(c.ordOf, pkt.Tag)

	// §5.5: lazy loop detection on TTL spread.
	looped := c.loopDetect(pkt)
	if looped {
		c.LoopBreaks++
		c.sw.Net.CountLoopBreak()
	}
	if ord < 0 {
		c.sw.Drop(pkt, sim.DropNoRoute)
		return
	}
	fk := flowletKey(ord, pkt.Pid, fid)
	if looped {
		c.flowlets.Remove(fk)
	}

	flowletNs := c.comp.Opts.FlowletTimeoutNs
	fe := c.flowlets.Find(fk)
	if fe != nil && now-fe.LastPkt < flowletNs && !c.portDead(int(fe.Port)) {
		fe.LastPkt = now
		pkt.Tag = fe.Tag
		c.sw.Send(int(fe.Port), pkt)
		return
	}

	// FwdT lookup for this tag; try the packet's pid first, then the
	// other pids in ascending order (same tag keeps it
	// policy-compliant). No pid-order slice: the data path must not
	// allocate per packet.
	i, usedPid := c.lookupAlive(c.originIndex(dstEdge), ord, pkt.Pid)
	if i < 0 {
		c.sw.Drop(pkt, sim.DropNoRoute)
		return
	}
	// Counterfactual overrides apply at the source only: the source
	// switch picks the path through the product graph (tag, pid) and
	// transit switches follow the tag, so re-pinning every transit hop
	// to its local runner-up would compose second choices into paths no
	// switch ever advertised (and, in practice, into loops).
	e := &c.fwd[i]
	nhop, ntag := int(e.nhop), e.ntag
	if c.tr != nil && pkt.Kind == sim.Data && c.tr.DecisionsOn() {
		c.recordDecision(pkt.FlowID, "transit", dstEdge, pg.NodeID(pkt.Tag), true, usedPid, nhop, c.rank(i))
	}
	// Nothing since Find touched the table, so a timed-out flowlet is
	// re-decided where it sits.
	if fe == nil {
		fe = c.flowlets.Claim(fk)
	}
	fe.Port = int32(nhop)
	fe.Tag = int32(ntag)
	fe.LastPkt = now
	pkt.Pid = usedPid
	pkt.Tag = int32(ntag)
	c.sw.Send(nhop, pkt)
}

// lookupAlive resolves the address of the live FwdT entry for (origin
// oi, local tag ordinal ord), trying pid first and then the remaining
// pids in ascending order; either index may be the -1 of a miss, and so
// may the address returned.
func (c *Contra) lookupAlive(oi, ord int32, pid uint8) (int32, uint8) {
	if oi < 0 || ord < 0 {
		return -1, pid
	}
	base := c.reg(oi, ord, 0)
	if int(pid) < c.nPids {
		if e := &c.fwd[base+int32(pid)]; e.present && c.alive(e) {
			return base + int32(pid), pid
		}
	}
	for p := 0; p < c.nPids; p++ {
		if uint8(p) == pid {
			continue
		}
		if e := &c.fwd[base+int32(p)]; e.present && c.alive(e) {
			return base + int32(p), uint8(p)
		}
	}
	return -1, pid
}

// SetTracer attaches a decision-trace recorder. The recorder's level
// gates what the router feeds it; a nil recorder restores the
// zero-cost path.
func (c *Contra) SetTracer(r *trace.Recorder) { c.tr = r; c.setAltOn() }

// SetChurn attaches this router's probe-table churn accumulator (nil
// detaches).
func (c *Contra) SetChurn(ch *metrics.Churn) { c.mx = ch }

// SetOverrides pins flows to an alternative forwarding choice for
// counterfactual replay (nil clears).
func (c *Contra) SetOverrides(o *trace.Overrides) { c.ovr = o; c.setAltOn() }

// setAltOn enables runner-up shadow maintenance exactly when someone
// will read the shadows: decision-level tracing or an override set. The
// shadows appear with it: one per register, until the next layout.
func (c *Contra) setAltOn() {
	c.altOn = (c.tr != nil && c.tr.DecisionsOn()) || c.ovr != nil
	if c.altOn && c.alt == nil {
		c.alt = make([]altShadow, len(c.fwd))
	}
}

// noteAlt records a losing probe offer (rejected by the merge, arriving
// on a port other than the incumbent route's) as register i's runner-up
// shadow: refreshed in place when it is the shadow's own port, adopted
// when it beats the stored shadow or the shadow has gone stale.
func (c *Contra) noteAlt(i int32, v pg.NodeID, inPort int, tag pg.NodeID, mv []float64, now int64) {
	r := c.policyRank(v, mv) // aliases evaluator scratch; copied below
	if r.IsInf() {
		return
	}
	a := &c.alt[i]
	if a.valid && a.nhop != int32(inPort) &&
		now-a.updated <= c.expireNs && !r.Better(a.rank) {
		return
	}
	a.valid = true
	a.nhop = int32(inPort)
	a.ntag = tag
	a.updated = now
	a.rank.Inf = r.Inf
	a.rank.V = append(a.rank.V[:0], r.V...)
}

// demoteToAlt moves register i's incumbent route into its runner-up
// shadow, called just before a different-port offer overwrites it: the
// path it names is still live, it merely stopped being preferred.
func (c *Contra) demoteToAlt(i int32) {
	e, a, r := &c.fwd[i], &c.alt[i], c.rank(i)
	a.valid = true
	a.nhop = e.nhop
	a.ntag = e.ntag
	a.updated = e.updated
	a.rank.Inf = r.Inf
	a.rank.V = append(a.rank.V[:0], r.V...)
}

// altChoice is one resolved forwarding alternative: a FwdT incumbent
// or a runner-up shadow, flattened to what SWIFORWARDPKT needs.
type altChoice struct {
	pid  uint8
	nhop int
	ntag pg.NodeID
	rank policy.Rank
}

// eachChoice visits every live forwarding choice for dst — FwdT
// incumbents and runner-up shadows — in deterministic table order,
// stopping when fn returns false. When restrict is set only choices at
// virtual node v are considered.
func (c *Contra) eachChoice(dst topo.NodeID, v pg.NodeID, restrict bool, now int64, fn func(altChoice) bool) {
	oi := c.originIndex(dst)
	if oi < 0 {
		return
	}
	for ord, vn := range c.prog.VNodes {
		if restrict && vn != v {
			continue
		}
		for p := 0; p < c.nPids; p++ {
			i := c.reg(oi, int32(ord), uint8(p))
			e := &c.fwd[i]
			if !e.present {
				continue
			}
			if c.alive(e) {
				if !fn(altChoice{pid: uint8(p), nhop: int(e.nhop), ntag: e.ntag, rank: c.rank(i)}) {
					return
				}
			}
			if c.alt == nil {
				continue
			}
			if a := &c.alt[i]; a.valid && now-a.updated <= c.expireNs && !c.portDead(int(a.nhop)) {
				if !fn(altChoice{pid: uint8(p), nhop: int(a.nhop), ntag: a.ntag, rank: a.rank}) {
					return
				}
			}
		}
	}
}

// scanAlt finds the best-ranked live choice for dst whose egress port
// differs from avoidPort — the runner-up a fresh decision had. When
// restrict is set only choices at virtual node v are considered, the
// policy-compliance constraint on transit alternatives.
func (c *Contra) scanAlt(dst topo.NodeID, v pg.NodeID, restrict bool, avoidPort int) (altChoice, bool) {
	bestRank := policy.Infinite()
	var out altChoice
	found := false
	c.eachChoice(dst, v, restrict, c.sw.Now(), func(a altChoice) bool {
		if a.nhop == avoidPort || a.rank.IsInf() {
			return true
		}
		if !found || a.rank.Better(bestRank) {
			bestRank, out, found = a.rank, a, true
		}
		return true
	})
	return out, found
}

// ecmpPick hash-spreads a flow over every live entry for dst, blind to
// rank — the ECMP counterfactual choice. The scan is two-pass (count,
// then index) so picking stays allocation-free.
func (c *Contra) ecmpPick(dst topo.NodeID, v pg.NodeID, restrict bool, flow uint64) (altChoice, bool) {
	now := c.sw.Now()
	count := uint32(0)
	c.eachChoice(dst, v, restrict, now, func(altChoice) bool { count++; return true })
	if count == 0 {
		return altChoice{}, false
	}
	pick := flowletHash(flow, dst) % count
	var out altChoice
	found := false
	c.eachChoice(dst, v, restrict, now, func(a altChoice) bool {
		if pick == 0 {
			out, found = a, true
			return false
		}
		pick--
		return true
	})
	return out, found
}

// override resolves the counterfactual replacement for a fresh source
// decision that chose port curHop. It returns false — leaving the
// policy's choice in place — when no live alternative exists.
func (c *Contra) override(dst topo.NodeID, flow uint64, curHop int) (altChoice, bool) {
	if c.ovr.Mode() == trace.ModeECMP {
		return c.ecmpPick(dst, 0, false, flow)
	}
	return c.scanAlt(dst, 0, false, curHop)
}

// recordDecision feeds one fresh forwarding decision to the tracer,
// with the runner-up computed against the same liveness view the
// decision itself used.
func (c *Contra) recordDecision(flow uint64, kind string, dst topo.NodeID, v pg.NodeID, restrict bool, pid uint8, port int, rank policy.Rank) {
	rPort := -1
	var rRank []float64
	if a, ok := c.scanAlt(dst, v, restrict, port); ok {
		rPort, rRank = a.nhop, a.rank.V
	}
	c.tr.Decision(c.sw.Now(), flow, c.sw.Name(), kind, port, rank.V, rPort, rRank, c.era, pid)
}

// loopDetect updates the TTL-range register for this packet and
// reports whether the spread exceeds the threshold (§5.5).
func (c *Contra) loopDetect(pkt *sim.Packet) bool {
	return c.loop.detect(pktHash(pkt.FlowID, pkt.Dst, int64(pkt.Seq)), pkt.TTL)
}

// sweep drops expired flowlet and source-pin entries to bound memory,
// mirroring hardware table aging.
func (c *Contra) sweep() {
	cutoff := c.sw.Now() - 4*c.comp.Opts.FlowletTimeoutNs
	c.flowlets.Expire(cutoff)
	c.srcPins.Expire(cutoff)
}

// Install atomically replaces this router's compiled artifact with a
// freshly compiled policy: the per-switch program, analysis result,
// rank evaluators and probe wire size all swap together, and the soft
// tables (FwdT, BestT, flowlets, source pins, loop registers) are
// flushed because their tag space belongs to the old product graph.
// Port-liveness state (lastProbe) survives — probe arrival is a
// physical signal, not policy state — and the per-origin probe version
// keeps counting so receivers' §5.1 ordering is monotonic across swaps.
//
// The new artifact must be compiled against the same topology and
// Options (core.Recompile guarantees this); era is the fleet-wide
// policy generation that stamps every probe and data packet from now
// on. Callers swap every router in the fabric in one event-loop step —
// Fleet.Install does — mirroring an atomic control-plane push.
func (c *Contra) Install(comp *core.Compiled, era uint8) {
	c.install(comp, era, newTables(comp, []topo.NodeID{c.prog.Switch}, false))
}

// install is Install with the new tables as windows of t.
func (c *Contra) install(comp *core.Compiled, era uint8, t *tables) {
	id := c.prog.Switch
	hadOrigin := c.prog.Origin != nil
	c.comp = comp
	c.prog = comp.Switch(id)
	c.res = comp.Analysis
	c.evCand = t.evaluator()
	c.probeSize = int32(comp.Stats.ProbeBytes + 18)
	c.era = era
	c.setHorizons()
	c.flushTables(t)
	if c.packing {
		// The packed flush reads the program each tick, so the timer
		// survives swaps unchanged; only the port sets need rebuilding.
		if c.sw != nil {
			c.recomputeAdv(t)
		}
		return
	}
	// The switch's origin role can change across policies (a waypoint
	// policy may prune a switch's send state entirely): start or stop
	// the probe generator to match.
	switch {
	case hadOrigin && c.prog.Origin == nil:
		c.originTimer.Cancel()
		c.originTimer = sim.Timer{}
	case !hadOrigin && c.prog.Origin != nil && c.sw != nil:
		period := comp.Opts.ProbePeriodNs
		c.originTimer = c.sw.Net.Eng.Every(c.sw.Now()+originStagger(id, period), period, (*originTick)(c))
	}
}

// originStagger deterministically offsets a switch's probe generator
// within the period, so origins never burst in sync — the same phase
// whether the origin started at deploy time or at a policy swap.
func originStagger(id topo.NodeID, period int64) int64 {
	return (int64(id) * 7919) % period
}

// Reboot implements sim.Rebooter: a switch coming back from a
// whole-node failure restarts with empty tables, zeroed probe
// freshness (every port presumed dead until fresh probes arrive) and a
// reset probe version — the cold-start warm-up a real reboot pays.
// Its neighbors' entries through it age out via §5.4 expiration, so
// the fabric re-converges around the rebooted switch from scratch.
func (c *Contra) Reboot() {
	c.flushTables(nil)
	for i := range c.lastProbe {
		c.lastProbe[i] = 0
	}
	c.version = 0
}

// flushTables drops every soft table: forwarding state, best-hop
// cache, flowlet pins, loop registers and any queued packed
// re-advertisements (they point into the flushed register blocks). The
// register tables are laid out afresh, as windows of t (nil: tables of
// the router's own).
func (c *Contra) flushTables(t *tables) {
	c.layoutTables(t)
	c.flowlets.Reset()
	c.srcPins.Reset()
	c.loop = loopTable{}
	c.pend = c.pend[:0]
	for i := range c.flushPorts {
		c.flushPorts[i].queued = 0
	}
}

// Era returns the policy generation this router currently runs.
func (c *Contra) Era() uint8 { return c.era }

// HasRoute reports whether the router holds a live source-switch
// decision for a destination switch (the chaos convergence monitor's
// probe).
func (c *Contra) HasRoute(dst topo.NodeID) bool {
	oi := c.originIndex(dst)
	if i := c.bestOf(oi); i >= 0 && c.alive(&c.fwd[i]) {
		return true
	}
	return c.rescanBest(oi) >= 0
}

// LiveRoutes returns the destination switches with a live best entry,
// in ascending NodeID order.
func (c *Contra) LiveRoutes() []topo.NodeID {
	var out []topo.NodeID
	for dst, oi := range c.comp.OriginOrd {
		if i := c.bestOf(oi); i >= 0 && c.alive(&c.fwd[i]) {
			out = append(out, topo.NodeID(dst))
		}
	}
	return out
}

// cloneRank snapshots a rank whose V aliases entry-owned storage that
// the next probe refresh overwrites in place; the diagnostic accessors
// return copies so retained ranks stay stable, as they were when every
// update allocated afresh.
func cloneRank(r policy.Rank) policy.Rank {
	if r.V != nil {
		r.V = append([]float64(nil), r.V...)
	}
	return r
}

// bestOrRescan is the source-switch decision the diagnostic accessors
// report: the address of the cached BestT entry, rescanned when none is
// cached.
func (c *Contra) bestOrRescan(dst topo.NodeID) int32 {
	oi := c.originIndex(dst)
	if i := c.bestOf(oi); i >= 0 {
		return i
	}
	return c.rescanBest(oi)
}

// BestNextHop exposes the current decision for a destination switch
// (diagnostics and tests): the neighbor the switch would send new
// flowlets toward, or -1.
func (c *Contra) BestNextHop(dst topo.NodeID) (port int, rank policy.Rank) {
	i := c.bestOrRescan(dst)
	if i < 0 {
		return -1, policy.Infinite()
	}
	return int(c.fwd[i].nhop), cloneRank(c.rank(i))
}

// BestEntry returns the source-switch decision for a destination: the
// (virtual node, pid) a fresh flowlet would be tagged with, plus its
// rank. Walking entries from here reproduces the exact path a packet
// takes (tags included), unlike chaining per-switch BestNextHop calls.
func (c *Contra) BestEntry(dst topo.NodeID) (vnode pg.NodeID, pid uint8, rank policy.Rank, ok bool) {
	i := c.bestOrRescan(dst)
	if i < 0 {
		return 0, 0, policy.Infinite(), false
	}
	_, ord, pid := c.unreg(i)
	return c.prog.VNodes[ord], pid, cloneRank(c.rank(i)), true
}

// Entry resolves one FwdT row: the egress port and the next tag for a
// packet tagged (vnode, pid) heading to dst, preferring the given pid
// but falling back to other pids on the same tag, exactly as the
// forwarding path does.
func (c *Contra) Entry(dst topo.NodeID, vnode pg.NodeID, pid uint8) (nhop int, ntag pg.NodeID, ok bool) {
	if i, _ := c.lookupAlive(c.originIndex(dst), tagIndex(c.ordOf, int32(vnode)), pid); i >= 0 {
		return int(c.fwd[i].nhop), c.fwd[i].ntag, true
	}
	return -1, 0, false
}

// flowletHash maps a flow to a flowlet key: the stand-in for the
// 5-tuple hash of §5.3. The destination must participate so that a
// flow's data and its reverse-direction acks (same flow id) never
// share a flowlet entry at a switch both directions traverse.
func flowletHash(flowID uint64, dst topo.NodeID) uint32 {
	x := (flowID ^ uint64(dst)<<40) * 0x9e3779b97f4a7c15
	return uint32(x >> 32)
}

// maxPinOrd bounds the local tag ordinals flowletKey can hold;
// layoutTables checks the program against it.
const maxPinOrd = 1<<23 - 1

// flowletKey packs a transit flowlet's identity — local tag ordinal,
// pid, flowlet hash — into one pin-table key. All 8 bits of pid and all
// 32 of fid have their own place, so distinct identities never share a
// key.
func flowletKey(ord int32, pid uint8, fid uint32) uint64 {
	return pintable.Used | uint64(ord)<<40 | uint64(pid)<<32 | uint64(fid)
}

// sourceKey packs a source pin's identity: destination switch and
// flowlet hash. dst is a valid (non-negative) node id.
func sourceKey(dst topo.NodeID, fid uint32) uint64 {
	return pintable.Used | uint64(dst)<<32 | uint64(fid)
}

// pktHash is the per-packet CRC stand-in used by loop detection;
// direction-sensitive for the same reason as flowletHash.
func pktHash(flowID uint64, dst topo.NodeID, seq int64) uint64 {
	x := flowID ^ uint64(dst)<<40 ^ uint64(seq)*0xbf58476d1ce4e5b9
	x ^= x >> 31
	x *= 0x94d049bb133111eb
	x ^= x >> 29
	return x
}
