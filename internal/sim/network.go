package sim

import (
	"fmt"
	"math/rand"

	"contra/internal/metrics"
	"contra/internal/stats"
	"contra/internal/topo"
	"contra/internal/trace"
)

// Config tunes the network model.
type Config struct {
	// BufferBytes is the per-direction link buffer; the paper uses
	// 1000 MSS (§6.3).
	BufferBytes int

	// DRETauNs is the utilization estimator time constant.
	DRETauNs float64

	// TrackVisited enables per-packet visited-switch bitmasks for loop
	// accounting (topologies up to 64 switches).
	TrackVisited bool

	// MinRTONs is the transport's minimum retransmission timeout;
	// 0 uses the conservative 2ms default of real TCP stacks. Packet
	// loss costs roughly this much, which is what makes congestion
	// expensive and load-aware routing valuable.
	MinRTONs int64
}

func (c *Config) fill() {
	if c.BufferBytes == 0 {
		c.BufferBytes = 1000 * 1500
	}
	if c.DRETauNs == 0 {
		c.DRETauNs = 200_000 // 200us, CONGA/HULA-style smoothing
	}
	if c.MinRTONs == 0 {
		c.MinRTONs = defaultMinRTONs
	}
}

// minRTO returns the configured transport floor.
func (n *Network) minRTO() float64 { return float64(n.Cfg.MinRTONs) }

// DropReason classifies discarded packets. Typed reasons keep the
// per-drop cost at an array increment; String gives the label reports
// and telemetry name them by.
type DropReason uint8

// Drop reasons.
const (
	DropQueue            DropReason = iota // drop-tail queue overflow
	DropLinkDown                           // transmit on / in flight over a down link
	DropTTL                                // TTL expired
	DropNoRoute                            // no usable forwarding entry
	DropNoHost                             // destination host unknown
	DropNoLocal                            // no local port for the destination
	DropProbeNoTrans                       // probe tag without a product-graph transition
	DropProbeUnsupported                   // scheme does not process probes
	DropNodeDown                           // endpoint node failed (switch_down)
	DropProbeLoss                          // injected probabilistic probe loss
	DropProbeStale                         // probe from a superseded policy era
	numDropReasons
)

var dropLabels = [numDropReasons]string{
	"drop_queue", "drop_linkdown", "drop_ttl", "drop_noroute",
	"drop_nohost", "drop_nolocal", "drop_probe_notrans", "drop_probe_unsupported",
	"drop_nodedown", "drop_probeloss", "drop_probe_stale",
}

// String returns the reason's label ("drop_queue", ...).
func (r DropReason) String() string { return dropLabels[r] }

// Totals is a network's traffic accounting since construction: what
// crossed the fabric (switch-switch links) by packet kind, what was
// discarded and why, and the transport and probe-aggregation event
// counts.
type Totals struct {
	DataBytes, AckBytes, ProbeBytes float64 // fabric bytes by packet kind
	TagBytes                        float64 // tag-header bytes on data packets
	Drops                           [numDropReasons]int64
	DropDataBytes                   float64 // data bytes discarded at a channel (queue, down link, loss)
	RTOs, FastRetx, FlowsDone       int64

	// ProbeTxSaved counts on-wire probe transmissions avoided by
	// multi-origin packing, ProbeSuppressed per-origin re-advertisements
	// skipped by delta suppression, LoopBreaks §5.5 loop-breaker firings.
	ProbeTxSaved, ProbeSuppressed, LoopBreaks int64
}

// Router is the forwarding logic attached to a switch: the Contra data
// plane or one of the baselines. Handle owns the packet: it must either
// forward it via sw.Send, deliver it via sw.DeliverLocal, or drop it
// via sw.Drop.
type Router interface {
	Attach(sw *SwitchDev) // called once before the simulation starts
	Handle(pkt *Packet, inPort int)
}

// channel is one direction of a link: a rate limiter with a drop-tail
// virtual queue, a propagation delay, and a DRE utilization estimator.
// The delivery metadata (receiving device, ingress port) is resolved
// once in NewNetwork so the per-packet path never consults maps or
// scans port lists.
type channel struct {
	from, to   topo.NodeID
	bytesPerNs float64
	delayNs    int64
	capBytes   float64
	busyUntil  int64
	probeLoss  float64
	dre        stats.DRE // by value: transmit touches it on every packet

	// In-flight packets in transmit order, threaded through Packet.next.
	// busyUntil strictly increases across transmits and delayNs is fixed,
	// so arrivals are FIFO and only the head's is on the engine queue.
	inHead, inTail *Packet

	toSwitch *SwitchDev // receiving switch, nil when to is a host
	toHost   *HostDev   // receiving host, nil when to is a switch
	inPort   int32      // ingress port index at to (switch delivery)

	// Flags, kept in inPort's word: scattered among the 8-byte fields
	// they cost 16 bytes of padding per channel.
	down      bool // effective: adminDown or either endpoint node failed
	adminDown bool // link-level admin state (link_down / pre-failed topology)
	fabric    bool // switch-switch (vs host-attach) link

	txBytes   float64
	drops     int64
	dropBytes float64
}

// queuedBytes returns the backlog at time t.
func (ch *channel) queuedBytes(t int64) float64 {
	if ch.busyUntil <= t {
		return 0
	}
	return float64(ch.busyUntil-t) * ch.bytesPerNs
}

// Network couples an Engine with a topology instance: devices, links,
// and measurement.
type Network struct {
	Eng  *Engine
	Topo *topo.Graph
	Cfg  Config

	// Dense per-node device tables indexed by topo.NodeID (nil where
	// the node is the other kind).
	switches []*SwitchDev
	hosts    []*HostDev
	chans    []channel     // 2 per link: linkID*2 (A->B), linkID*2+1 (B->A)
	portChan [][]int32     // node -> local port -> directed channel index
	hostPort []int32       // host -> port index on its edge switch, -1 otherwise
	hostEdge []topo.NodeID // host -> its edge switch, -1 otherwise
	nodeDown []bool        // node-level failure state (EvNodeDown/EvNodeUp)

	// Probe-loss injection: a dedicated deterministic RNG, decoupled
	// from the engine's so arming loss never perturbs any other
	// randomness consumer; probeLossOn gates the per-delivery check so
	// runs without loss pay nothing.
	lossRng        *rand.Rand
	probeLossOn    bool
	probeLossSeen  int64 // probes offered to lossy channels
	probeLossDrops int64 // probes discarded by injected loss

	pool pool
	// flowTab holds every window flow StartFlows registered, in order.
	// Packets and RTO events name a flow by its index here (Packet.flow
	// is index + 1); flows exists for the duplicate-id check alone.
	flowTab []*flowState
	flows   map[uint64]struct{}

	// tot is the traffic accounting, bumped per packet on the hot path
	// and read through Totals.
	tot Totals

	// misses counts bounds-checked register misses: packet fields a
	// router's register arrays had no entry for (CountRegisterMiss). It
	// is an audit counter, not traffic accounting, so it stays out of
	// Totals and every result built from it.
	misses int64
	// hostTx, hostRx and dropped count packets by Kind: transmitted and
	// received by hosts, and discarded anywhere (a channel or
	// SwitchDev.Drop). Audit checks data and ACK conservation with them;
	// like misses, they stay out of Totals.
	hostTx, hostRx, dropped [Probe + 1]int64

	// Measurement.
	FCT *stats.Sample // seconds, all completed flows
	// FCTQuant tracks p95 FCT with the P² streaming estimator, fed in
	// lockstep with the exact Sample (which answers mean, p50 and p99).
	FCTQuant   *stats.Quantiles
	QueueMSS   *stats.Sample // sampled fabric queue lengths in MSS
	RxSeries   *stats.Timeseries
	LoopedPkts int64
	DataPkts   int64

	// Trace, when set, receives per-flow path/queueing/FCT summaries
	// for every data packet (routers additionally feed it forwarding
	// decisions at the decisions level). Nil means tracing is off, and
	// every hook site gates on that nil so the hot path pays one
	// pointer check and stays byte-identical.
	Trace *trace.Recorder

	// Metrics, when set, receives periodic network-state samples (link
	// utilization/backlog/drops plus drop-reason totals) from
	// SampleMetrics. Nil means telemetry is off; the sampler is never
	// scheduled and no hook costs more than a pointer check.
	Metrics *metrics.Recorder

	// FlowDone, when set, fires on each flow completion.
	FlowDone func(f FlowSpec, fctNs int64)

	// OnHostRx, when set, observes every data packet arriving at a
	// host (policy-compliance assertions in tests use the Visited
	// bitmask).
	OnHostRx func(pkt *Packet)
}

// NewNetwork builds the device and channel state for a topology. Call
// SetRouter for every switch, then Start.
func NewNetwork(e *Engine, g *topo.Graph, cfg Config) *Network {
	cfg.fill()
	if e.net != nil {
		panic("sim: engine already drives a network")
	}
	n := &Network{
		Eng:      e,
		Topo:     g,
		Cfg:      cfg,
		switches: make([]*SwitchDev, g.NumNodes()),
		hosts:    make([]*HostDev, g.NumNodes()),
		chans:    make([]channel, 2*g.NumLinks()),
		hostPort: make([]int32, g.NumNodes()),
		hostEdge: make([]topo.NodeID, g.NumNodes()),
		nodeDown: make([]bool, g.NumNodes()),
		flows:    make(map[uint64]struct{}),
		FCT:      stats.NewSample(),
		FCTQuant: stats.NewQuantiles(0.95),
		QueueMSS: stats.NewReservoir(1<<16, 11),
	}
	e.net = n
	// One decay-factor memo for every channel's estimator, sized from
	// their number like the tables above.
	decay := stats.NewDecayMemo(cfg.DRETauNs, len(n.chans))
	for _, node := range g.Nodes() {
		n.hostPort[node.ID] = -1
		n.hostEdge[node.ID] = -1
		switch node.Kind {
		case topo.Switch:
			n.switches[node.ID] = &SwitchDev{Net: n, ID: node.ID}
		case topo.Host:
			n.hosts[node.ID] = &HostDev{net: n, id: node.ID}
		}
	}
	for _, l := range g.Links() {
		fabric := g.Node(l.A).Kind == topo.Switch && g.Node(l.B).Kind == topo.Switch
		for d := 0; d < 2; d++ {
			ch := &n.chans[int(l.ID)*2+d]
			ch.from, ch.to = l.A, l.B
			if d == 1 {
				ch.from, ch.to = l.B, l.A
			}
			ch.bytesPerNs = l.Bandwidth / 8 / 1e9
			ch.delayNs = l.Delay
			ch.capBytes = float64(cfg.BufferBytes)
			ch.dre = decay.NewDRE()
			ch.fabric = fabric
			// Links marked down in the topology (pre-failed,
			// "asymmetric" setups) start down in the simulator too.
			ch.adminDown = l.Down
			ch.down = l.Down
			ch.toSwitch = n.switches[ch.to]
			ch.toHost = n.hosts[ch.to]
			ch.inPort = int32(g.PortTo(ch.to, ch.from))
		}
	}
	// Per-node port -> directed channel index, replacing the
	// Ports-slice walk plus Link lookup on every transmit.
	n.portChan = make([][]int32, g.NumNodes())
	for _, node := range g.Nodes() {
		ports := g.Ports(node.ID)
		row := make([]int32, len(ports))
		for i, p := range ports {
			d := 0
			if g.Link(p.Link).B == node.ID {
				d = 1
			}
			row[i] = int32(p.Link)*2 + int32(d)
		}
		n.portChan[node.ID] = row
		if node.Kind == topo.Host {
			edge := g.HostEdge(node.ID)
			n.hostEdge[node.ID] = edge
			n.hostPort[node.ID] = int32(g.PortTo(edge, node.ID))
		}
	}
	return n
}

// SetRouter installs forwarding logic on a switch.
func (n *Network) SetRouter(sw topo.NodeID, r Router) {
	dev := n.switches[sw]
	if dev == nil {
		panic(fmt.Sprintf("sim: %d is not a switch", sw))
	}
	dev.router = r
}

// Start attaches all routers. Every switch must have one.
func (n *Network) Start() {
	for _, id := range n.Topo.Switches() {
		if n.switches[id].router == nil {
			panic(fmt.Sprintf("sim: switch %s has no router", n.Topo.Node(id).Name))
		}
	}
	// Deterministic attach order.
	for _, id := range n.Topo.Switches() {
		n.switches[id].router.Attach(n.switches[id])
	}
}

// Switch returns a switch device.
func (n *Network) Switch(id topo.NodeID) *SwitchDev { return n.switches[id] }

// hostOf returns the host device for a node id.
func (n *Network) hostOf(id topo.NodeID) *HostDev { return n.hosts[id] }

// HostEdge returns the edge switch a host attaches to, from the dense
// table built in NewNetwork (routers use it on the per-packet path).
func (n *Network) HostEdge(id topo.NodeID) (topo.NodeID, bool) {
	if int(id) >= len(n.hostEdge) {
		return -1, false
	}
	e := n.hostEdge[id]
	return e, e >= 0
}

// channelFor returns the directed channel leaving `from` on local port
// index `port`.
func (n *Network) channelFor(from topo.NodeID, port int) *channel {
	return &n.chans[n.portChan[from][port]]
}

// transmit pushes a packet onto a directed channel, applying the
// drop-tail queue and reserving its arrival at the far end. The arrival
// goes on the engine queue only when the channel was idle; otherwise
// the packet waits its turn on the channel's in-flight FIFO.
func (n *Network) transmit(from topo.NodeID, port int, pkt *Packet) {
	chIdx := n.portChan[from][port]
	ch := &n.chans[chIdx]
	now := n.Eng.Now()
	if ch.down {
		n.countDrop(ch, pkt, n.downReason(ch))
		n.Free(pkt)
		return
	}
	if ch.queuedBytes(now)+float64(pkt.Size) > ch.capBytes {
		n.countDrop(ch, pkt, DropQueue)
		n.Free(pkt)
		return
	}
	txStart := ch.busyUntil
	if txStart < now {
		txStart = now
	}
	if n.Trace != nil && pkt.Kind == Data {
		pkt.QueueNs += txStart - now
	}
	txDur := int64(float64(pkt.Size) / ch.bytesPerNs)
	if txDur < 1 {
		txDur = 1
	}
	ch.busyUntil = txStart + txDur
	ch.dre.Add(now, int(pkt.Size))
	ch.txBytes += float64(pkt.Size)
	n.accountTx(ch, pkt)

	pkt.dueAt, pkt.dueSeq = n.Eng.reserve(ch.busyUntil + ch.delayNs)
	if ch.inHead == nil {
		ch.inHead = pkt
		n.Eng.pushDeliver(event{at: pkt.dueAt, seq: pkt.dueSeq, kind: evDeliver, arg: chIdx})
	} else {
		ch.inTail.next = pkt
	}
	ch.inTail = pkt
}

func (n *Network) accountTx(ch *channel, pkt *Packet) {
	if !ch.fabric {
		return
	}
	switch pkt.Kind {
	case Data:
		n.tot.DataBytes += float64(pkt.Size)
	case Ack:
		n.tot.AckBytes += float64(pkt.Size)
	case Probe:
		n.tot.ProbeBytes += float64(pkt.Size)
	}
	if pkt.HasTag && pkt.Kind == Data {
		n.tot.TagBytes += TagHeaderBytes
	}
}

func (n *Network) countDrop(ch *channel, pkt *Packet, reason DropReason) {
	ch.drops++
	ch.dropBytes += float64(pkt.Size)
	n.tot.Drops[reason]++
	n.dropped[pkt.Kind]++
	if pkt.Kind == Data {
		n.tot.DropDataBytes += float64(pkt.Size)
	}
}

// downReason attributes a drop on a down channel: node failure when
// either endpoint is failed, plain link-down otherwise. Only reached on
// the already-down branch, so the healthy path pays nothing.
func (n *Network) downReason(ch *channel) DropReason {
	if n.nodeDown[ch.from] || n.nodeDown[ch.to] {
		return DropNodeDown
	}
	return DropLinkDown
}

// SetProbeLossSeed (re)seeds the dedicated probe-loss RNG. scenario.Run
// calls it with a scenario-derived seed before injecting EvProbeLoss
// events, which is what makes measurement noise a deterministic
// function of the scenario seed.
func (n *Network) SetProbeLossSeed(seed int64) {
	n.lossRng = rand.New(rand.NewSource(seed))
}

// ProbeLossStats reports how many probes crossed loss-injected channels
// and how many of those the injection discarded.
func (n *Network) ProbeLossStats() (seen, dropped int64) {
	return n.probeLossSeen, n.probeLossDrops
}

// Totals returns the traffic accounting so far.
func (n *Network) Totals() Totals { return n.tot }

// CountProbeSaved records on-wire probe transmissions avoided by
// multi-origin packing (routers call it from their flush paths).
func (n *Network) CountProbeSaved(k int64) { n.tot.ProbeTxSaved += k }

// CountProbeSuppressed records per-origin re-advertisements skipped by
// delta suppression.
func (n *Network) CountProbeSuppressed(k int64) { n.tot.ProbeSuppressed += k }

// CountLoopBreak records one firing of a router's loop breaker.
func (n *Network) CountLoopBreak() { n.tot.LoopBreaks++ }

// CountRegisterMiss records one packet field that indexed no register:
// a probe naming an origin, tag or pid the receiving router has no
// register for. A well-formed run never takes one (Audit).
func (n *Network) CountRegisterMiss() { n.misses++ }

// RegisterMisses returns the register misses counted so far.
func (n *Network) RegisterMisses() int64 { return n.misses }

// Audit checks the invariants of a quiet network (between events, as at
// a run's horizon). No router took a register miss. Packets are
// conserved: every packet the pool ever drew from a slab is on the
// freelist or in flight on a channel, exactly once — a packet a router
// leaked, or freed twice, breaks the count. So are probe buffers: every
// one allocated is free or held by a packed probe in flight. And so are
// data packets and ACKs, each kind on its own: every one a host sent was
// received by a host, dropped (for any reason, on a channel or by
// SwitchDev.Drop) or is still in flight — a router that frees one
// without Drop breaks the count. Every channel's packets in flight hold
// strictly increasing reserved slots, ending at inTail. And the engine
// queue stands for exactly what is pending (auditQueue). It walks the
// freelists, the channel FIFOs and the queue once each, so the packet
// path pays three counter increments for it and the event loop nothing.
//
// The FIFO premise rests on transmit: busyUntil strictly increases and
// delayNs is one constant per channel. Any future per-packet delay
// (jitter, reordering models) breaks it, and with it the single queue
// entry per channel; the slot check is the tripwire.
func (n *Network) Audit() error {
	if n.misses > 0 {
		return fmt.Errorf("sim: %d register misses", n.misses)
	}
	drawn, bufs := n.pool.drawn()
	var inFlight [Probe + 1]int64
	total, held := 0, 0
	for i := range n.chans {
		ch := &n.chans[i]
		var last *Packet
		for p := ch.inHead; p != nil && total <= drawn; last, p = p, p.next {
			if last != nil && (p.dueAt <= last.dueAt || p.dueSeq <= last.dueSeq) {
				return fmt.Errorf("sim: channel %d's in-flight slots not strictly increasing: (%d, %d) then (%d, %d)",
					i, last.dueAt, last.dueSeq, p.dueAt, p.dueSeq)
			}
			total++
			inFlight[p.Kind]++
			if p.Packed != nil {
				held++
			}
		}
		if last != nil && last != ch.inTail {
			return fmt.Errorf("sim: channel %d's inTail is not its last packet in flight", i)
		}
	}
	free, freeBufs := n.pool.free()
	if free+total != drawn {
		return fmt.Errorf("sim: packets not conserved: %d drawn from slabs, %d free, %d in flight", drawn, free, total)
	}
	if freeBufs+held != bufs {
		return fmt.Errorf("sim: probe buffers not conserved: %d allocated, %d free, %d held in flight", bufs, freeBufs, held)
	}
	for k, name := range [...]string{Data: "data", Ack: "ack"} {
		sent, rcvd, dropped := n.hostTx[k], n.hostRx[k], n.dropped[k]
		if sent != rcvd+dropped+inFlight[k] {
			return fmt.Errorf("sim: %s packets not conserved: %d sent by hosts, %d received by hosts, %d dropped, %d in flight",
				name, sent, rcvd, dropped, inFlight[k])
		}
	}
	return n.auditQueue()
}

// auditQueue checks the engine queue against the channels and flows it
// stands for, once Engine.checkOrder has found it in order and
// Engine.checkTimers its entries no earlier than now and in step with
// the timer slots. Every
// channel with packets in flight has exactly one arrival entry, in the
// run or the hot heap, keyed to its head's slot; an idle channel has
// none. Every flow with a live RTO carrier (carrierSeq != 0) has exactly
// one queued, at carrierAt and at or before its deadline; any other
// evRTO entry is an orphan that will pop unseen.
func (n *Network) auditQueue() error {
	e := n.Eng
	if err := e.checkOrder(); err != nil {
		return err
	}
	if err := e.checkTimers(); err != nil {
		return err
	}
	// One bit per channel and per flow: an entry for it has been seen.
	words := (len(n.chans) + 63) / 64
	marks := make([]uint64, words+(len(n.flowTab)+63)/64)
	chanSeen, flowSeen := marks[:words], marks[words:]
	mark := func(set []uint64, i int32) (again bool) {
		w, b := i>>6, uint64(1)<<(i&63)
		again = set[w]&b != 0
		set[w] |= b
		return again
	}
	for i := 0; i < e.runLen+len(e.hot); i++ {
		var ev *event
		if i < e.runLen {
			ev = e.runAt(i)
		} else {
			ev = &e.hot[i-e.runLen]
		}
		if ev.arg < 0 || int(ev.arg) >= len(n.chans) {
			return fmt.Errorf("sim: arrival queued for channel %d of %d", ev.arg, len(n.chans))
		}
		head := n.chans[ev.arg].inHead
		switch {
		case head == nil:
			return fmt.Errorf("sim: idle channel %d has an arrival queued at (%d, %d)", ev.arg, ev.at, ev.seq)
		case ev.at != head.dueAt || ev.seq != head.dueSeq:
			return fmt.Errorf("sim: channel %d's arrival queued at (%d, %d), its head is due at (%d, %d)",
				ev.arg, ev.at, ev.seq, head.dueAt, head.dueSeq)
		case mark(chanSeen, ev.arg):
			return fmt.Errorf("sim: channel %d has two arrivals queued", ev.arg)
		}
	}
	for i := range e.cold {
		ev := &e.cold[i]
		if ev.kind != evRTO {
			continue
		}
		if ev.arg < 0 || int(ev.arg) >= len(n.flowTab) {
			return fmt.Errorf("sim: RTO carrier queued for flow %d of %d", ev.arg, len(n.flowTab))
		}
		st := n.flowTab[ev.arg]
		if ev.seq != st.carrierSeq {
			continue // orphan
		}
		if mark(flowSeen, ev.arg) {
			return fmt.Errorf("sim: flow %d has two live RTO carriers", st.spec.ID)
		}
		if ev.at != st.carrierAt || ev.at > st.rtoAt || ev.seq > st.rtoSeq {
			return fmt.Errorf("sim: flow %d's RTO carrier (%d, %d) is past its deadline (%d, %d)",
				st.spec.ID, ev.at, ev.seq, st.rtoAt, st.rtoSeq)
		}
	}
	for i := range n.chans {
		if n.chans[i].inHead != nil && chanSeen[i>>6]&(1<<(i&63)) == 0 {
			return fmt.Errorf("sim: channel %d has packets in flight and no arrival queued", i)
		}
	}
	for i, st := range n.flowTab {
		if st.carrierSeq != 0 && flowSeen[i>>6]&(1<<(i&63)) == 0 {
			return fmt.Errorf("sim: flow %d has no live RTO carrier queued", st.spec.ID)
		}
	}
	return nil
}

// deliver hands a packet arriving over ch to the receiving device (the
// evDeliver event body; the engine has already unlinked it).
func (n *Network) deliver(ch *channel, pkt *Packet) {
	if ch.down {
		// Link (or an endpoint node) died while in flight.
		n.countDrop(ch, pkt, n.downReason(ch))
		n.Free(pkt)
		return
	}
	if n.probeLossOn && pkt.Kind == Probe && ch.probeLoss > 0 {
		n.probeLossSeen++
		if n.lossRng.Float64() < ch.probeLoss {
			n.probeLossDrops++
			n.countDrop(ch, pkt, DropProbeLoss)
			n.Free(pkt)
			return
		}
	}
	if sw := ch.toSwitch; sw != nil {
		if n.Trace != nil && pkt.Kind == Data {
			n.Trace.Hop(pkt.FlowID, int64(pkt.Seq), n.Topo.Node(ch.to).Name)
		}
		if n.Cfg.TrackVisited && pkt.Kind == Data {
			to := ch.to
			bit := uint64(1) << (uint(to) & 63)
			if int(to) < 64 {
				if pkt.Visited&bit != 0 {
					n.LoopedPkts++
				}
				pkt.Visited |= bit
			}
		}
		sw.router.Handle(pkt, int(ch.inPort))
		return
	}
	if h := ch.toHost; h != nil {
		h.receive(pkt)
		return
	}
	n.Free(pkt)
}

// SampleQueues records the instantaneous backlog of every fabric
// channel, in MSS units (Figure 13).
func (n *Network) SampleQueues() {
	now := n.Eng.Now()
	for i := range n.chans {
		ch := &n.chans[i]
		if !ch.fabric {
			continue
		}
		n.QueueMSS.Add(ch.queuedBytes(now) / 1500)
	}
}

// AttachMetrics installs a telemetry recorder and registers every
// fabric channel (directed, "from->to") as a link series, plus the
// typed drop-reason labels. Routers that keep probe tables take their
// churn accumulators separately, through SetChurn.
func (n *Network) AttachMetrics(m *metrics.Recorder) {
	for i := range n.chans {
		ch := &n.chans[i]
		if !ch.fabric {
			continue
		}
		m.RegisterLink(n.Topo.Node(ch.from).Name + "->" + n.Topo.Node(ch.to).Name)
	}
	m.RegisterDropReasons(dropLabels[:])
	n.Metrics = m
}

// SampleMetrics records one telemetry tick: per-fabric-channel
// utilization (via the non-mutating DRE peek — sampling must not
// perturb what probes measure), instantaneous backlog, and cumulative
// drops, plus the network-wide per-reason drop totals. It is the
// timer callback scenario.Run schedules at metrics_interval_ns.
func (n *Network) SampleMetrics() {
	m := n.Metrics
	if m == nil {
		return
	}
	now := n.Eng.Now()
	m.BeginSample(now)
	for i := range n.chans {
		ch := &n.chans[i]
		if !ch.fabric {
			continue
		}
		m.Link(ch.dre.UtilizationPeek(now, ch.bytesPerNs*8e9), ch.queuedBytes(now), ch.drops)
	}
	m.Drops(n.tot.Drops[:])
	m.EndSample()
}

// FabricBytes returns total bytes transmitted on switch-switch links,
// the Figure 16 traffic-overhead metric.
func (n *Network) FabricBytes() float64 {
	return n.tot.DataBytes + n.tot.AckBytes + n.tot.ProbeBytes
}

// SwitchDev is a switch instance: ports plus the attached Router.
type SwitchDev struct {
	Net    *Network
	ID     topo.NodeID
	router Router
}

// Router returns the forwarding logic SetRouter installed (nil before).
// Callers discover what a router can do the way Rebooter is discovered:
// by asserting an optional interface on it.
func (s *SwitchDev) Router() Router { return s.router }

// PortCount returns the number of ports.
func (s *SwitchDev) PortCount() int { return len(s.Net.portChan[s.ID]) }

// Peer returns the node on the far side of a port.
func (s *SwitchDev) Peer(port int) topo.NodeID {
	return s.Net.channelFor(s.ID, port).to
}

// IsHostPort reports whether a port attaches a host.
func (s *SwitchDev) IsHostPort(port int) bool {
	return s.Net.channelFor(s.ID, port).toHost != nil
}

// IsSwitchPort reports whether a port attaches another switch.
func (s *SwitchDev) IsSwitchPort(port int) bool { return !s.IsHostPort(port) }

// Send transmits a packet out a port.
func (s *SwitchDev) Send(port int, pkt *Packet) { s.Net.transmit(s.ID, port, pkt) }

// TxUtil returns the utilization of the outgoing direction of a port:
// what a Contra probe arriving on that port folds into its metric
// vector (traffic flows opposite to probes).
func (s *SwitchDev) TxUtil(port int) float64 {
	ch := s.Net.channelFor(s.ID, port)
	return ch.dre.Utilization(s.Net.Eng.Now(), ch.bytesPerNs*8e9)
}

// PortDelay returns the propagation delay of a port's link in ns.
func (s *SwitchDev) PortDelay(port int) int64 {
	return s.Net.channelFor(s.ID, port).delayNs
}

// PortDown reports whether the port's link is administratively down.
// Data planes cannot see this directly — they infer failures from
// missing probes (§5.4) — but baselines with static tables use it to
// model offline recomputation, and tests use it for assertions.
func (s *SwitchDev) PortDown(port int) bool {
	return s.Net.channelFor(s.ID, port).down
}

// DeliverLocal sends a packet to a locally attached host, stripping
// the scheme tag.
func (s *SwitchDev) DeliverLocal(pkt *Packet) {
	// hostPort is the port index on the destination's own edge switch;
	// it only names one of our ports if that edge switch is us.
	port := s.Net.hostPort[pkt.Dst]
	row := s.Net.portChan[s.ID]
	if port < 0 || int(port) >= len(row) || s.Net.chans[row[port]].to != pkt.Dst {
		s.Drop(pkt, DropNoLocal)
		return
	}
	if pkt.HasTag {
		pkt.Size -= TagHeaderBytes
		pkt.HasTag = false
	}
	s.Send(int(port), pkt)
}

// Drop discards a packet, counting the reason.
func (s *SwitchDev) Drop(pkt *Packet, reason DropReason) {
	s.Net.tot.Drops[reason]++
	s.Net.dropped[pkt.Kind]++
	s.Net.Free(pkt)
}

// Now returns the simulation time.
func (s *SwitchDev) Now() int64 { return s.Net.Eng.Now() }

// Name returns the switch's topology name (for diagnostics).
func (s *SwitchDev) Name() string { return s.Net.Topo.Node(s.ID).Name }
