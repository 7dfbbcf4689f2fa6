package sim

import (
	"fmt"
	"math/rand"
	"testing"

	"contra/internal/topo"
)

// Differential tests for the two places where the engine queue holds
// one entry for many occurrences: a channel's in-flight FIFO and a
// flow's RTO carrier. The reference for both is refEngine with one
// closure per packet and per arm.

// triangleTopo: three fully connected switches with two hosts each.
// Most links share one bandwidth and delay so arrivals on different
// channels collide on the same nanosecond; one link differs.
func triangleTopo() *topo.Graph {
	g := topo.New("triangle")
	var sw [3]topo.NodeID
	for i := range sw {
		sw[i] = g.AddNode(fmt.Sprintf("S%d", i), topo.Switch)
	}
	g.AddLink(sw[0], sw[1], 10e9, 1000)
	g.AddLink(sw[1], sw[2], 10e9, 1000)
	g.AddLink(sw[0], sw[2], 4e9, 2500)
	for i := range sw {
		for j := 0; j < 2; j++ {
			h := g.AddNode(fmt.Sprintf("H%d_%d", i, j), topo.Host)
			g.AddLink(sw[i], h, 10e9, 1000)
		}
	}
	return g
}

// arrival is one packet reaching the far end of a channel.
type arrival struct {
	at int64
	ch int32
	id int64
}

// fwdPort is the forwarding rule both sides of the delivery test use:
// a deterministic walk that spreads packets over every port.
func fwdPort(id int64, ttl uint8, ports int) int { return int(id+int64(ttl)) % ports }

// walkRouter records every arrival and forwards by fwdPort until the
// TTL runs out.
type walkRouter struct {
	sw  *SwitchDev
	log *[]arrival
}

func (r *walkRouter) Attach(sw *SwitchDev) { r.sw = sw }
func (r *walkRouter) Handle(pkt *Packet, inPort int) {
	n := r.sw.Net
	*r.log = append(*r.log, arrival{n.Eng.Now(), n.portChan[r.sw.ID][inPort] ^ 1, int64(pkt.Seq)})
	if pkt.TTL == 0 {
		r.sw.Drop(pkt, DropTTL)
		return
	}
	pkt.TTL--
	port := fwdPort(int64(pkt.Seq), pkt.TTL, r.sw.PortCount())
	pkt.Dst = r.sw.Peer(port) // lets OnHostRx name the receiving host
	r.sw.Send(port, pkt)
}

// refNet re-implements transmit/deliver/apply with one refEngine
// closure per packet: the scheduling the channel FIFOs replaced.
type refNet struct {
	eng      refEngine
	real     *Network // static structure only: portChan, channel endpoints
	chans    []refChan
	nodeDown []bool
	log      []arrival
	drops    [numDropReasons]int64
}

type refChan struct {
	bytesPerNs float64
	busyUntil  int64
	adminDown  bool
	down       bool
}

func newRefNet(n *Network) *refNet {
	r := &refNet{real: n, chans: make([]refChan, len(n.chans)), nodeDown: make([]bool, len(n.nodeDown))}
	for i := range n.chans {
		r.chans[i].bytesPerNs = n.chans[i].bytesPerNs
	}
	return r
}

func (r *refNet) downReason(ch int32) DropReason {
	if c := &r.real.chans[ch]; r.nodeDown[c.from] || r.nodeDown[c.to] {
		return DropNodeDown
	}
	return DropLinkDown
}

func (r *refNet) transmit(from topo.NodeID, port int, id int64, size int, ttl uint8) {
	chIdx := r.real.portChan[from][port]
	ch := &r.chans[chIdx]
	static := &r.real.chans[chIdx]
	now := r.eng.now
	if ch.down {
		r.drops[r.downReason(chIdx)]++
		return
	}
	queued := 0.0
	if ch.busyUntil > now {
		queued = float64(ch.busyUntil-now) * ch.bytesPerNs
	}
	if queued+float64(size) > static.capBytes {
		r.drops[DropQueue]++
		return
	}
	txStart := ch.busyUntil
	if txStart < now {
		txStart = now
	}
	txDur := int64(float64(size) / ch.bytesPerNs)
	if txDur < 1 {
		txDur = 1
	}
	ch.busyUntil = txStart + txDur
	r.eng.At(ch.busyUntil+static.delayNs, func() {
		if ch.down {
			r.drops[r.downReason(chIdx)]++
			return
		}
		r.log = append(r.log, arrival{r.eng.now, chIdx, id})
		if static.toSwitch == nil {
			return // host: consumed
		}
		if ttl == 0 {
			r.drops[DropTTL]++
			return
		}
		ports := len(r.real.portChan[static.to])
		r.transmit(static.to, fwdPort(id, ttl-1, ports), id, size, ttl-1)
	})
}

func (r *refNet) refresh(ch int32) {
	c := &r.real.chans[ch]
	r.chans[ch].down = r.chans[ch].adminDown || r.nodeDown[c.from] || r.nodeDown[c.to]
}

func (r *refNet) apply(ev NetworkEvent) {
	a, b := int32(ev.Link)*2, int32(ev.Link)*2+1
	switch ev.Kind {
	case EvLinkDown, EvLinkUp:
		r.chans[a].adminDown = ev.Kind == EvLinkDown
		r.chans[b].adminDown = ev.Kind == EvLinkDown
		r.refresh(a)
		r.refresh(b)
	case EvLinkScale:
		rate := r.real.Topo.Link(ev.Link).Bandwidth / 8 / 1e9 * ev.Scale
		r.chans[a].bytesPerNs, r.chans[b].bytesPerNs = rate, rate
	case EvNodeDown, EvNodeUp:
		r.nodeDown[ev.Node] = ev.Kind == EvNodeDown
		for _, ch := range r.real.portChan[ev.Node] {
			r.refresh(ch)
			r.refresh(ch ^ 1)
		}
	}
}

// TestChannelFIFOMatchesPerPacketScheduling injects random packets on
// every channel of a real Network through link scaling, link and node
// failures and recoveries, and requires the recording routers and hosts
// to see the identical (time, channel, packet) sequence, and the same
// typed drop counts, as one-event-per-packet scheduling; Network.Audit
// holds the queue to the in-flight FIFOs between run windows.
func TestChannelFIFOMatchesPerPacketScheduling(t *testing.T) {
	sizes := []int{64, 500, 1500, 1500, 9000}
	for seed := int64(1); seed <= 20; seed++ {
		g := triangleTopo()
		e := NewEngine()
		n := NewNetwork(e, g, Config{BufferBytes: 20_000})
		var got []arrival
		for _, s := range g.Switches() {
			n.SetRouter(s, &walkRouter{log: &got})
		}
		n.Start()
		n.OnHostRx = func(pkt *Packet) {
			got = append(got, arrival{e.Now(), n.portChan[pkt.Dst][0] ^ 1, int64(pkt.Seq)})
		}
		ref := newRefNet(n)

		rng := rand.New(rand.NewSource(seed))
		const horizon = 200_000
		for id := int64(0); id < 600; id++ {
			if id%40 == 7 {
				ev := NetworkEvent{
					At:    int64(rng.Intn(horizon/500)) * 500,
					Kind:  []EventKind{EvLinkDown, EvLinkUp, EvLinkScale, EvNodeDown, EvNodeUp}[rng.Intn(5)],
					Link:  topo.LinkID(rng.Intn(g.NumLinks())),
					Node:  topo.NodeID(rng.Intn(g.NumNodes())),
					Scale: []float64{0.1, 0.5, 1, 3}[rng.Intn(4)],
				}
				n.Inject(ev)
				ref.eng.At(ev.At, func() { ref.apply(ev) })
			}
			// Times on a coarse grid and few distinct sizes: arrivals on
			// different channels land on the same nanosecond and tie-break
			// by reserved sequence.
			at := int64(rng.Intn(horizon/500)) * 500
			from := topo.NodeID(rng.Intn(g.NumNodes()))
			port := rng.Intn(len(n.portChan[from]))
			size := sizes[rng.Intn(len(sizes))]
			ttl := uint8(rng.Intn(6))
			id := id
			e.At(at, func() {
				pkt := n.NewPacket()
				pkt.Kind, pkt.Size, pkt.Seq, pkt.TTL = Data, int32(size), int32(id), ttl
				pkt.Dst = n.chans[n.portChan[from][port]].to
				n.hostTx[Data]++ // counted as a host's, so Audit's conservation holds
				n.transmit(from, port, pkt)
			})
			ref.eng.At(at, func() { ref.transmit(from, port, id, size, ttl) })
		}

		for until := int64(0); until <= 2*horizon; until += 3_000 {
			e.Run(until)
			ref.eng.Run(until)
			if err := n.Audit(); err != nil {
				t.Fatalf("seed %d at %d: %v", seed, until, err)
			}
		}
		e.Run(1 << 40)
		ref.eng.Run(1 << 40)
		if e.Pending() != 0 {
			t.Fatalf("seed %d: %d entries left on the queue", seed, e.Pending())
		}
		if len(got) == 0 || len(got) != len(ref.log) {
			t.Fatalf("seed %d: %d arrivals, reference %d", seed, len(got), len(ref.log))
		}
		for i := range got {
			if got[i] != ref.log[i] {
				t.Fatalf("seed %d: arrival %d is %+v, reference %+v", seed, i, got[i], ref.log[i])
			}
		}
		if n.tot.Drops != ref.drops {
			t.Fatalf("seed %d: drops %v, reference %v", seed, n.tot.Drops, ref.drops)
		}
		if ref.drops[DropQueue] == 0 || ref.drops[DropLinkDown]+ref.drops[DropNodeDown] == 0 {
			t.Fatalf("seed %d: script exercised no queue or link-down drops: %v", seed, ref.drops)
		}
	}
}

// sinkRouter drops everything: RTO retransmissions go nowhere, so no
// ACK ever moves the flows under test.
type sinkRouter struct{ sw *SwitchDev }

func (r *sinkRouter) Attach(sw *SwitchDev)           { r.sw = sw }
func (r *sinkRouter) Handle(pkt *Packet, inPort int) { r.sw.Drop(pkt, DropNoRoute) }

// rtoModel is the surface driveRTO scripts: a few flows whose RTO can be
// armed with a chosen estimate and whose two ends can finish.
type rtoModel interface {
	scheduler
	arm(flow int, rtoNs float64)
	finishSender(flow int)
	finishReceiver(flow int)
	state() string // time, timeouts so far, per-flow rtoNs (doubles on timeout)
}

// eagerRTO is the per-arm model: every arm queues its own closure and
// bumps an epoch that invalidates the earlier ones.
type eagerRTO struct {
	refEngine
	flows []eagerFlow
	fired int64
}

type eagerFlow struct {
	epoch            int64
	rtoNs            float64
	senderDone, done bool
}

func (m *eagerRTO) arm(i int, rtoNs float64) {
	f := &m.flows[i]
	if f.senderDone {
		return
	}
	f.rtoNs = rtoNs
	f.epoch++
	epoch := f.epoch
	m.At(m.now+int64(rtoNs), func() {
		if f.epoch != epoch || f.senderDone || f.done {
			return
		}
		m.fired++
		next := f.rtoNs * 2
		if next > maxRTONs {
			next = maxRTONs
		}
		m.arm(i, next)
	})
}
func (m *eagerRTO) finishSender(i int)   { m.flows[i].senderDone = true }
func (m *eagerRTO) finishReceiver(i int) { m.flows[i].done = true }
func (m *eagerRTO) state() string {
	s := fmt.Sprintf("t=%d timeouts=%d", m.now, m.fired)
	for i := range m.flows {
		s += fmt.Sprint(" ", m.flows[i].rtoNs)
	}
	return s
}

// carrierRTO drives the real transport: armRTO, and onRTO on timeout.
type carrierRTO struct {
	engineAdapter
	t     *testing.T
	net   *Network
	host  *HostDev
	flows []*flowState
}

func (m *carrierRTO) arm(i int, rtoNs float64) {
	if m.flows[i].senderDone {
		return
	}
	m.flows[i].rtoNs = rtoNs
	m.host.armRTO(m.flows[i])
}
func (m *carrierRTO) finishSender(i int)   { m.flows[i].senderDone = true }
func (m *carrierRTO) finishReceiver(i int) { m.flows[i].done = true }
func (m *carrierRTO) state() string {
	if err := m.net.Audit(); err != nil {
		m.t.Fatal(err)
	}
	s := fmt.Sprintf("t=%d timeouts=%d", m.e.Now(), m.net.tot.RTOs)
	for _, st := range m.flows {
		s += fmt.Sprint(" ", st.rtoNs)
	}
	return s
}

// driveRTO runs one random script against m and returns a trace with
// one line per script step. Steps sit on a 100 ns grid shared with the
// RTO values, so timeouts collide with steps and with each other and
// every line pins where the timeouts fell in the total order.
func driveRTO(m rtoModel, nflows int, seed int64) []string {
	rng := rand.New(rand.NewSource(seed))
	var trace []string
	const horizon = 400_000
	for step := 0; step < 500; step++ {
		at := int64(rng.Intn(horizon/100)) * 100
		flow := rng.Intn(nflows)
		var act func()
		switch k := rng.Intn(100); {
		case k < 60:
			// Estimates from 100 ns to 25.6 us: a later arm lands before
			// or after the previous deadline about equally often.
			rtoNs := float64(int64(100) << uint(rng.Intn(9)))
			act = func() { m.arm(flow, rtoNs) }
		case k < 97:
			act = func() {} // marker only
		case k < 99:
			act = func() { m.finishReceiver(flow) }
		default:
			act = func() { m.finishSender(flow) }
		}
		step := step
		m.At(at, func() {
			act()
			trace = append(trace, fmt.Sprintf("step %d %s", step, m.state()))
		})
	}
	m.Run(horizon / 2)
	m.Run(horizon/2 + 1)
	for i := 0; i < nflows; i++ {
		i := i
		m.At(horizon+int64(i), func() { m.finishSender(i) })
	}
	m.Run(10 * maxRTONs)
	return append(trace, "end "+m.state())
}

// TestRTOCarrierMatchesPerArmTimers: random arm / re-arm sequences with
// growing and shrinking estimates, sender and receiver completion, and
// colliding events time out exactly where one queued timer per arm
// does, and nowhere else.
func TestRTOCarrierMatchesPerArmTimers(t *testing.T) {
	const nflows = 3
	timeouts := int64(0)
	for seed := int64(1); seed <= 30; seed++ {
		g := lineTopo(10e9)
		e := NewEngine()
		n := NewNetwork(e, g, Config{})
		for _, s := range g.Switches() {
			n.SetRouter(s, &sinkRouter{})
		}
		n.Start()
		real := &carrierRTO{engineAdapter: engineAdapter{e}, t: t, net: n, host: n.hostOf(g.MustNode("H0"))}
		for i := 0; i < nflows; i++ {
			n.flowTab = append(n.flowTab, &flowState{
				spec:  FlowSpec{ID: uint64(i + 1), Src: g.MustNode("H0"), Dst: g.MustNode("H1"), Size: 1 << 30},
				npkts: 1 << 20, cwnd: initCwnd, ssthresh: 1 << 20, rtoNs: initRTONs, rttSeq: -1,
				idx: int32(i), started: true, // driven by armRTO alone, no start entry
			})
		}
		real.flows = n.flowTab
		got := driveRTO(real, nflows, seed)
		eager := &eagerRTO{flows: make([]eagerFlow, nflows)}
		for i := range eager.flows {
			eager.flows[i].rtoNs = initRTONs
		}
		want := driveRTO(eager, nflows, seed)
		if len(got) != len(want) {
			t.Fatalf("seed %d: trace lengths differ: engine %d, reference %d", seed, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("seed %d: diverges at line %d:\n engine    %s\n reference %s", seed, i, got[i], want[i])
			}
		}
		if e.Pending() != 0 {
			t.Fatalf("seed %d: %d entries left after every sender finished", seed, e.Pending())
		}
		timeouts += n.tot.RTOs
	}
	if timeouts == 0 {
		t.Fatal("scripts produced no timeout")
	}
}
