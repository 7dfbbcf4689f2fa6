package sim

import (
	"fmt"
	"math"
	"slices"

	"contra/internal/slab"
	"contra/internal/topo"
)

// FlowSpec describes one flow to simulate.
type FlowSpec struct {
	ID      uint64
	Src     topo.NodeID // source host
	Dst     topo.NodeID // destination host
	Size    int64       // bytes to deliver (TCP-like flows)
	Start   int64       // ns
	RateBps float64     // when > 0 the flow is constant-bit-rate UDP-like
}

// MaxFlowBytes bounds FlowSpec.Size. StartFlows allocates one receive
// bit per packet up front, so a size read from a spec or a trace must
// be vetted before it gets there. 64 GiB is five times what a 100 Gb/s
// link delivers in the default one-second drain budget — no committed
// topology is that fast — and costs 6 MB of bitmap. The layers that
// read sizes from outside (flowtrace.Read, workload.ValidateCohorts,
// scenario.Run) reject anything larger, and StartFlows panics on it.
const MaxFlowBytes int64 = 1 << 36

// Packets carry Seq and Ack as int32. The build fails here if a flow of
// MaxFlowBytes ever needed more packets than that holds.
const _ = uint32(math.MaxInt32 - (MaxFlowBytes+MSS-1)/MSS)

// Transport constants: a NewReno-style window protocol, scaled for
// data center RTTs.
const (
	initCwnd        = 10.0
	defaultMinRTONs = 2_000_000 // 2ms: conservative, like real stacks
	initRTONs       = 4_000_000
	maxRTONs        = 100_000_000
	dupackThin      = 3
)

type flowState struct {
	spec  FlowSpec
	npkts int64
	idx   int32 // position in Network.flowTab

	// Sender.
	nextSeq    int64
	cumAck     int64
	cwnd       float64
	ssthresh   float64
	dupAcks    int
	srttNs     float64
	rttvarNs   float64
	rtoNs      float64
	rttSeq     int64 // seq being timed, -1 if none
	rttSent    int64
	senderDone bool

	// Retransmission timer. Arming reserves the deadline's (at, seq)
	// slot; the engine queue holds one carrier entry per flow, at or
	// before that slot, which re-keys itself to the current deadline
	// when it fires early. carrierSeq is 0 when no live carrier is
	// queued (a queued entry with another seq is an orphan).
	rtoAt, carrierAt   int64
	rtoSeq, carrierSeq uint64

	// Receiver.
	rcvBitmap []uint64
	rcvCum    int64
	rcvCount  int64
	done      bool

	// started is set when the flow's evStart entry fires: until then
	// exactly one is queued.
	started bool
}

func (f *flowState) rcvHas(seq int64) bool {
	return f.rcvBitmap[seq>>6]&(1<<(uint(seq)&63)) != 0
}

func (f *flowState) rcvSet(seq int64) {
	f.rcvBitmap[seq>>6] |= 1 << (uint(seq) & 63)
}

// HostDev is an end host: it runs the sending and receiving sides of
// the transport for flows that start or end here.
type HostDev struct {
	net *Network
	id  topo.NodeID
}

// send transmits a packet on the host's single uplink port (index 0).
func (h *HostDev) send(pkt *Packet) {
	h.net.hostTx[pkt.Kind]++
	h.net.transmit(h.id, 0, pkt)
}

// StartFlows registers flows and schedules their start events. A call
// allocates by the table, not by the flow: the window flows' states are
// one slab, their receive bitmaps windows of another, and each start is
// a typed queue entry (evStart) naming its flow's index in flowTab, the
// way an RTO carrier does. Every flow is vetted before any is scheduled.
func (n *Network) StartFlows(flows []FlowSpec) {
	if n.flows == nil {
		n.flows = make(map[uint64]struct{}, len(flows))
	}
	windows, words := 0, int64(0)
	for i := range flows {
		f := &flows[i]
		if _, dup := n.flows[f.ID]; dup {
			panic(fmt.Sprintf("sim: duplicate flow id %d", f.ID))
		}
		if n.Topo.Node(f.Src).Kind != topo.Host || n.Topo.Node(f.Dst).Kind != topo.Host {
			panic("sim: flows connect hosts")
		}
		if f.Size > MaxFlowBytes {
			panic(fmt.Sprintf("sim: flow %d is %d bytes, past MaxFlowBytes", f.ID, f.Size))
		}
		if f.RateBps <= 0 {
			n.flows[f.ID] = struct{}{}
			windows++
			words += (flowPackets(f.Size) + 63) / 64
		}
	}
	n.flowTab = slices.Grow(n.flowTab, windows)
	states := slab.Extend(&n.cell.states, windows)
	bitmaps := slab.Extend(&n.cell.bitmaps, int(words))
	for _, f := range flows {
		if n.Trace != nil {
			n.Trace.FlowMeta(f.ID, n.Topo.Node(f.Src).Name, n.Topo.Node(f.Dst).Name, f.Size, f.Start)
		}
		if f.RateBps > 0 {
			n.startCBR(f)
			continue
		}
		npkts := flowPackets(f.Size)
		w := (npkts + 63) / 64
		st := &states[0]
		states = states[1:]
		*st = flowState{
			spec:      f,
			npkts:     npkts,
			cwnd:      initCwnd,
			ssthresh:  1 << 20,
			rtoNs:     initRTONs,
			rttSeq:    -1,
			rcvBitmap: bitmaps[:w:w],
			idx:       int32(len(n.flowTab)),
		}
		bitmaps = bitmaps[w:]
		n.flowTab = append(n.flowTab, st)
		n.Eng.schedule(f.Start, event{kind: evStart, arg: st.idx})
	}
}

// flowPackets is the number of packets a window flow of size bytes
// sends: one for an empty flow.
func flowPackets(size int64) int64 {
	if npkts := (size + MSS - 1) / MSS; npkts != 0 {
		return npkts
	}
	return 1
}

// startCBR emits fixed-size packets at a constant rate until the
// simulation ends (Figure 14's UDP workload). The sequence counter is
// int64 but packets carry it as int32, so Seq first wraps after 2³¹
// packets: over four minutes of simulated time at 100 Gb/s. No host
// reads a CBR packet's Seq; traces and loop-detection hashes do.
func (n *Network) startCBR(f FlowSpec) {
	src := n.hosts[f.Src]
	const size = MSS + FrameHeader
	gapNs := int64(float64(size*8) / f.RateBps * 1e9)
	if gapNs < 1 {
		gapNs = 1
	}
	var seq int64
	n.Eng.Every(f.Start, gapNs, TickFunc(func() {
		pkt := n.pool.get()
		pkt.Kind = Data
		pkt.Size = size
		pkt.Dst = f.Dst
		pkt.FlowID = f.ID
		pkt.Seq = int32(seq)
		pkt.TTL = InitialTTL
		pkt.Tag = -1
		seq++
		src.send(pkt)
	}))
}

// pump sends as much of the window as allowed.
func (h *HostDev) pump(st *flowState) {
	if st.senderDone {
		return
	}
	for st.nextSeq < st.npkts && float64(st.nextSeq-st.cumAck) < st.cwnd {
		h.emit(st, st.nextSeq)
		if st.rttSeq < 0 {
			st.rttSeq = st.nextSeq
			st.rttSent = h.net.Eng.Now()
		}
		st.nextSeq++
	}
	h.armRTO(st)
}

func (h *HostDev) emit(st *flowState, seq int64) {
	payload := int64(MSS)
	if rem := st.spec.Size - seq*MSS; rem < payload {
		payload = rem
	}
	if payload <= 0 {
		payload = 1
	}
	pkt := h.net.pool.get()
	pkt.Kind = Data
	pkt.Size = int32(payload) + FrameHeader
	pkt.Dst = st.spec.Dst
	pkt.FlowID = st.spec.ID
	pkt.flow = st.idx + 1
	pkt.Seq = int32(seq)
	pkt.TTL = InitialTTL
	pkt.Tag = -1
	h.net.DataPkts++
	if h.net.Trace != nil {
		h.net.Trace.Sent(st.spec.ID, seq)
	}
	h.send(pkt)
}

func (h *HostDev) armRTO(st *flowState) {
	if st.senderDone || st.cumAck >= st.npkts {
		return
	}
	e := h.net.Eng
	st.rtoAt, st.rtoSeq = e.reserve(e.Now() + int64(st.rtoNs))
	// The queued carrier fires no later than the deadline and catches up
	// with it then. Only a deadline that moved earlier (the RTO estimate
	// shrank) needs a carrier of its own, orphaning the old one.
	if st.carrierSeq == 0 || st.rtoAt < st.carrierAt {
		st.carrierAt, st.carrierSeq = st.rtoAt, st.rtoSeq
		e.push(&e.cold, event{at: st.rtoAt, seq: st.rtoSeq, kind: evRTO, arg: st.idx})
	}
}

func (h *HostDev) onRTO(st *flowState) {
	// Timeout: multiplicative backoff, go-back-N from the last
	// cumulative ack.
	st.ssthresh = st.cwnd / 2
	if st.ssthresh < 2 {
		st.ssthresh = 2
	}
	st.cwnd = initCwnd / 2
	if st.cwnd < 1 {
		st.cwnd = 1
	}
	st.rtoNs *= 2
	if st.rtoNs > maxRTONs {
		st.rtoNs = maxRTONs
	}
	st.nextSeq = st.cumAck
	st.rttSeq = -1
	st.dupAcks = 0
	h.net.tot.RTOs++
	h.pump(st)
}

// receive dispatches an arriving packet on a host.
func (h *HostDev) receive(pkt *Packet) {
	h.net.hostRx[pkt.Kind]++
	if h.net.Trace != nil && pkt.Kind == Data {
		h.net.Trace.Delivered(pkt.FlowID, int64(pkt.Seq), int(InitialTTL-pkt.TTL), pkt.QueueNs)
	}
	if pkt.flow == 0 {
		// CBR traffic or unknown: count throughput and discard.
		if pkt.Kind == Data {
			h.net.recordRx(pkt)
		}
		h.net.Free(pkt)
		return
	}
	st := h.net.flowTab[pkt.flow-1]
	switch pkt.Kind {
	case Data:
		h.onData(st, pkt)
	case Ack:
		h.onAck(st, pkt)
	default:
		h.net.Free(pkt)
	}
}

func (h *HostDev) onData(st *flowState, pkt *Packet) {
	h.net.recordRx(pkt)
	seq := int64(pkt.Seq)
	if seq < st.npkts && !st.rcvHas(seq) {
		st.rcvSet(seq)
		st.rcvCount++
		for st.rcvCum < st.npkts && st.rcvHas(st.rcvCum) {
			st.rcvCum++
		}
		if st.rcvCount == st.npkts && !st.done {
			st.done = true
			fct := h.net.Eng.Now() - st.spec.Start
			h.net.recordFCT(st.spec, fct)
		}
	}
	ack := h.net.pool.get()
	ack.Kind = Ack
	ack.Size = AckSize
	ack.Dst = st.spec.Src
	ack.FlowID = st.spec.ID
	ack.flow = pkt.flow
	ack.Seq = int32(seq)
	ack.Ack = int32(st.rcvCum)
	ack.TTL = InitialTTL
	ack.Tag = -1
	h.net.Free(pkt)
	h.send(ack)
}

func (h *HostDev) onAck(st *flowState, pkt *Packet) {
	defer h.net.Free(pkt)
	if st.senderDone {
		return
	}
	// RTT sampling (Karn: only the untouched timed segment).
	ackd := int64(pkt.Ack)
	if st.rttSeq >= 0 && ackd > st.rttSeq {
		sample := float64(h.net.Eng.Now() - st.rttSent)
		if st.srttNs == 0 {
			st.srttNs = sample
			st.rttvarNs = sample / 2
		} else {
			d := sample - st.srttNs
			if d < 0 {
				d = -d
			}
			st.rttvarNs = 0.75*st.rttvarNs + 0.25*d
			st.srttNs = 0.875*st.srttNs + 0.125*sample
		}
		st.rtoNs = st.srttNs + 4*st.rttvarNs
		if st.rtoNs < h.net.minRTO() {
			st.rtoNs = h.net.minRTO()
		}
		st.rttSeq = -1
	}
	if ackd > st.cumAck {
		newly := ackd - st.cumAck
		st.cumAck = ackd
		st.dupAcks = 0
		for i := int64(0); i < newly; i++ {
			if st.cwnd < st.ssthresh {
				st.cwnd++
			} else {
				st.cwnd += 1 / st.cwnd
			}
		}
		if st.cumAck >= st.npkts {
			st.senderDone = true // also disarms the RTO
			return
		}
		h.pump(st)
		return
	}
	// Duplicate cumulative ack.
	st.dupAcks++
	if st.dupAcks == dupackThin {
		st.ssthresh = st.cwnd / 2
		if st.ssthresh < 2 {
			st.ssthresh = 2
		}
		st.cwnd = st.ssthresh
		st.dupAcks = 0
		h.net.tot.FastRetx++
		h.emit(st, st.cumAck) // retransmit the missing segment
		h.armRTO(st)
	}
}

func (n *Network) recordRx(pkt *Packet) {
	if n.RxSeries != nil {
		n.RxSeries.Add(n.Eng.Now(), float64(pkt.Size))
	}
	if n.OnHostRx != nil {
		n.OnHostRx(pkt)
	}
}

func (n *Network) recordFCT(f FlowSpec, fctNs int64) {
	n.FCT.Add(float64(fctNs) / 1e9)
	n.tot.FlowsDone++
	if n.tot.FlowsDone == n.stopAt {
		n.Eng.Stop()
	}
	if n.Trace != nil {
		n.Trace.Done(f.ID, fctNs)
	}
	if n.FlowDone != nil {
		n.FlowDone(f, fctNs)
	}
}

// CompletedFlows returns the number of finished flows.
func (n *Network) CompletedFlows() int64 { return n.tot.FlowsDone }

// StopAtCompletion arms the network to end the engine's current Run
// (Engine.Stop) at the event that completes its flows-th flow, counted
// from the network's start; 0 disarms it.
func (n *Network) StopAtCompletion(flows int64) { n.stopAt = flows }
