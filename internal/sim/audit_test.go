package sim

import (
	"strings"
	"testing"
)

// TestAuditCountsEveryPacket pins what Audit accepts and what it
// catches: packets drawn from slabs must all be free or in flight, so a
// packet nobody freed, or one freed twice, fails it (the second without
// hanging on the cycle a double free closes in a freelist); probe
// buffers must all be free or held in flight, so a buffer taken off its
// packet fails it; and so does a single register miss.
func TestAuditCountsEveryPacket(t *testing.T) {
	quiet := func() (*Network, []*Packet) {
		n := packedTestNet(t)
		var held []*Packet
		for i := 0; i < 3; i++ {
			p := n.NewPacket()
			p.Kind = Probe
			held = append(held, p, n.NewPackedProbe(4, 1))
		}
		for _, p := range held[:4] {
			p.Size = 100
			n.transmit(0, 0, p) // A's only port: in flight toward B
		}
		return n, held[4:]
	}

	n, held := quiet()
	for _, p := range held {
		n.Free(p)
	}
	if err := n.Audit(); err != nil {
		t.Fatalf("a quiet network with every packet free or in flight: %v", err)
	}

	n, held = quiet()
	n.Free(held[0]) // held[1] leaks
	if err := n.Audit(); err == nil {
		t.Fatal("a leaked packet passed the audit")
	}

	n, held = quiet()
	n.Free(held[0])
	n.Free(held[1])
	n.Free(held[1])
	if err := n.Audit(); err == nil {
		t.Fatal("a packet freed twice passed the audit")
	}

	n, held = quiet()
	n.Free(held[0])
	held[1].Packed = nil // the buffer leaks, its packet does not
	n.Free(held[1])
	if err := n.Audit(); err == nil || !strings.Contains(err.Error(), "probe buffers") {
		t.Fatalf("a leaked probe buffer: audit said %v", err)
	}

	n, held = quiet()
	n.Free(held[0])
	n.Free(held[1])
	n.CountRegisterMiss()
	if n.RegisterMisses() != 1 {
		t.Fatalf("RegisterMisses = %d after one miss", n.RegisterMisses())
	}
	if err := n.Audit(); err == nil {
		t.Fatal("a register miss passed the audit")
	}
}

// lossyRouter forwards along a line of switches, and every nth packet
// of one kind it either drops properly (Drop) or, as a buggy router
// would, frees without counting.
type lossyRouter struct {
	sw         *SwitchDev
	kind       Kind
	every, cnt int
	silent     bool
}

func (r *lossyRouter) Attach(sw *SwitchDev) { r.sw = sw }
func (r *lossyRouter) Handle(pkt *Packet, inPort int) {
	if r.every > 0 && pkt.Kind == r.kind {
		if r.cnt++; r.cnt%r.every == 0 {
			if r.silent {
				r.sw.Net.Free(pkt)
			} else {
				r.sw.Drop(pkt, DropNoRoute)
			}
			return
		}
	}
	g := r.sw.Net.Topo
	if g.HostEdge(pkt.Dst) == r.sw.ID {
		r.sw.DeliverLocal(pkt)
		return
	}
	for p := 0; p < r.sw.PortCount(); p++ {
		if p != inPort && r.sw.IsSwitchPort(p) {
			r.sw.Send(p, pkt)
			return
		}
	}
	r.sw.Drop(pkt, DropNoRoute)
}

// TestAuditConservesDataAndAcks runs TCP flows both ways and a CBR flow
// over two switches, stops mid-flight, and checks per-kind conservation:
// routers that forward or Drop pass, and one that frees a data packet or
// an ACK without Drop fails the run, naming the kind.
func TestAuditConservesDataAndAcks(t *testing.T) {
	for _, tc := range []struct {
		name   string
		kind   Kind
		every  int
		silent bool
		want   string
	}{
		{name: "forwards"},
		{name: "drops data", kind: Data, every: 7},
		{name: "drops acks", kind: Ack, every: 5},
		{name: "frees data", kind: Data, every: 7, silent: true, want: "data packets not conserved"},
		{name: "frees acks", kind: Ack, every: 5, silent: true, want: "ack packets not conserved"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g := lineTopo(10e9)
			s0, s1, h0, h1 := g.MustNode("S0"), g.MustNode("S1"), g.MustNode("H0"), g.MustNode("H1")
			n := NewNetwork(NewEngine(), g, Config{})
			n.SetRouter(s0, &lossyRouter{kind: tc.kind, every: tc.every, silent: tc.silent})
			n.SetRouter(s1, &lossyRouter{})
			n.Start()
			n.StartFlows([]FlowSpec{
				{ID: 1, Src: h0, Dst: h1, Size: 200 * MSS},
				{ID: 2, Src: h1, Dst: h0, Size: 50 * MSS, Start: 3_000},
				{ID: 3, Src: h0, Dst: h1, Start: 1_000, RateBps: 1e9},
			})
			n.Eng.Run(150_000)
			inFlight := false
			for i := range n.chans {
				inFlight = inFlight || n.chans[i].inHead != nil
			}
			if !inFlight {
				t.Fatal("nothing in flight at the horizon: the in-flight term goes unchecked")
			}
			err := n.Audit()
			switch {
			case tc.want == "" && err != nil:
				t.Fatalf("audit: %v", err)
			case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
				t.Fatalf("audit said %v, want %q", err, tc.want)
			}
		})
	}
}

// TestAuditChecksTheEventQueue stops TCP flows both ways and a CBR flow
// at a moment with two or more arrivals on the run, a live RTO carrier
// and a flow still waiting to start, and corrupts the queue, a channel's
// in-flight FIFO, a flow's carrier or start, the clock or a timer slot
// one way at a time: each corruption must fail the audit, naming what
// broke, where the intact network passes.
func TestAuditChecksTheEventQueue(t *testing.T) {
	loaded := func() *Network {
		g := lineTopo(10e9)
		h0, h1 := g.MustNode("H0"), g.MustNode("H1")
		n := NewNetwork(NewEngine(), g, Config{})
		for _, s := range g.Switches() {
			n.SetRouter(s, &lossyRouter{})
		}
		n.Start()
		n.StartFlows([]FlowSpec{
			{ID: 1, Src: h0, Dst: h1, Size: 400 * MSS},
			{ID: 2, Src: h1, Dst: h0, Size: 100 * MSS, Start: 3_000},
			{ID: 3, Src: h0, Dst: h1, Start: 1_000, RateBps: 1e9},
			{ID: 4, Src: h1, Dst: h0, Size: MSS, Start: 5_000_000},
		})
		e := n.Eng
		for until := int64(0); until < 1_000_000; until += 100 {
			e.Run(until)
			if e.runLen >= 2 && n.flowTab[0].carrierSeq != 0 {
				return n
			}
		}
		t.Fatal("no moment with two arrivals on the run and a live carrier")
		return nil
	}
	if err := loaded().Audit(); err != nil {
		t.Fatalf("intact queue: %v", err)
	}
	for _, tc := range []struct {
		name    string
		corrupt func(n *Network)
		want    string
	}{
		{"run out of order", func(n *Network) {
			a, b := n.Eng.runAt(0), n.Eng.runAt(1)
			*a, *b = *b, *a
		}, "run out of order"},
		{"arrival missing", func(n *Network) {
			n.Eng.runLen-- // the tail's
		}, "no arrival queued"},
		{"arrival off its head's slot", func(n *Network) {
			n.Eng.runAt(n.Eng.runLen-1).seq++
		}, "its head is due at"},
		{"two arrivals for one channel", func(n *Network) {
			e := n.Eng
			e.push(&e.hot, *e.runAt(e.runLen - 1))
		}, "two arrivals queued"},
		{"arrival among timers", func(n *Network) {
			e := n.Eng
			ev := *e.runAt(e.runLen - 1)
			e.runLen--
			ev.at = 1 << 62
			e.push(&e.cold, ev)
		}, "cold heap"},
		{"heap broken", func(n *Network) {
			e := n.Eng
			e.cold[len(e.cold)-1].at = -1
		}, "cold heap broken"},
		{"in-flight slots out of order", func(n *Network) {
			ch := queuedTwice(t, n)
			ch.inHead.next.dueAt = ch.inHead.dueAt
		}, "not strictly increasing"},
		{"inTail stale", func(n *Network) {
			ch := queuedTwice(t, n)
			ch.inTail = ch.inHead
		}, "inTail"},
		{"carrier lost", func(n *Network) {
			n.flowTab[0].carrierSeq++ // the queued carrier is now an orphan
		}, "no live RTO carrier"},
		{"carrier past its deadline", func(n *Network) {
			st := n.flowTab[0]
			st.rtoAt = st.carrierAt - 1
		}, "past its deadline"},
		{"start dropped", func(n *Network) {
			e := n.Eng
			cold := e.cold
			e.cold = nil
			for _, ev := range cold {
				if ev.kind != evStart {
					e.push(&e.cold, ev)
				}
			}
		}, "no start queued"},
		{"start duplicated", func(n *Network) {
			e := n.Eng
			e.push(&e.cold, *queuedTimer(t, e, evStart))
		}, "two starts queued"},
		{"started flow's start still queued", func(n *Network) {
			n.flowTab[queuedTimer(t, n.Eng, evStart).arg].started = true
		}, "has started and has a start queued"},
		{"time ran backwards", func(n *Network) {
			n.Eng.now = n.Eng.cold[0].at + 1
		}, "queued before now"},
		// The generation is the tripwire that keeps a recycled slot from
		// firing a tick queued for its previous occupant.
		{"tick generation corrupted", func(n *Network) {
			n.Eng.timers[queuedTimer(t, n.Eng, evTimer).arg].gen++
		}, "generation"},
		{"queued tick's slot freed", func(n *Network) {
			n.Eng.freeSlot(queuedTimer(t, n.Eng, evTimer).arg)
		}, "generation"},
		{"queued one-shot's slot freed", func(n *Network) {
			e := n.Eng
			e.At(e.now+1, func() {})
			e.freeSlot(queuedTimer(t, e, evFunc).arg)
		}, "no callback"},
		{"queued slot on the freelist", func(n *Network) {
			e := n.Eng
			e.freeTimers = append(e.freeTimers, queuedTimer(t, e, evTimer).arg)
		}, "on the freelist and queued"},
		{"slot leaked", func(n *Network) {
			n.Eng.timers = append(n.Eng.timers, timerSlot{})
		}, "neither queued nor free"},
	} {
		n := loaded()
		tc.corrupt(n)
		if err := n.Audit(); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: audit said %v, want %q", tc.name, err, tc.want)
		}
	}
}

// queuedTimer returns a queued entry of kind evFunc, evTimer or evStart.
func queuedTimer(t *testing.T, e *Engine, kind evKind) *event {
	t.Helper()
	for i := range e.cold {
		if e.cold[i].kind == kind {
			return &e.cold[i]
		}
	}
	t.Fatalf("no event of kind %d queued", kind)
	return nil
}

// queuedTwice returns a channel with two or more packets in flight.
func queuedTwice(t *testing.T, n *Network) *channel {
	t.Helper()
	for i := range n.chans {
		if ch := &n.chans[i]; ch.inHead != nil && ch.inHead.next != nil {
			return ch
		}
	}
	t.Fatal("no channel has two packets in flight")
	return nil
}
