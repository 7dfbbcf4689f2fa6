package sim

import (
	"fmt"
	"math/rand"
	"testing"

	"contra/internal/topo"
)

// BenchmarkEventLoop measures raw scheduler throughput.
func BenchmarkEventLoop(b *testing.B) {
	e := NewEngine()
	var count int
	var tick func()
	tick = func() {
		count++
		if count < b.N {
			e.At(e.Now()+10, tick)
		}
	}
	e.At(e.Now(), tick)
	b.ResetTimer()
	e.Run(int64(b.N)*10 + 100)
}

// BenchmarkEventLoopPopulated is BenchmarkEventLoop over a heap that
// already holds n far-future entries, as after StartFlows queued n flow
// starts: every near-term push sifts up past, and every pop sifts down
// through, log2(n) levels. It records what the heap costs at populations
// the channel FIFOs and RTO carriers do not shrink.
func BenchmarkEventLoopPopulated(b *testing.B) {
	for _, n := range []int{1_000, 100_000} {
		b.Run(fmt.Sprintf("pending=%d", n), func(b *testing.B) {
			e := NewEngine()
			horizon := int64(b.N)*10 + 100
			for i := 0; i < n; i++ {
				e.At(horizon+1+int64(i%977), func() {})
			}
			var count int
			var tick func()
			tick = func() {
				count++
				if count < b.N {
					e.At(e.Now()+10, tick)
				}
			}
			e.At(e.Now(), tick)
			b.ResetTimer()
			e.Run(horizon)
			if e.Pending() != n {
				b.Fatalf("pending = %d, want %d", e.Pending(), n)
			}
		})
	}
}

// BenchmarkHeapDeliverPath is the queue work of one packet hop at the
// composition the k=8 cells run: ~280 entries, of which ~75 are busy
// channels' arrivals and the rest timers and RTO carriers that fire
// later than anything here. "rekey" is a busy channel whose next arrival
// lands anywhere in the window the arrivals span, so mostly out of
// order: it re-keys on the hot heap. "in-order" is the same with every
// next arrival after all the others, as uniform packets on uniform links
// give: it moves down the run. "pop+push" is an idle one, most hops of
// the CBR cell: the entry goes, and the router's forward queues one on
// the next channel.
func BenchmarkHeapDeliverPath(b *testing.B) {
	const arrivals, cold, window = 75, 205, 20_000
	rng := rand.New(rand.NewSource(1))
	var gaps [1024]int64
	for i := range gaps {
		gaps[i] = 1 + rng.Int63n(window)
	}
	setup := func() *Engine {
		e := NewEngine()
		for i := 0; i < cold; i++ {
			at, seq := e.reserve(1<<50 + gaps[i])
			e.push(&e.cold, event{at: at, seq: seq, kind: evRTO})
		}
		for i := 0; i < arrivals; i++ {
			at, seq := e.reserve(gaps[i])
			e.pushDeliver(event{at: at, seq: seq, kind: evDeliver})
		}
		return e
	}
	hop := func(b *testing.B, gap func(i int) int64) {
		e := setup()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			top, in := e.first()
			e.now = top.at
			at, seq := e.reserve(e.now + gap(i))
			e.rekeyDeliver(in, at, seq)
		}
	}
	b.Run("rekey", func(b *testing.B) { hop(b, func(i int) int64 { return gaps[i%len(gaps)] }) })
	b.Run("in-order", func(b *testing.B) { hop(b, func(int) int64 { return window }) })
	b.Run("pop+push", func(b *testing.B) {
		e := setup()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			top, in := e.first()
			e.now = top.at
			e.popDeliver(in)
			at, seq := e.reserve(e.now + gaps[i%len(gaps)])
			e.pushDeliver(event{at: at, seq: seq, kind: evDeliver})
		}
	})
}

// BenchmarkPacketTransit measures the full per-packet path: transmit,
// queue model, delivery, static forwarding, host receive.
func BenchmarkPacketTransit(b *testing.B) {
	g := topo.New("line")
	s0 := g.AddNode("S0", topo.Switch)
	s1 := g.AddNode("S1", topo.Switch)
	h0 := g.AddNode("H0", topo.Host)
	h1 := g.AddNode("H1", topo.Host)
	g.AddLink(s0, s1, 100e9, 1000)
	g.AddLink(s0, h0, 100e9, 1000)
	g.AddLink(s1, h1, 100e9, 1000)

	e := NewEngine()
	n := NewNetwork(e, g, Config{})
	for _, s := range g.Switches() {
		n.SetRouter(s, &benchRouter{})
	}
	n.Start()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := n.NewPacket()
		p.Kind = Data
		p.Size = 1500
		p.Dst = h1
		p.FlowID = 7
		p.TTL = InitialTTL
		n.transmit(h0, 0, p)
		e.Run(e.Now() + 10_000)
	}
}

type benchRouter struct{ sw *SwitchDev }

func (r *benchRouter) Attach(sw *SwitchDev) { r.sw = sw }
func (r *benchRouter) Handle(pkt *Packet, inPort int) {
	g := r.sw.Net.Topo
	if g.Node(pkt.Dst).Kind == topo.Host && g.HostEdge(pkt.Dst) == r.sw.ID {
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
