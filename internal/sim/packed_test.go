package sim

import (
	"strings"
	"testing"
	"unsafe"

	"contra/internal/topo"
)

func packedTestNet(t *testing.T) *Network {
	t.Helper()
	g := topo.New("packed")
	a := g.AddNode("A", topo.Switch)
	b := g.AddNode("B", topo.Switch)
	g.AddLink(a, b, 10e9, 1000)
	return NewNetwork(NewEngine(), g, Config{})
}

// TestPacketLayout pins the packet at two cache lines and the fields the
// engine, transmit, the host transport and the data-path routers read
// in the first of them.
func TestPacketLayout(t *testing.T) {
	if size := unsafe.Sizeof(Packet{}); size != 128 {
		t.Fatalf("Packet is %d bytes, want 128", size)
	}
	var p Packet
	line1 := []struct {
		name     string
		off, end uintptr
	}{
		{"next", unsafe.Offsetof(p.next), unsafe.Sizeof(p.next)},
		{"dueAt", unsafe.Offsetof(p.dueAt), unsafe.Sizeof(p.dueAt)},
		{"dueSeq", unsafe.Offsetof(p.dueSeq), unsafe.Sizeof(p.dueSeq)},
		{"FlowID", unsafe.Offsetof(p.FlowID), unsafe.Sizeof(p.FlowID)},
		{"Size", unsafe.Offsetof(p.Size), unsafe.Sizeof(p.Size)},
		{"Dst", unsafe.Offsetof(p.Dst), unsafe.Sizeof(p.Dst)},
		{"flow", unsafe.Offsetof(p.flow), unsafe.Sizeof(p.flow)},
		{"Tag", unsafe.Offsetof(p.Tag), unsafe.Sizeof(p.Tag)},
		{"Seq", unsafe.Offsetof(p.Seq), unsafe.Sizeof(p.Seq)},
		{"Ack", unsafe.Offsetof(p.Ack), unsafe.Sizeof(p.Ack)},
		{"Kind", unsafe.Offsetof(p.Kind), unsafe.Sizeof(p.Kind)},
		{"TTL", unsafe.Offsetof(p.TTL), unsafe.Sizeof(p.TTL)},
		{"Pid", unsafe.Offsetof(p.Pid), unsafe.Sizeof(p.Pid)},
		{"HasTag", unsafe.Offsetof(p.HasTag), unsafe.Sizeof(p.HasTag)},
		{"Era", unsafe.Offsetof(p.Era), unsafe.Sizeof(p.Era)},
		{"Up", unsafe.Offsetof(p.Up), unsafe.Sizeof(p.Up)},
	}
	for _, f := range line1 {
		if f.off+f.end > 64 {
			t.Errorf("Packet.%s spans bytes %d-%d: not in the first cache line", f.name, f.off, f.off+f.end-1)
		}
	}
}

// TestPacketPoolRecyclesProbeBuffers pins the allocation contract of
// packed probes: a freed packed probe's buffer is what the next
// NewPackedProbe gets — even after data packets were drawn and freed
// on top of it, which is what a loaded fabric does between every two
// flushes — with no allocation when it is large enough.
func TestPacketPoolRecyclesProbeBuffers(t *testing.T) {
	n := packedTestNet(t)
	p := n.NewPackedProbe(8, 2)
	if p.Kind != Probe || !p.IsPacked() || p.TTL != InitialTTL || len(p.Packed.Entries) != 0 || cap(p.Packed.Entries) < 8 ||
		p.Packed.Width != 2 || len(p.Packed.MV) != 0 || cap(p.Packed.MV) < 16 {
		t.Fatalf("NewPackedProbe(8, 2) = %+v", p)
	}
	for i := 0; i < 8; i++ {
		p.Packed.Append(ProbeEntry{Origin: topo.NodeID(i)}, float64(i), 1)
	}
	if mv := p.Packed.MVOf(5); len(mv) != 2 || mv[0] != 5 || mv[1] != 1 {
		t.Fatalf("entry 5's metric vector is %v, want [5 1]", mv)
	}
	buf, backing, mvBacking := p.Packed, &p.Packed.Entries[0], &p.Packed.MV[0]
	d1, d2 := n.NewPacket(), n.NewPacket()
	n.Free(p)
	n.Free(d1)
	n.Free(d2)
	n.Free(n.NewPacket())
	q := n.NewPackedProbe(5, 3)
	if q.Packed != buf || len(q.Packed.Entries) != 0 || &q.Packed.Entries[:1][0] != backing ||
		q.Packed.Width != 3 || len(q.Packed.MV) != 0 || &q.Packed.MV[:1][0] != mvBacking {
		t.Fatal("the packed constructor did not reuse the freed buffer, its entries and its metric vectors")
	}
	if q.Origin != 0 || q.Version != 0 || q.next != nil || buf.next != nil {
		t.Fatalf("recycled packet not zeroed: %+v", q)
	}
	// A larger request than the buffer holds grows it, once.
	n.Free(q)
	if big := n.NewPackedProbe(32, 2); big.Packed != buf || cap(big.Packed.Entries) < 32 || cap(big.Packed.MV) < 64 {
		t.Fatalf("NewPackedProbe(32, 2) on an 8-entry buffer: same buffer %v, caps %d and %d",
			big.Packed == buf, cap(big.Packed.Entries), cap(big.Packed.MV))
	}

	allocs := testing.AllocsPerRun(100, func() {
		p := n.NewPackedProbe(32, 2)
		for i := 0; i < 32; i++ {
			p.Packed.Append(ProbeEntry{Origin: topo.NodeID(i)}, float64(i))
		}
		d := n.NewPacket()
		n.Free(p)
		n.Free(d)
	})
	if allocs != 0 {
		t.Fatalf("a recycled packed probe of no more entries than its buffer holds allocated %v times", allocs)
	}
}

// TestPacketPoolPlainNeverHoldsBuffer pins the other half: Free takes a
// packed probe's buffer back to the buffer list, so the packet it freed
// comes back from a plain request without one, and the buffer waits for
// the next packed probe.
func TestPacketPoolPlainNeverHoldsBuffer(t *testing.T) {
	var pl pool
	p := pl.get()
	p.Packed = pl.getBuf(2, 1)
	buf := p.Packed
	pl.put(p)
	if pl.pkts != p || pl.bufs != buf || p.Packed != nil {
		t.Fatal("Free did not return the packet and its buffer each to its own list")
	}
	if d := pl.get(); d != p || d.Packed != nil || d.IsPacked() {
		t.Fatalf("a plain request after freeing a packed probe: same packet %v, Packed %p", d == p, d.Packed)
	}
	if b := pl.getBuf(1, 1); b != buf {
		t.Fatal("the freed buffer was not the next one handed out")
	}
}

// TestPacketSlabsAreCacheLineAligned pins what the slab's pad is for. A
// packet is two cache lines long, and the first holds everything the
// event loop, transmit and the routers' data path read; eight bytes off
// a line boundary that line's last fields spill into the second. When a
// packet was three lines, the same misalignment pushed the in-flight
// head's reads into a fourth line and cost the WAN cell — tens of
// thousands of packets in flight — 5-8 % of its wall time. If a
// toolchain moves the allocator's header, this fails and the pad wants
// re-deriving; nothing else breaks.
func TestPacketSlabsAreCacheLineAligned(t *testing.T) {
	if size := unsafe.Sizeof(Packet{}); size%64 != 0 {
		t.Fatalf("Packet is %d bytes: not a whole number of cache lines, so no pad aligns a slab of them", size)
	}
	if size := unsafe.Sizeof(packetSlab{}); size > 16<<10-8 {
		t.Fatalf("packetSlab is %d bytes: with the allocator's header it spills out of the 16 KiB size class", size)
	}
	var pl pool
	for i := 0; i < 3*len(packetSlab{}.pkts); i++ { // three slabs' worth; none is freed
		if addr := uintptr(unsafe.Pointer(pl.get())); addr%64 != 0 {
			t.Fatalf("packet %d sits at %#x, %d bytes past a cache line", i, addr, addr%64)
		}
	}
}

// TestClonePackedIsDeepCopy guards against aliasing: a multicast clone
// must own its packed entries, so mutating one copy (retagging at the
// next hop) cannot corrupt the other.
func TestClonePackedIsDeepCopy(t *testing.T) {
	n := packedTestNet(t)
	p := n.NewPackedProbe(2, 2)
	p.Packed.Append(ProbeEntry{Origin: 1, Version: 7}, 0.5, 3)
	p.Packed.Append(ProbeEntry{Origin: 2, Version: 9})
	c := n.Clone(p)
	if c.Packed == p.Packed || len(c.Packed.Entries) != 2 || c.Packed.Entries[0].Origin != 1 || c.Packed.Entries[1].Version != 9 {
		t.Fatalf("clone lost packed entries: %+v", c.Packed)
	}
	if c.Packed.Width != 2 || c.Packed.MVOf(0)[1] != 3 || c.Packed.MVOf(1)[0] != 0 {
		t.Fatalf("clone lost metric vectors: width %d, %v", c.Packed.Width, c.Packed.MV)
	}
	c.Packed.Entries[0].Version = 100
	c.Packed.MVOf(0)[0] = 0.9
	if p.Packed.Entries[0].Version != 7 || p.Packed.MVOf(0)[0] != 0.5 {
		t.Fatalf("clone aliases the original's packed entries")
	}
	if d := n.Clone(n.NewPacket()); d.Packed != nil {
		t.Fatal("the clone of a plain packet holds a probe buffer")
	}
}

// readRouter records the entries of every packed probe it receives and
// frees it, as a Contra receiver does.
type readRouter struct {
	sw   *SwitchDev
	got  [][]ProbeEntry
	bufs []*ProbeBuf
}

func (r *readRouter) Attach(sw *SwitchDev) { r.sw = sw }
func (r *readRouter) Handle(pkt *Packet, _ int) {
	r.got = append(r.got, append([]ProbeEntry(nil), pkt.Packed.Entries...))
	r.bufs = append(r.bufs, pkt.Packed)
	r.sw.Net.Free(pkt)
}

// TestSharedProbeBufferFreedOnce sends one flush's entries on three
// ports as one buffer and two shares of it. The probe on one port is
// lost on its link; the other two arrive carrying the same entries.
// The buffer counts once while in flight, goes back to the freelist
// with the last Free and only then, exactly once. A reference that no
// packet carries fails the audit.
func TestSharedProbeBufferFreedOnce(t *testing.T) {
	g := topo.New("star")
	a := g.AddNode("A", topo.Switch)
	var lost topo.LinkID
	for i, name := range []string{"B", "C", "D"} {
		l := g.AddLink(a, g.AddNode(name, topo.Switch), 10e9, 1000)
		if i == 0 {
			lost = l
		}
	}
	e := NewEngine()
	n := NewNetwork(e, g, Config{})
	readers := map[string]*readRouter{}
	for _, name := range []string{"A", "B", "C", "D"} {
		r := &readRouter{}
		readers[name] = r
		n.SetRouter(g.MustNode(name), r)
	}
	n.SetProbeLossSeed(1)
	n.Inject(NetworkEvent{At: 0, Kind: EvProbeLoss, Link: lost, Rate: 1})
	n.Start()
	e.Run(1)

	p := n.NewPackedProbe(2, 1)
	p.Packed.Append(ProbeEntry{Origin: a, Version: 3}, 0.25)
	p.Packed.Append(ProbeEntry{Origin: a, Version: 4}, 0.5)
	buf := p.Packed
	shares := []*Packet{p, n.Share(p), n.Share(p)}
	for port, q := range shares {
		if q.Packed != buf {
			t.Fatalf("the probe for port %d does not hold the original's buffer", port)
		}
		q.Size = 100
		n.transmit(a, port, q)
	}
	if err := n.Audit(); err != nil {
		t.Fatalf("one buffer shared by three probes in flight: %v", err)
	}
	_, freeBefore := n.pool.free()
	e.Run(e.Now() + 1_000_000)

	if seen, dropped := n.ProbeLossStats(); seen != 1 || dropped != 1 {
		t.Fatalf("probe loss (seen, dropped) = (%d, %d), want (1, 1)", seen, dropped)
	}
	for _, name := range []string{"C", "D"} {
		r := readers[name]
		if len(r.got) != 1 || r.bufs[0] != buf || len(r.got[0]) != 2 || r.got[0][1].Version != 4 {
			t.Fatalf("%s received %v", name, r.got)
		}
	}
	if got := len(readers["B"].got); got != 0 {
		t.Fatalf("B received %d probes over a link that loses every one", got)
	}
	if _, freeAfter := n.pool.free(); freeAfter != freeBefore+1 || n.pool.bufs != buf || buf.refs != 0 {
		t.Fatalf("free buffers %d -> %d (want one more, the shared one on top), refs %d", freeBefore, freeAfter, buf.refs)
	}
	if err := n.Audit(); err != nil {
		t.Fatalf("after every share was freed: %v", err)
	}

	// A share whose packet lets go of the buffer leaks a reference.
	p = n.NewPackedProbe(1, 1)
	q := n.Share(p)
	n.Free(p)
	q.Packed = nil
	n.Free(q)
	if err := n.Audit(); err == nil || !strings.Contains(err.Error(), "probe buffers") {
		t.Fatalf("a leaked reference: audit said %v", err)
	}
}
