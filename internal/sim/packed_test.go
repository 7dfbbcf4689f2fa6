package sim

import (
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

// TestPacketPoolPreservesPackedBacking pins the allocation contract of
// packed probes: a freed packed packet, array and all, is what the
// packed constructor returns next — even after data packets were freed
// on top of it, which is what a loaded fabric does between every two
// flushes — and plain requests do not take it.
func TestPacketPoolPreservesPackedBacking(t *testing.T) {
	n := packedTestNet(t)
	p := n.NewPackedProbe(8)
	if p.Kind != Probe || !p.IsPacked || p.TTL != InitialTTL || len(p.Packed) != 0 || cap(p.Packed) < 8 {
		t.Fatalf("NewPackedProbe(8) = %+v", p)
	}
	for i := 0; i < 8; i++ {
		p.Packed = append(p.Packed, ProbeEntry{Origin: topo.NodeID(i)})
	}
	backing := &p.Packed[0]
	d1, d2 := n.NewPacket(), n.NewPacket()
	n.Free(p)
	n.Free(d1)
	n.Free(d2)
	if got := n.NewPacket(); got != d2 {
		t.Fatal("a plain request did not get the plain packet freed last")
	}
	q := n.NewPackedProbe(5)
	if q != p {
		t.Fatal("the packed constructor did not return the freed packed packet")
	}
	if len(q.Packed) != 0 || &q.Packed[:1][0] != backing {
		t.Fatal("the recycled packed packet lost its backing array")
	}
	if q.Origin != 0 || q.Version != 0 || q.next != nil {
		t.Fatalf("recycled packet not zeroed: %+v", q)
	}
	// A larger request than the array holds replaces it, once.
	n.Free(q)
	if big := n.NewPackedProbe(32); big != q || cap(big.Packed) < 32 {
		t.Fatalf("NewPackedProbe(32) on an 8-entry packet: same packet %v, cap %d", big == q, cap(big.Packed))
	}
}

// TestPacketPoolPackedListFedFromPlain pins the one direction packets
// change lists in: with no packed packet free the constructor takes a
// plain one, which owns an array from then on and is freed to the
// packed list — where a plain request never looks, or data packets
// would carry the arrays off between flushes.
func TestPacketPoolPackedListFedFromPlain(t *testing.T) {
	var pl pool
	plain := &Packet{Seq: 9}
	pl.put(plain)
	q := pl.getPacked(2)
	if q != plain || q.Seq != 0 || cap(q.Packed) < 2 {
		t.Fatalf("packed request with only a plain packet free: same %v, %+v", q == plain, q)
	}
	pl.put(q)
	if pl.packed != q || pl.plain != nil {
		t.Fatal("a packet that owns a backing array was not freed to the packed list")
	}
	if d := pl.get(); d == q || cap(d.Packed) != 0 {
		t.Fatal("a plain request took a packet off the packed list")
	}
}

// TestPacketSlabsAreCacheLineAligned pins what the slab's pad is for. A
// packet is three cache lines long, and the event loop's reads of a
// channel's in-flight head (next, dueAt, dueSeq: the last 24 bytes) hit
// the third; eight bytes off a line boundary they spill into a fourth,
// which cost the WAN cell — tens of thousands of packets in flight —
// 5-8 % of its wall time. If a toolchain moves the allocator's header,
// this fails and the pad wants re-deriving; nothing else breaks.
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
	p := n.NewPacket()
	p.IsPacked = true
	p.Packed = append(p.Packed, ProbeEntry{Origin: 1, Version: 7}, ProbeEntry{Origin: 2, Version: 9})
	c := n.Clone(p)
	if len(c.Packed) != 2 || c.Packed[0].Origin != 1 || c.Packed[1].Version != 9 {
		t.Fatalf("clone lost packed entries: %+v", c.Packed)
	}
	c.Packed[0].Version = 100
	if p.Packed[0].Version != 7 {
		t.Fatalf("clone aliases the original's packed entries")
	}
}
