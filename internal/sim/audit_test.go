package sim

import "testing"

// TestAuditCountsEveryPacket pins what Audit accepts and what it
// catches: packets drawn from slabs must all be free or in flight, so a
// packet nobody freed, or one freed twice, fails it (the second without
// hanging on the cycle a double free closes in a freelist), and so does
// a single register miss.
func TestAuditCountsEveryPacket(t *testing.T) {
	quiet := func() (*Network, []*Packet) {
		n := packedTestNet(t)
		var held []*Packet
		for i := 0; i < 3; i++ {
			held = append(held, n.NewPacket(), n.NewPackedProbe(4))
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
	n.Free(held[1])
	n.CountRegisterMiss()
	if n.RegisterMisses() != 1 {
		t.Fatalf("RegisterMisses = %d after one miss", n.RegisterMisses())
	}
	if err := n.Audit(); err == nil {
		t.Fatal("a register miss passed the audit")
	}
}
