package sim

import "testing"

// TestReleasedSlabsServeTheNextNetwork runs a loaded cell to a horizon
// with packets in flight over several slabs, audits and releases it,
// and checks the next network: every packet it draws is zero, it draws
// them from the released slabs and allocates none, and its own run
// audits clean and repeats the first one's accounting. The released
// network cannot draw again.
func TestReleasedSlabsServeTheNextNetwork(t *testing.T) {
	g := lineTopoDelay(10e9, 1_000_000) // 1 ms across the fabric: a megabyte in flight
	var flows []FlowSpec
	for i := 0; i < 8; i++ {
		flows = append(flows, FlowSpec{
			ID: uint64(i + 1), Src: g.MustNode("H0"), Dst: g.MustNode("H1"),
			Size: 2_000_000, Start: int64(i) * 1_000,
		})
	}
	const horizon = 6_000_000
	run := func(n *Network) Totals {
		for _, s := range g.Switches() {
			n.SetRouter(s, &hopRouter{})
		}
		n.Start()
		n.StartFlows(flows)
		n.Eng.Run(horizon)
		if err := n.Audit(); err != nil {
			t.Fatal(err)
		}
		return n.Totals()
	}

	first := NewNetwork(NewEngine(), g, Config{})
	want := run(first)
	inFlight := 0
	for i := range first.chans {
		for p := first.chans[i].inHead; p != nil; p = p.next {
			inFlight++
		}
	}
	released := map[*packetSlab]bool{}
	for s := first.pool.slabList; s != nil; s = s.next {
		released[s] = true
	}
	if inFlight == 0 || len(released) < 3 || len(released) != first.pool.slabs {
		t.Fatalf("the first cell ends with %d packets in flight and %d slabs listed of %d drawn; want some, and at least 3 listed",
			inFlight, len(released), first.pool.slabs)
	}
	t.Logf("%d packets in flight over %d slabs", inFlight, len(released))
	first.Release()
	first.Release() // a second release hands nothing on twice
	func() {
		defer func() {
			if recover() == nil {
				t.Error("a released network drew a packet")
			}
		}()
		first.NewPacket()
	}()

	second := NewNetwork(NewEngine(), g, Config{})
	drawn := make([]*Packet, len(released)*slabLen)
	for i := range drawn {
		if drawn[i] = second.NewPacket(); *drawn[i] != (Packet{}) {
			t.Fatalf("packet %d of the next network is not zero: %+v", i, *drawn[i])
		}
	}
	for s := second.pool.slabList; s != nil; s = s.next {
		if !released[s] {
			t.Fatalf("the next network allocated a slab with %d released ones to draw", len(released))
		}
		delete(released, s)
	}
	if len(released) != 0 {
		t.Fatalf("the next network drew %d packets and left %d released slabs unused", len(drawn), len(released))
	}
	for _, p := range drawn {
		second.Free(p)
	}
	if got := run(second); got != want {
		t.Fatalf("the next network's run on released slabs differs:\n got %+v\nwant %+v", got, want)
	}
}
