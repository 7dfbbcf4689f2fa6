package sim

import (
	"testing"

	"contra/internal/topo"
)

// eventNet builds the H0 - S0 - S1 - H1 line with routers attached and
// returns the S0-S1 fabric link for channel-level assertions.
func eventNet(t *testing.T) (*Engine, *Network, topo.LinkID) {
	t.Helper()
	g := lineTopo(10e9)
	e := NewEngine()
	n := NewNetwork(e, g, Config{})
	for _, sw := range g.Switches() {
		n.SetRouter(sw, &hopRouter{next: map[topo.NodeID]int{}})
	}
	n.Start()
	mid := g.LinkBetween(g.MustNode("S0"), g.MustNode("S1"))
	return e, n, mid.ID
}

func TestInjectDownUpScale(t *testing.T) {
	e, n, mid := eventNet(t)
	n.Inject(
		NetworkEvent{At: 1000, Kind: EvLinkDown, Link: mid},
		NetworkEvent{At: 2000, Kind: EvLinkScale, Link: mid, Scale: 0.25},
		NetworkEvent{At: 2000, Kind: EvLinkUp, Link: mid},
	)
	ab, ba := &n.chans[int(mid)*2], &n.chans[int(mid)*2+1]
	if ab.down || ba.down {
		t.Fatal("link down before its event")
	}
	e.Run(1500)
	if !ab.down || !ba.down {
		t.Fatal("EvLinkDown did not take both directions down")
	}
	e.Run(2500)
	if ab.down || ba.down {
		t.Fatal("EvLinkUp did not restore the link")
	}
	want := 10e9 / 8 / 1e9 * 0.25
	if ab.bytesPerNs != want || ba.bytesPerNs != want {
		t.Fatalf("EvLinkScale rate = %v/%v, want %v", ab.bytesPerNs, ba.bytesPerNs, want)
	}
	// Scale is relative to the nominal bandwidth, not cumulative.
	n.Inject(NetworkEvent{At: 3000, Kind: EvLinkScale, Link: mid, Scale: 0.5})
	e.Run(3500)
	if got, want := ab.bytesPerNs, 10e9/8/1e9*0.5; got != want {
		t.Fatalf("rescale rate = %v, want %v (relative to nominal)", got, want)
	}
	// Scale <= 0 restores nominal capacity.
	n.Inject(NetworkEvent{At: 4000, Kind: EvLinkScale, Link: mid, Scale: 0})
	e.Run(4500)
	if got, want := ab.bytesPerNs, 10e9/8/1e9; got != want {
		t.Fatalf("scale<=0 rate = %v, want nominal %v", got, want)
	}
}

func TestFailRecoverLinkCompat(t *testing.T) {
	e, n, mid := eventNet(t)
	n.Inject(NetworkEvent{At: 100, Kind: EvLinkDown, Link: mid})
	n.Inject(NetworkEvent{At: 200, Kind: EvLinkUp, Link: mid})
	e.Run(150)
	if !n.chans[int(mid)*2].down {
		t.Fatal("EvLinkDown did not fail the link")
	}
	e.Run(250)
	if n.chans[int(mid)*2].down {
		t.Fatal("EvLinkUp did not recover the link")
	}
}

// rebootSpy is a hopRouter that records Reboot calls.
type rebootSpy struct {
	hopRouter
	reboots int
}

func (r *rebootSpy) Reboot() { r.reboots++ }

func TestNodeDownUpAndLinkStateCompose(t *testing.T) {
	g := lineTopo(10e9)
	e := NewEngine()
	n := NewNetwork(e, g, Config{})
	spies := map[topo.NodeID]*rebootSpy{}
	for _, sw := range g.Switches() {
		spy := &rebootSpy{}
		spies[sw] = spy
		n.SetRouter(sw, spy)
	}
	n.Start()
	s0, s1 := g.MustNode("S0"), g.MustNode("S1")
	mid := g.LinkBetween(s0, s1)
	ab := &n.chans[int(mid.ID)*2]

	n.Inject(
		NetworkEvent{At: 1000, Kind: EvNodeDown, Node: s1},
		// Link-level failure while the node is down...
		NetworkEvent{At: 2000, Kind: EvLinkDown, Link: mid.ID},
		// ...so the node's recovery must NOT revive the link.
		NetworkEvent{At: 3000, Kind: EvNodeUp, Node: s1},
		NetworkEvent{At: 4000, Kind: EvLinkUp, Link: mid.ID},
	)
	e.Run(1500)
	if !n.NodeDown(s1) {
		t.Fatal("EvNodeDown did not mark the node")
	}
	if !ab.down {
		t.Fatal("channel into the failed node is still up")
	}
	if spies[s1].reboots != 0 {
		t.Fatal("going down must not reboot")
	}
	e.Run(3500)
	if n.NodeDown(s1) {
		t.Fatal("EvNodeUp did not clear the node")
	}
	if spies[s1].reboots != 1 {
		t.Fatalf("reboots = %d after recovery, want 1", spies[s1].reboots)
	}
	if spies[s0].reboots != 0 {
		t.Fatal("a neighbor rebooted spuriously")
	}
	if !ab.down {
		t.Fatal("node recovery revived an admin-down link")
	}
	e.Run(4500)
	if ab.down {
		t.Fatal("EvLinkUp did not restore the link after both recoveries")
	}
	// Duplicate node-up is a no-op, not a second reboot.
	n.Inject(NetworkEvent{At: 5000, Kind: EvNodeUp, Node: s1})
	e.Run(5500)
	if spies[s1].reboots != 1 {
		t.Fatalf("duplicate recovery rebooted again: %d", spies[s1].reboots)
	}
}

func TestNodeDownDropsAreTyped(t *testing.T) {
	e, n, mid := eventNet(t)
	s1 := n.Topo.MustNode("S1")
	_ = mid
	n.Inject(NetworkEvent{At: 1000, Kind: EvNodeDown, Node: s1})
	n.StartFlows([]FlowSpec{{ID: 1, Src: n.Topo.MustNode("H0"), Dst: n.Topo.MustNode("H1"), Size: 40_000, Start: 2000}})
	e.Run(5_000_000)
	if got := n.Totals().Drops[DropNodeDown]; got == 0 {
		t.Fatal("transmissions toward a failed node not counted as drop_nodedown")
	}
	if got := n.Totals().Drops[DropLinkDown]; got != 0 {
		t.Fatalf("node-failure drops misfiled as drop_linkdown: %v", got)
	}
}

func TestProbeLossOnlyDropsProbes(t *testing.T) {
	e, n, mid := eventNet(t)
	n.SetProbeLossSeed(9)
	n.Inject(NetworkEvent{At: 0, Kind: EvProbeLoss, Link: mid, Rate: 1.0}) // drop every probe on the fabric link
	// Data flow crosses the same link: must be untouched.
	n.StartFlows([]FlowSpec{{ID: 1, Src: n.Topo.MustNode("H0"), Dst: n.Topo.MustNode("H1"), Size: 40_000, Start: 1000}})
	// Inject probes by hand from S0 toward S1.
	s0 := n.Topo.MustNode("S0")
	e.At(2000, func() {
		for i := 0; i < 8; i++ {
			p := n.NewPacket()
			p.Kind = Probe
			p.Size = 64
			p.Origin = s0
			n.transmit(s0, int(n.Topo.PortTo(s0, n.Topo.MustNode("S1"))), p)
		}
	})
	e.Run(10_000_000)
	seen, dropped := n.ProbeLossStats()
	if seen != 8 || dropped != 8 {
		t.Fatalf("probe loss stats = (%d,%d), want (8,8) at rate 1.0", seen, dropped)
	}
	if n.CompletedFlows() != 1 {
		t.Fatal("probe loss affected the data flow")
	}
}
