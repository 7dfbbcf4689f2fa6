package baseline

import (
	"slices"
	"testing"

	"contra/internal/sim"
	"contra/internal/topo"
)

// refECMPPorts is the candidate-port list ECMP.Attach built for one
// (switch, destination) pair before the flat table: the pair's next
// hops, each mapped to its port, in next-hop order.
func refECMPPorts(g *topo.Graph, s, dst topo.NodeID) []int32 {
	nh := g.ECMPNextHops(s, dst)
	if len(nh) == 0 {
		return nil
	}
	ports := make([]int32, len(nh))
	for i, m := range nh {
		ports[i] = int32(g.PortTo(s, m))
	}
	return ports
}

// TestECMPTableMatchesPerPairReference compares the flat next-hop table
// with the per-pair lists, port order included (Handle picks by flow
// hash modulo the count), on a fat-tree, on a WAN, and on a graph with
// parallel links, one of them down, where a neighbour appears once per
// up link and maps to its lowest port.
func TestECMPTableMatchesPerPairReference(t *testing.T) {
	parallel := topo.New("parallel")
	a := parallel.AddNode("A", topo.Switch)
	b := parallel.AddNode("B", topo.Switch)
	c := parallel.AddNode("C", topo.Switch)
	d := parallel.AddNode("D", topo.Switch)
	parallel.AddLink(a, b, 10e9, 1000)
	parallel.AddLink(a, b, 10e9, 1000)
	parallel.AddLink(a, c, 10e9, 1000)
	down := parallel.AddLink(a, c, 10e9, 1000)
	parallel.AddLink(b, d, 10e9, 1000)
	parallel.AddLink(c, d, 10e9, 1000)
	parallel.SetDown(down, true)

	for _, g := range []*topo.Graph{topo.Fattree(4, 2), topo.AbileneWithHosts(0), parallel} {
		n := sim.NewNetwork(sim.NewEngine(), g, sim.Config{})
		routers := map[topo.NodeID]*ECMP{}
		for _, s := range g.Switches() {
			routers[s] = NewECMP()
			n.SetRouter(s, routers[s])
		}
		n.Start()
		for _, s := range g.Switches() {
			for _, dst := range g.Switches() {
				if got, want := routers[s].next(dst), refECMPPorts(g, s, dst); !slices.Equal(got, want) {
					t.Fatalf("%s: ports from %s toward %s = %v, reference %v", g.Name, g.Node(s).Name, g.Node(dst).Name, got, want)
				}
			}
		}
	}
}
