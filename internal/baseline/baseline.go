// Package baseline implements the comparison systems of the paper's
// evaluation (§6.1): ECMP and shortest-path routing (static,
// load-oblivious), HULA (utilization-aware probes on Clos topologies),
// and SPAIN (offline multipath sets with static spreading). Each is a
// sim.Router, so they run on the identical substrate as Contra.
package baseline

import (
	"contra/internal/sim"
	"contra/internal/slab"
	"contra/internal/topo"
)

// base carries the plumbing shared by all baseline routers.
type base struct {
	sw *sim.SwitchDev
}

func (b *base) init(sw *sim.SwitchDev) {
	b.sw = sw
}

// pre handles TTL and local delivery; it returns the destination edge
// switch and false when the packet has been consumed.
func (b *base) pre(pkt *sim.Packet) (topo.NodeID, bool) {
	if pkt.TTL == 0 {
		b.sw.Drop(pkt, sim.DropTTL)
		return 0, false
	}
	pkt.TTL--
	dstEdge, ok := b.sw.Net.HostEdge(pkt.Dst)
	if !ok {
		b.sw.Drop(pkt, sim.DropNoHost)
		return 0, false
	}
	if dstEdge == b.sw.ID {
		b.sw.DeliverLocal(pkt)
		return 0, false
	}
	return dstEdge, true
}

// flowHash gives the per-flow hash used for static spreading.
func flowHash(flowID uint64) uint64 {
	x := flowID * 0x9e3779b97f4a7c15
	x ^= x >> 32
	x *= 0xd6e8feb86659fd93
	return x ^ (x >> 32)
}

// ECMP hashes each flow uniformly across the shortest-path next hops,
// with no load awareness: the paper's primary data center baseline.
type ECMP struct {
	base
	// The next-hop table, flat: the candidate ports toward destination
	// switch d are ports[off[d]:off[d+1]], in next-hop order (ascending
	// NodeID). off is indexed by NodeID up to the last switch, plus one.
	off   []int32
	ports []int32
	// Single, when true, always uses the first candidate: shortest
	// path routing (the paper's SP baseline for general topologies).
	Single bool
	// slabs holds the deploy's tables this router takes its windows
	// from; nil for a router attached on its own.
	slabs *ecmpSlabs
}

// ecmpSlabs is one deploy's ECMP tables: every switch's offsets and
// candidate ports are windows of one array each, taken in attach order,
// and nh is the next-hop scratch every Attach shares.
type ecmpSlabs struct {
	off, ports []int32
	nh         []topo.NodeID
}

// NewECMP returns an ECMP router.
func NewECMP() *ECMP { return &ECMP{} }

// Attach implements sim.Router: precompute next-hop sets on the
// topology as currently up (static schemes recompute offline, so a
// failed-from-the-start link is excluded — §6.3's asymmetric setup).
// The table is filled in two passes over the graph's shared hop
// vectors, one to size it and one to fill it, into windows of the
// deploy's slabs.
func (r *ECMP) Attach(sw *sim.SwitchDev) {
	r.init(sw)
	g := sw.Net.Topo
	switches := g.Switches() // ascending
	s := r.slabs
	if s == nil {
		s = &ecmpSlabs{}
	}
	nh := s.nh[:0]
	r.off = slab.Take(&s.off, int(switches[len(switches)-1])+2)
	for _, dst := range switches {
		nh = g.AppendECMPNextHops(nh[:0], sw.ID, dst)
		r.off[dst+1] = int32(len(nh))
	}
	for d := 1; d < len(r.off); d++ {
		r.off[d] += r.off[d-1]
	}
	r.ports = slab.Take(&s.ports, int(r.off[len(r.off)-1]))[:0]
	for _, dst := range switches {
		// Port order follows next-hop order (ascending NodeID): Handle
		// picks by flowHash % len(ports), so the order is observable.
		nh = g.AppendECMPNextHops(nh[:0], sw.ID, dst)
		for _, m := range nh {
			r.ports = append(r.ports, int32(g.PortTo(sw.ID, m)))
		}
	}
	s.nh = nh
}

// next returns the candidate ports toward destination switch dst.
func (r *ECMP) next(dst topo.NodeID) []int32 {
	return r.ports[r.off[dst]:r.off[dst+1]]
}

// Handle implements sim.Router.
func (r *ECMP) Handle(pkt *sim.Packet, inPort int) {
	if pkt.Kind == sim.Probe {
		r.sw.Drop(pkt, sim.DropProbeUnsupported)
		return
	}
	dstEdge, ok := r.pre(pkt)
	if !ok {
		return
	}
	ports := r.next(dstEdge)
	if len(ports) == 0 {
		r.sw.Drop(pkt, sim.DropNoRoute)
		return
	}
	idx := 0
	if !r.Single && len(ports) > 1 {
		idx = int(flowHash(pkt.FlowID) % uint64(len(ports)))
	}
	r.sw.Send(int(ports[idx]), pkt)
}

// DeployECMP installs ECMP on every switch.
func DeployECMP(n *sim.Network) { deployECMP(n, false) }

// DeploySP installs single shortest-path routing on every switch.
func DeploySP(n *sim.Network) { deployECMP(n, true) }

// deployECMP installs ECMP, or with single shortest-path routing, on
// every switch. The routers are one slab, and their tables windows of
// the deploy's, sized here by counting the next hops Attach lays out.
func deployECMP(n *sim.Network, single bool) {
	g := n.Topo
	switches := g.Switches()
	if len(switches) == 0 {
		return
	}
	st := sim.Reuse[deployState](n)
	s := &st.ecmpTabs
	total := 0
	for _, src := range switches {
		for _, dst := range switches {
			s.nh = g.AppendECMPNextHops(s.nh[:0], src, dst)
			total += len(s.nh)
		}
	}
	s.off = slab.Reuse(s.off, len(switches)*(int(switches[len(switches)-1])+2))
	s.ports = slab.Reuse(s.ports, total)
	cur := new(ecmpSlabs) // the routers take their windows from a copy
	*cur = *s
	st.ecmp = slab.Reuse(st.ecmp, len(switches))
	for i, id := range switches {
		st.ecmp[i] = ECMP{Single: single, slabs: cur}
		n.SetRouter(id, &st.ecmp[i])
	}
}

// deployState is a deploy's router slab and tables, ECMP's and HULA's
// side by side. A released network hands it on with its cell state
// (sim.Reuse) to the next deploy of either scheme, which lays its
// routers out in the same arrays where they are large enough. HULA
// routers keep their flowlet table's storage; every other field is set
// afresh.
type deployState struct {
	ecmp     []ECMP
	ecmpTabs ecmpSlabs
	hula     []Hula
	hulaTabs hulaSlabs
	origins  hulaOrigins
}

// Release implements sim.Releaser: the routers keep nothing of their
// network but HULA's flowlet storage.
func (st *deployState) Release() {
	clear(st.ecmp)
	for i := range st.hula {
		r := &st.hula[i]
		*r = Hula{flowlets: r.flowlets}
	}
}
