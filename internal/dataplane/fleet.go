package dataplane

import (
	"contra/internal/core"
	"contra/internal/sim"
	"contra/internal/slab"
	"contra/internal/topo"
)

// The Contra router participates in both runtime-update seams: policy
// hot-swap (Fleet.Install) and whole-node reboot (sim.Rebooter).
var _ sim.Rebooter = (*Contra)(nil)

// Fleet is the swappable compiled-policy handle for a deployed Contra
// fabric: it owns the routers of every switch and the compiled
// artifact they currently run, and Install atomically replaces that
// artifact mid-simulation — the runtime-update path of §5. Everything
// that assumed the policy was fixed at deploy time goes through this
// seam instead of holding a *core.Compiled directly.
type Fleet struct {
	net     *sim.Network
	routers map[topo.NodeID]*Contra
	comp    *core.Compiled
	era     uint8
}

// fleetState is a deploy's router slab and the tables it laid the
// routers out in. A released network hands it on with its cell state
// (sim.Reuse) to the next Contra deploy, which lays its own routers out
// in the same arrays where they are large enough. The routers keep
// their pin tables' storage (init empties them); every other field is
// set afresh.
type fleetState struct {
	routers []Contra
	tabs    tables
}

// DeployFleet attaches a Contra router built from comp to every switch
// in the network and returns the swappable handle. The routers share
// the compiled artifact but keep independent table state, exactly like
// distinct devices: the routers are one slab, and each one's tables are
// disjoint windows of the fleet's, one array per table, laid out in
// what the last released fleet handed on (fleetState).
func DeployFleet(n *sim.Network, comp *core.Compiled) *Fleet {
	switches := n.Topo.Switches()
	st := sim.Reuse[fleetState](n)
	f := &Fleet{
		net:     n,
		routers: make(map[topo.NodeID]*Contra, len(switches)),
		comp:    comp,
	}
	st.tabs.size(comp, switches, true)
	t := st.tabs // the routers take their windows from a copy
	st.routers = slab.Keep(st.routers, len(switches))
	for i, swID := range switches {
		r := &st.routers[i]
		r.init(comp, swID, &t)
		f.routers[swID] = r
		n.SetRouter(swID, r)
	}
	return f
}

// Release implements sim.Releaser: the fleet's routers and tables go to
// the next deploy, and the routers keep nothing of this one but their
// pin tables' storage.
func (st *fleetState) Release() {
	for i := range st.routers {
		c := &st.routers[i]
		*c = Contra{flowlets: c.flowlets, srcPins: c.srcPins}
	}
	clear(st.tabs.probeOut)
	st.tabs.evals = nil
}

// Deploy is the fixed-policy entry point: DeployFleet without keeping
// the swap handle.
func Deploy(n *sim.Network, comp *core.Compiled) map[topo.NodeID]*Contra {
	return DeployFleet(n, comp).routers
}

// Routers exposes the per-switch routers (diagnostics and tests).
func (f *Fleet) Routers() map[topo.NodeID]*Contra { return f.routers }

// Router returns one switch's router.
func (f *Fleet) Router(id topo.NodeID) *Contra { return f.routers[id] }

// Compiled returns the artifact the fleet currently runs.
func (f *Fleet) Compiled() *core.Compiled { return f.comp }

// Era returns the current policy generation (0 until the first swap).
func (f *Fleet) Era() uint8 { return f.era }

// Install hot-swaps a freshly compiled policy into every router in one
// event-loop step: the fleet era is bumped, and each switch (in
// deterministic topology order) swaps its program, flushes tables
// whose tag space belonged to the old product graph, and re-stamps all
// future probes and packets with the new era. The new artifact must
// target the same topology and options — core.Recompile is the
// intended producer. Convergence is not instant: routes re-form as
// new-era probes propagate, which is exactly the window the chaos
// subsystem measures. The whole fleet is laid out again in one pass,
// every router's new tables windows of one array per table.
func (f *Fleet) Install(comp *core.Compiled) {
	f.era++
	f.comp = comp
	switches := f.net.Topo.Switches()
	t := newTables(comp, switches, false)
	for _, swID := range switches {
		f.routers[swID].install(comp, f.era, t)
	}
}
