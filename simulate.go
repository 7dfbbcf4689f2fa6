package contra

import (
	"fmt"
	"slices"
	"time"

	"contra/internal/core"
	"contra/internal/dataplane"
	"contra/internal/sim"
	"contra/internal/topo"
)

// Flow describes one traffic flow for a Simulation.
type Flow = sim.FlowSpec

// Simulation runs a compiled program on the packet-level simulator,
// with interactive controls for examples and exploratory use: inject
// flows, fail links, inspect converged routes. RunScenario and
// RunCampaign are the batch equivalents.
type Simulation struct {
	prog    *Program
	eng     *sim.Engine
	net     *sim.Network
	routers map[topo.NodeID]*dataplane.Contra
}

// NewSimulation deploys the program's switch programs on a fresh
// network instance. The simulation draws no random numbers, so a run is
// a pure function of the program and the calls made on it.
func NewSimulation(p *Program) *Simulation {
	eng := sim.NewEngine()
	net := sim.NewNetwork(eng, p.compiled.Topo, sim.Config{})
	routers := dataplane.Deploy(net, p.compiled)
	net.Start()
	return &Simulation{prog: p, eng: eng, net: net, routers: routers}
}

// WarmUp runs enough probe rounds for routes to converge.
func (s *Simulation) WarmUp() {
	s.eng.Run(s.eng.Now() + 12*s.prog.compiled.Opts.ProbePeriodNs)
}

// RunFor advances simulated time.
func (s *Simulation) RunFor(d time.Duration) { s.eng.Run(s.eng.Now() + int64(d)) }

// Now returns the current simulated time.
func (s *Simulation) Now() time.Duration { return time.Duration(s.eng.Now()) }

// AddFlows injects flows (IDs must be unique within the simulation).
// Start times are relative to now; the caller's flows stay as they are.
func (s *Simulation) AddFlows(flows ...Flow) {
	shifted := slices.Clone(flows)
	for i := range shifted {
		shifted[i].Start += s.eng.Now()
	}
	s.net.StartFlows(shifted)
}

// RunUntilDone runs to the event that completes the nflows-th flow, or
// until the budget elapses; it reports whether all completed.
func (s *Simulation) RunUntilDone(budget time.Duration, nflows int64) bool {
	if s.net.CompletedFlows() < nflows {
		s.net.StopAtCompletion(nflows)
		s.eng.Run(s.eng.Now() + int64(budget))
		s.net.StopAtCompletion(0)
	}
	return s.net.CompletedFlows() >= nflows
}

// FailLink takes the link between two named nodes down after delay.
func (s *Simulation) FailLink(a, b string, after time.Duration) error {
	g := s.prog.compiled.Topo
	na, ok := g.NodeByName(a)
	if !ok {
		return fmt.Errorf("contra: unknown node %q", a)
	}
	nb, ok := g.NodeByName(b)
	if !ok {
		return fmt.Errorf("contra: unknown node %q", b)
	}
	l := g.LinkBetween(na, nb)
	if l == nil {
		return fmt.Errorf("contra: no link %s-%s", a, b)
	}
	s.net.Inject(sim.NetworkEvent{At: s.eng.Now() + int64(after), Kind: sim.EvLinkDown, Link: l.ID})
	return nil
}

// BestPath reproduces the exact path a fresh flowlet from a source
// switch to a destination switch would take: the source's BestT picks
// the initial (tag, pid), and the walk follows FwdT entries and tag
// rewrites hop by hop — just like a packet, and unlike chaining each
// switch's own preference (which is wrong under path constraints: a
// downstream switch follows the packet's tag, not its own BestT). On a
// topology with hosts, only a switch a host attaches to is a
// destination.
func (s *Simulation) BestPath(src, dst string) ([]string, Rank, error) {
	g := s.prog.compiled.Topo
	from, ok := g.NodeByName(src)
	if !ok {
		return nil, Rank{}, fmt.Errorf("contra: unknown switch %q", src)
	}
	to, ok := g.NodeByName(dst)
	if !ok {
		return nil, Rank{}, fmt.Errorf("contra: unknown switch %q", dst)
	}
	if g.Node(to).Kind == topo.Switch && !core.Originates(g, to) {
		return nil, Rank{}, fmt.Errorf("contra: %s originates no probes: no host attaches to it, so no switch routes to it", dst)
	}
	vnode, pid, rank, ok := s.routers[from].BestEntry(to)
	if !ok {
		return nil, Rank{}, fmt.Errorf("contra: %s has no route to %s", src, dst)
	}
	names := []string{g.Node(from).Name}
	cur := from
	for hops := 0; cur != to; hops++ {
		if hops > 2*g.NumNodes() {
			return nil, Rank{}, fmt.Errorf("contra: best-path walk did not converge (loop?)")
		}
		nhop, ntag, ok := s.routers[cur].Entry(to, vnode, pid)
		if !ok {
			return nil, Rank{}, fmt.Errorf("contra: %s has no usable entry toward %s", g.Node(cur).Name, dst)
		}
		cur = g.Ports(cur)[nhop].Peer
		vnode = ntag
		names = append(names, g.Node(cur).Name)
	}
	return names, rank, nil
}

// MeanFCT returns the mean flow completion time so far.
func (s *Simulation) MeanFCT() time.Duration {
	return time.Duration(s.net.FCT.Mean() * 1e9)
}

// CompletedFlows returns how many flows have finished.
func (s *Simulation) CompletedFlows() int64 { return s.net.CompletedFlows() }

// Totals is a simulation's running measurement counters: fabric bytes
// by packet kind, drops by reason, retransmissions, completed flows,
// probe packing and suppression savings, and loop breaks.
type Totals = sim.Totals

// Totals returns the measurement counters so far.
func (s *Simulation) Totals() Totals { return s.net.Totals() }

// HostNamed returns the node ID of a named host (for Flow specs).
func (s *Simulation) HostNamed(name string) (NodeID, error) {
	id, ok := s.prog.compiled.Topo.NodeByName(name)
	if !ok {
		return 0, fmt.Errorf("contra: unknown host %q", name)
	}
	return id, nil
}
