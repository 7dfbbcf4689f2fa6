// Package chaos is the runtime-update and fault-injection subsystem:
// it takes a resolved Plan of chaos events — whole-switch failures and
// reboots, probabilistic probe loss, and live policy hot-swaps — arms
// them on a running simulation, and measures what the scripts exist to
// measure: the convergence window of each policy swap and the realized
// probe-loss rate.
//
// The split of responsibilities mirrors the rest of the stack: the
// simulator (internal/sim) owns the mechanisms (node-down channel
// state, probabilistic probe drops, the Rebooter seam), the data plane
// (internal/dataplane.Fleet) owns the swappable compiled-policy
// handle, the compiler (internal/core.Recompile) owns mid-run
// recompilation — and this package owns the orchestration: scheduling
// the events deterministically on the engine's event queue,
// pre-compiling swap targets so the event-time action is a pure
// install, snapshotting routing state around each swap, and polling
// the fabric until it re-converges.
//
// Everything is deterministic per scenario seed: probe-loss draws come
// from a dedicated RNG seeded from the plan, and the monitor's polls
// ride the same event loop as the traffic, so a chaos campaign is
// byte-identical across runs, worker counts, and shard layouts.
package chaos

import (
	"fmt"

	"contra/internal/dataplane"
	"contra/internal/sim"
	"contra/internal/topo"
)

// NodeEvent fails (Up=false) or reboots (Up=true) a switch at At.
type NodeEvent struct {
	At   int64
	Node topo.NodeID
	Up   bool
}

// LossEvent sets the probe-drop rate of a set of links at At (rate 0
// clears). A per-switch probe_loss scenario event resolves to one
// LossEvent covering every fabric link attached to the switch.
type LossEvent struct {
	At    int64
	Links []topo.LinkID
	Rate  float64
}

// SwapEvent installs a recompiled policy at At. Source is the policy
// text; compilation happens at arm time (the paper measures compile
// cost separately — Figure 9), installation at At.
type SwapEvent struct {
	At     int64
	Source string
}

// Plan is one scenario's resolved chaos script. The zero value is an
// empty plan; Arm on it is a no-op returning a nil Runtime.
type Plan struct {
	// Seed derives the probe-loss RNG; use the scenario seed so noise
	// is deterministic per seed.
	Seed  int64
	Nodes []NodeEvent
	Loss  []LossEvent
	Swaps []SwapEvent
}

// Empty reports whether the plan schedules nothing.
func (p *Plan) Empty() bool {
	return len(p.Nodes) == 0 && len(p.Loss) == 0 && len(p.Swaps) == 0
}

// lossSeedMix decouples the probe-loss RNG stream from every other
// consumer of the scenario seed.
const lossSeedMix = 0x70726f6265 // "probe"

// Runtime is an armed chaos plan: it holds the swap monitors and reads
// back the fault-injection measurements after the run.
type Runtime struct {
	net   *sim.Network
	fleet *dataplane.Fleet
	swaps []*swapRun
}

// Arm schedules a plan on a running simulation. fleet may be nil for
// schemes without a swappable data plane (every baseline), in which
// case the plan must not contain swaps; probePeriodNs paces the swap
// convergence monitor. Arm must be called after the network is built
// and routers deployed, and before the engine runs past the first
// event time (scenario.Run arms right after Network.Start).
func Arm(n *sim.Network, fleet *dataplane.Fleet, plan Plan, probePeriodNs int64) (*Runtime, error) {
	if plan.Empty() {
		return nil, nil
	}
	if len(plan.Swaps) > 0 && fleet == nil {
		return nil, fmt.Errorf("chaos: policy_swap needs a contra data plane")
	}
	if probePeriodNs <= 0 {
		return nil, fmt.Errorf("chaos: probe period must be positive, got %d", probePeriodNs)
	}
	rt := &Runtime{net: n, fleet: fleet}
	for _, ev := range plan.Nodes {
		kind := sim.EvNodeDown
		if ev.Up {
			kind = sim.EvNodeUp
		}
		n.Inject(sim.NetworkEvent{At: ev.At, Kind: kind, Node: ev.Node})
	}
	if len(plan.Loss) > 0 {
		n.SetProbeLossSeed(plan.Seed ^ lossSeedMix)
		for _, ev := range plan.Loss {
			for _, id := range ev.Links {
				n.Inject(sim.NetworkEvent{At: ev.At, Kind: sim.EvProbeLoss, Link: id, Rate: ev.Rate})
			}
		}
	}
	for _, ev := range plan.Swaps {
		sr, err := armSwap(n, fleet, ev, probePeriodNs)
		if err != nil {
			return nil, err
		}
		rt.swaps = append(rt.swaps, sr)
	}
	return rt, nil
}

// SwapWindow is the measured outcome of one policy hot-swap: when it
// installed, how many (switch, destination) routes were live just
// before, and how long until every one of them was live again under
// the new policy. ConvergenceNs is the paper's runtime-update metric:
// the window during which routing was still re-forming. -1 means the
// run ended (or the swap never fired) before convergence.
type SwapWindow struct {
	AtNs          int64  `json:"at_ns"`
	Policy        string `json:"policy"`
	Pairs         int    `json:"pairs"`
	ConvergedAtNs int64  `json:"converged_at_ns"`
	ConvergenceNs int64  `json:"convergence_ns"`
}

// Report is the post-run summary of an armed plan.
type Report struct {
	Swaps []SwapWindow
	// ProbeLossSeen / ProbeLossDropped count probes offered to and
	// discarded by loss-injected channels; their ratio is the realized
	// loss rate (which converges on the configured rate as probe
	// volume grows).
	ProbeLossSeen    int64
	ProbeLossDropped int64
}

// ProbeLossFrac returns the realized probe-loss rate, 0 when no probe
// crossed a lossy channel.
func (r *Report) ProbeLossFrac() float64 {
	if r.ProbeLossSeen == 0 {
		return 0
	}
	return float64(r.ProbeLossDropped) / float64(r.ProbeLossSeen)
}

// Report collects the measurements after (or during) the run. Safe to
// call on a nil Runtime (empty plan): it returns a zero report.
func (rt *Runtime) Report() Report {
	var rep Report
	if rt == nil {
		return rep
	}
	rep.ProbeLossSeen, rep.ProbeLossDropped = rt.net.ProbeLossStats()
	for _, sr := range rt.swaps {
		rep.Swaps = append(rep.Swaps, sr.window())
	}
	return rep
}
