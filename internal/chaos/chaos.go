// Package chaos is the runtime-update subsystem: it arms live policy
// hot-swaps on a running simulation and measures what they exist to
// measure, the convergence window of each swap.
//
// The split of responsibilities mirrors the rest of the stack: the
// data plane (internal/dataplane.Fleet) owns the swappable
// compiled-policy handle, the compiler (internal/core.Recompile) owns
// mid-run recompilation — and this package owns the orchestration:
// pre-compiling swap targets so the event-time action is a pure
// install, snapshotting routing state around each swap, and polling
// the fabric until it re-converges. The other scripted faults —
// whole-switch failures and reboots, probabilistic probe loss — are
// plain sim.NetworkEvents; scenario.Run injects them itself.
//
// The monitor's polls ride the same event loop as the traffic, so a
// chaos campaign is byte-identical across runs, worker counts, and
// shard layouts.
package chaos

import (
	"fmt"

	"contra/internal/core"
	"contra/internal/dataplane"
	"contra/internal/sim"
)

// SwapEvent installs a recompiled policy at At. Source is the policy
// text; compilation happens at arm time (the paper measures compile
// cost separately — Figure 9), installation at At.
type SwapEvent struct {
	At     int64
	Source string
}

// Runtime is the armed swaps' convergence monitors, in arming order;
// nil when there are none.
type Runtime []*swapRun

// Arm schedules policy swaps on a running simulation; with none it is
// a no-op returning a nil Runtime. fleet may be nil for schemes without
// a swappable data plane (every baseline), in which case there must be
// no swaps; probePeriodNs paces the convergence monitor; recompile
// compiles each swap's policy against the running artifact's topology
// and options ((*core.Compiled).Recompile, or a caller's memo of it).
// Arm must be called after the network is built and routers deployed,
// and before the engine runs past the first swap time (scenario.Run
// arms right after Network.Start).
func Arm(n *sim.Network, fleet *dataplane.Fleet, swaps []SwapEvent, probePeriodNs int64, recompile func(*core.Compiled, string) (*core.Compiled, error)) (Runtime, error) {
	if len(swaps) == 0 {
		return nil, nil
	}
	if fleet == nil {
		return nil, fmt.Errorf("chaos: policy_swap needs a contra data plane")
	}
	if probePeriodNs <= 0 {
		return nil, fmt.Errorf("chaos: probe period must be positive, got %d", probePeriodNs)
	}
	var rt Runtime
	for _, ev := range swaps {
		sr, err := armSwap(n, fleet, ev, probePeriodNs, recompile)
		if err != nil {
			return nil, err
		}
		rt = append(rt, sr)
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

// Windows reads the swaps' measurements after (or during) the run, in
// arming order.
func (rt Runtime) Windows() []SwapWindow {
	var out []SwapWindow
	for _, sr := range rt {
		out = append(out, sr.window())
	}
	return out
}
