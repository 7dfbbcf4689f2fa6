package chaos

import (
	"fmt"

	"contra/internal/core"
	"contra/internal/dataplane"
	"contra/internal/sim"
	"contra/internal/topo"
)

// swapRun is one armed policy swap and its convergence monitor.
type swapRun struct {
	at     int64
	source string
	period int64
	net    *sim.Network
	fleet  *dataplane.Fleet

	installed   bool
	pairs       []routePair // routes live immediately before install
	convergedAt int64       // absolute ns; -1 while unconverged
	pollTimer   sim.Timer
}

// routePair is one (switch, destination) route the monitor requires to
// be live again before declaring convergence.
type routePair struct {
	sw, dst topo.NodeID
}

// armSwap pre-compiles the swap target (so the event-time action is a
// pure table install, like a controller pushing a staged artifact) and
// schedules the install plus its convergence monitor.
func armSwap(n *sim.Network, fleet *dataplane.Fleet, ev SwapEvent, periodNs int64, recompile func(*core.Compiled, string) (*core.Compiled, error)) (*swapRun, error) {
	comp, err := recompile(fleet.Compiled(), ev.Source)
	if err != nil {
		return nil, fmt.Errorf("chaos: policy_swap %q: %v", ev.Source, err)
	}
	sr := &swapRun{
		at:          ev.At,
		source:      ev.Source,
		period:      periodNs,
		net:         n,
		fleet:       fleet,
		convergedAt: -1,
	}
	n.Eng.At(ev.At, func() { sr.install(comp) })
	return sr, nil
}

// install snapshots the live routing state, hot-swaps the fleet, and
// starts polling for re-convergence.
func (sr *swapRun) install(comp *core.Compiled) {
	// Snapshot BEFORE the install: these are the routes the fabric had
	// under the old policy, minus any involving currently-failed gear
	// — a swap during a switch outage should not wait on routes the
	// outage already took away. Both endpoints matter: a failed switch
	// can't source routes, and routes toward it (whose entries may
	// still be inside the failure-detection window, hence "live") can
	// never re-form while it stays down. Routers are visited in map
	// order, but each router's LiveRoutes come back in ascending NodeID
	// order, so the snapshot is deterministic per router; the monitor
	// only ever asks whether all pairs are live again, so the order
	// across routers is immaterial.
	for sw, r := range sr.fleet.Routers() {
		if sr.net.NodeDown(sw) {
			continue
		}
		for _, dst := range r.LiveRoutes() {
			if sr.net.NodeDown(dst) {
				continue
			}
			sr.pairs = append(sr.pairs, routePair{sw: sw, dst: dst})
		}
	}
	sr.fleet.Install(comp)
	sr.installed = true
	// A swap installed on a cold fabric (no live routes yet — e.g.
	// scheduled inside the warm-up) has nothing to re-converge: there
	// is no measurable window, so don't poll and leave ConvergenceNs
	// at -1 rather than reporting a trivially-closed one.
	if len(sr.pairs) == 0 {
		return
	}
	// Poll on the probe-period grid: route state only changes as
	// probes arrive, so a finer poll buys nothing and a coarser one
	// overstates the window.
	sr.pollTimer = sr.net.Eng.Every(sr.net.Eng.Now()+sr.period, sr.period, sim.TickFunc(sr.poll))
}

// poll checks every snapshot pair; the first poll where all are live
// again closes the convergence window.
func (sr *swapRun) poll() {
	for _, p := range sr.pairs {
		if sr.net.NodeDown(p.sw) || !sr.fleet.Router(p.sw).HasRoute(p.dst) {
			return
		}
	}
	sr.convergedAt = sr.net.Eng.Now()
	sr.pollTimer.Cancel()
	sr.pollTimer = sim.Timer{}
}

// window renders the measured SwapWindow.
func (sr *swapRun) window() SwapWindow {
	w := SwapWindow{
		AtNs:          sr.at,
		Policy:        sr.source,
		Pairs:         len(sr.pairs),
		ConvergedAtNs: sr.convergedAt,
		ConvergenceNs: -1,
	}
	if sr.convergedAt >= 0 {
		w.ConvergenceNs = sr.convergedAt - sr.at
	}
	return w
}
