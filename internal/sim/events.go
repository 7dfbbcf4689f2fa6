package sim

import "contra/internal/topo"

// EventKind names a scripted network event.
type EventKind uint8

// Network event kinds.
const (
	// EvLinkDown takes both directions of a link down.
	EvLinkDown EventKind = iota
	// EvLinkUp restores a failed link.
	EvLinkUp
	// EvLinkScale multiplies a link's nominal bandwidth by Scale in
	// both directions (degradation when Scale < 1, upgrade when > 1).
	// The drop-tail buffer is unchanged: a degraded link drains its
	// backlog at the reduced rate, which is what makes degradation
	// visible to utilization-aware schemes.
	EvLinkScale
	// EvNodeDown fails a whole node: every channel touching it goes
	// dark in both directions, packets in flight toward it are lost,
	// and anything the node transmits (including probes its timers
	// keep emitting) is dropped at the port. Link-level admin state is
	// preserved underneath, so a node recovery never resurrects a link
	// that was independently failed with EvLinkDown.
	EvNodeDown
	// EvNodeUp reboots a failed node: its channels come back (unless
	// admin-down or the far endpoint is still down) and, if the node's
	// router implements Rebooter, its forwarding/probe state is
	// flushed so the control plane must warm back up — a reboot, not a
	// blip.
	EvNodeUp
	// EvProbeLoss sets a probabilistic probe-drop rate on both
	// directions of a link (Rate in [0,1]; 0 clears). Only Probe-kind
	// packets are affected: the event models noisy measurement, not
	// data loss. Draws come from the network's dedicated loss RNG
	// (SetProbeLossSeed), so the noise is deterministic per seed and
	// independent of every other randomness consumer.
	EvProbeLoss
)

// NetworkEvent is one entry of a timed event script: at absolute
// simulation time At, apply Kind to Link or Node. Events execute inside
// the deterministic event loop, so a script replays identically for a
// given engine seed regardless of host scheduling.
type NetworkEvent struct {
	At    int64
	Kind  EventKind
	Link  topo.LinkID
	Node  topo.NodeID // EvNodeDown / EvNodeUp
	Scale float64     // EvLinkScale only
	Rate  float64     // EvProbeLoss only
}

// Rebooter is the optional router seam node recovery uses: a router
// that implements it has its soft state (forwarding tables, probe
// freshness, flowlet pins) flushed when its switch comes back up, so
// recovery pays a realistic warm-up instead of resuming with tables
// frozen at failure time.
type Rebooter interface {
	Reboot()
}

// Inject schedules a timed event script. It may be called any time
// before or during the run; events in the past execute immediately
// (the engine clamps to now), preserving scheduling order.
func (n *Network) Inject(events ...NetworkEvent) {
	for _, ev := range events {
		ev := ev
		n.Eng.At(ev.At, func() { n.apply(ev) })
	}
}

// apply executes one event against the channel state.
func (n *Network) apply(ev NetworkEvent) {
	switch ev.Kind {
	case EvLinkDown, EvLinkUp:
		a, b := &n.chans[int(ev.Link)*2], &n.chans[int(ev.Link)*2+1]
		a.adminDown = ev.Kind == EvLinkDown
		b.adminDown = a.adminDown
		n.refreshDown(a)
		n.refreshDown(b)
	case EvLinkScale:
		a, b := &n.chans[int(ev.Link)*2], &n.chans[int(ev.Link)*2+1]
		scale := ev.Scale
		if scale <= 0 {
			scale = 1
		}
		rate := n.Topo.Link(ev.Link).Bandwidth / 8 / 1e9 * scale
		a.bytesPerNs, b.bytesPerNs = rate, rate
	case EvNodeDown, EvNodeUp:
		n.applyNode(ev.Node, ev.Kind == EvNodeDown)
	case EvProbeLoss:
		rate := ev.Rate
		if rate < 0 {
			rate = 0
		}
		if rate > 1 {
			rate = 1
		}
		n.chans[int(ev.Link)*2].probeLoss = rate
		n.chans[int(ev.Link)*2+1].probeLoss = rate
		if rate > 0 {
			n.probeLossOn = true
			if n.lossRng == nil {
				// A loss event without an explicit seed still needs a
				// deterministic source; derive one from nothing so the
				// run stays reproducible.
				n.SetProbeLossSeed(1)
			}
		}
	}
}

// applyNode fails or recovers a whole node: every channel touching it
// recomputes its effective down state, and a recovery flushes the
// router's soft state through the Rebooter seam.
func (n *Network) applyNode(node topo.NodeID, down bool) {
	if n.nodeDown[node] == down {
		return // duplicate event: nothing to do, and no spurious reboot
	}
	n.nodeDown[node] = down
	for _, chIdx := range n.portChan[node] {
		ch := &n.chans[chIdx]
		n.refreshDown(ch)
		// The reverse direction shares the link: linkID*2 ^ 1.
		rev := &n.chans[chIdx^1]
		n.refreshDown(rev)
	}
	if !down {
		if sw := n.switches[node]; sw != nil && sw.router != nil {
			if r, ok := sw.router.(Rebooter); ok {
				r.Reboot()
			}
		}
	}
}

// refreshDown recomputes a channel's effective down state from its
// admin flag and both endpoints' node state.
func (n *Network) refreshDown(ch *channel) {
	ch.down = ch.adminDown || n.nodeDown[ch.from] || n.nodeDown[ch.to]
}

// NodeDown reports whether a node is currently failed (tests and the
// chaos monitor).
func (n *Network) NodeDown(id topo.NodeID) bool { return n.nodeDown[id] }
