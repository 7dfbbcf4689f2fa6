package sim

import (
	"slices"

	"contra/internal/slab"
	"contra/internal/stats"
	"contra/internal/topo"
)

// cellState is what a released network hands on to the next one built
// in this process: every table whose size follows from the topology and
// the workload, with its capacity, and the schemes' deploy state drawn
// with Reuse. A campaign worker runs cells back to back, so the next
// cell draws the last one's arrays instead of allocating its own.
// NewNetwork clears what it draws to the length a fresh table would
// have, so a cell starts from the same zero state either way; Release
// clears what holds pointers, so nothing here keeps the finished cell
// alive.
type cellState struct {
	// NewNetwork's tables.
	switches []*SwitchDev
	hosts    []*HostDev
	chans    []channel
	portChan [][]int32
	ports    []int32 // portChan's rows
	hostPort []int32
	hostEdge []topo.NodeID
	nodeDown []bool
	swDevs   []SwitchDev
	hostDevs []HostDev
	decay    *stats.DecayMemo

	// StartFlows' tables.
	flowTab []*flowState
	states  []flowState
	bitmaps []uint64
	flows   map[uint64]struct{}

	// The engine's queues and timer slots.
	cold, hot, run []event
	timers         []timerSlot
	freeTimers     []int32

	// The pool's zeroed packet slabs and emptied probe buffers.
	pktSlabs *packetSlab
	bufSlabs *bufSlab

	// spares is the schemes' deploy state, one per scheme that deployed
	// on a network this state served; the first claimed of them are the
	// current network's, which Release releases.
	spares  []Releaser
	claimed int
}

// releasedCells holds the state released networks handed on.
var releasedCells slab.Store[cellState]

// Releaser is state a scheme sized for one network and can hand on to
// the next: a deploy's router tables.
type Releaser interface{ Release() }

// Reuse returns the deploy state of type T that the network's cell
// state carries from an earlier deploy of the same scheme, or a new
// one, and has Release release it after the routers are done with it.
// Schemes deploying on a network draw their tables here.
func Reuse[T any, P interface {
	*T
	Releaser
}](n *Network) P {
	c := n.cell
	i := slices.IndexFunc(c.spares[c.claimed:], func(r Releaser) bool { _, ok := r.(P); return ok })
	if i < 0 {
		i = len(c.spares) - c.claimed
		c.spares = append(c.spares, P(new(T)))
	}
	s := c.spares[c.claimed:]
	s[0], s[i] = s[i], s[0]
	c.claimed++
	return s[0].(P)
}

// Release hands the network's tables, packet slabs, probe buffers and
// engine queues on to the next network built in this process, and
// releases the deploy state drawn with Reuse. It is safe once the
// engine will not run again and nothing reads a packet or a router any
// more: at the horizon, after Audit has passed (every packet is then
// free or in flight, so no device or router holds one) and the results
// have been read. Each packet in flight is dropped with its slab. The
// network cannot run afterwards: drawing a packet panics, and its
// devices, channels and flows are gone. Totals and the other counters
// still read as before; Audit fails, since the packets it counts are
// gone. Releasing twice hands the state on once. A network that is
// never released keeps its state until the collector frees it.
func (n *Network) Release() {
	c := n.cell
	if c == nil {
		return
	}
	for _, r := range c.spares[:c.claimed] {
		r.Release()
	}
	c.claimed = 0
	c.pktSlabs, c.bufSlabs = n.pool.release()
	n.Eng.surrender(c)
	clear(n.flowTab)
	clear(c.states)
	c.flowTab, c.states, c.bitmaps, c.flows = n.flowTab[:0], c.states[:0], c.bitmaps[:0], n.flows
	clear(c.switches)
	clear(c.hosts)
	clear(c.chans)
	clear(c.portChan)
	clear(c.swDevs)
	clear(c.hostDevs)
	n.cell, n.switches, n.hosts, n.chans, n.portChan = nil, nil, nil, nil, nil
	n.hostPort, n.hostEdge, n.nodeDown, n.flowTab, n.flows = nil, nil, nil, nil, nil
	releasedCells.Put(c)
}

// adopt gives the engine a finished cell's queue arrays and timer slots
// wherever it has none of its own yet (NewNetwork).
func (e *Engine) adopt(c *cellState) {
	if cap(e.cold) == 0 {
		e.cold = c.cold[:0]
	}
	if cap(e.hot) == 0 {
		e.hot = c.hot[:0]
	}
	if len(e.run) == 0 {
		e.run = c.run // the ring's length is its size; runLen is 0
	}
	if cap(e.timers) == 0 {
		e.timers = c.timers[:0]
	}
	if cap(e.freeTimers) == 0 {
		e.freeTimers = c.freeTimers[:0]
	}
}

// surrender hands the engine's queue arrays and timer slots to c,
// emptied, and leaves the engine with none (Release).
func (e *Engine) surrender(c *cellState) {
	clear(e.timers)
	c.cold, c.hot, c.run = e.cold[:0], e.hot[:0], e.run
	c.timers, c.freeTimers = e.timers[:0], e.freeTimers[:0]
	e.cold, e.hot, e.run, e.timers, e.freeTimers = nil, nil, nil, nil, nil
	e.runHead, e.runLen = 0, 0
}
