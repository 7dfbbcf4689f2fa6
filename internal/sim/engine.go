// Package sim is a deterministic discrete-event, packet-level network
// simulator: the execution substrate standing in for the paper's ns-3
// setup. It models links with finite bandwidth, propagation delay and
// drop-tail queues, switches running pluggable forwarding logic (the
// Contra data plane or a baseline), hosts with a window-based AIMD
// transport, and the measurement plumbing the evaluation needs (flow
// completion times, queue length CDFs, traffic accounting, throughput
// time series, loop detection).
package sim

import (
	"fmt"
	"math/bits"
)

// Engine is the event loop. Times are int64 nanoseconds. Execution is
// single-threaded and deterministic: ties in time break by scheduling
// order.
//
// Events are typed entries ordered by (at, seq). The queue stays small
// because the two high-volume event sources keep one entry each instead
// of one per occurrence: a directed channel holds its in-flight packets
// on its own FIFO and queues only the head's arrival (Network.transmit),
// and a flow queues one RTO carrier that follows its re-armed deadline
// (HostDev.armRTO). Both reserve the (at, seq) slot of every occurrence
// up front, so effective events execute in exactly the order one entry
// per packet and per arm would give.
//
// The entries live in three structures, split by kind. Channel arrivals
// are almost every event, but a minority of the entries: most of the
// queue is timers and RTO carriers, which rarely fire. So arrivals are
// kept apart from them:
//
//   - cold, a binary heap of evFunc, evTimer and evRTO;
//   - run, a FIFO of evDeliver entries in (at, seq) order: an arrival is
//     appended when it sorts after the run's tail, or the run is empty;
//   - hot, a binary heap of the evDeliver entries that arrived out of
//     order.
//
// Each busy channel has exactly one entry, in run or hot. Run takes the
// earliest of the three heads. Where packets and links are uniform most
// arrivals land in order, and a hop costs an append and an index bump
// instead of a sift; the rest sift a heap of deliveries only, not one
// padded with entries that fire later anyway.
//
// An entry is kept to what a sift must move: 24 bytes, no pointers (see
// event). Whatever an event refers to lives in a table the entry
// indexes — channels and flows in the Network, callbacks in timers — and
// push, pushDeliver and the pop and rekey methods are the only code that
// writes the queue.
type Engine struct {
	now int64
	seq uint64

	cold []event // binary min-heap by event.before: evFunc, evTimer, evRTO
	hot  []event // binary min-heap by event.before: out-of-order evDeliver

	// run is a ring of in-order evDeliver entries, ascending from
	// run[runHead] for runLen entries; len(run) is 0 or a power of two.
	run             []event
	runHead, runLen int

	// net receives typed deliver/RTO events. Set by NewNetwork; one
	// network per engine (everywhere in this repo), enforced there.
	net *Network

	// timers holds every callback the queue refers to: Every's
	// recurring ticks, which cancel in place, and At's one-shots, which
	// free their slot as they fire.
	timers     []timerSlot
	freeTimers []int32
}

// timerSlot is one callback. A recurring timer is active until
// cancelled. A one-shot is never active: it cannot be cancelled and
// exactly one queue entry names it, so it uses fn alone. gen guards
// against a slot being recycled while a queued tick or a cancel function
// still names it: the stale generation no longer matches, so neither
// touches the new occupant.
type timerSlot struct {
	period int64
	fn     func()
	gen    uint32
	active bool
}

// evKind discriminates the typed events.
type evKind uint8

const (
	evFunc    evKind = iota // one-shot callback in timer slot arg
	evDeliver               // arrival of the head of channel arg's in-flight FIFO
	evTimer                 // recurring tick of timer slot arg at generation gen
	evRTO                   // RTO carrier of flow arg (index in Network.flowTab)
)

// event is one queue entry: its key and the index of what it is about.
// A sift copies entries level by level, so the layout is the cost of a
// hop: 24 bytes, and no pointer, so a copy needs no write barrier and
// the collector never scans the queue. TestEventLayout holds both.
type event struct {
	at   int64
	seq  uint64
	arg  int32  // index into the table kind names
	gen  uint16 // evTimer: low 16 bits of the slot's generation
	kind evKind
}

// before is the engine's total order: time, then scheduling sequence.
func (e *event) before(o *event) bool {
	if e.at != o.at {
		return e.at < o.at
	}
	return e.seq < o.seq
}

// NewEngine returns an empty engine at time 0. The engine draws no
// randomness: a run is a function of what is scheduled on it.
func NewEngine() *Engine { return &Engine{} }

// Now returns the current simulation time in ns.
func (e *Engine) Now() int64 { return e.now }

// reserve clamps t to now and takes the next sequence number: the
// (at, seq) slot of one occurrence in the engine's total order, whether
// it is queued now (schedule) or later by its channel or flow.
func (e *Engine) reserve(t int64) (int64, uint64) {
	if t < e.now {
		t = e.now
	}
	e.seq++
	return t, e.seq
}

// schedule enqueues a timer event at absolute time t (clamped to now),
// assigning the next sequence number.
func (e *Engine) schedule(t int64, ev event) {
	ev.at, ev.seq = e.reserve(t)
	e.push(&e.cold, ev)
}

// At schedules fn at absolute time t (>= now). The closure waits in a
// timer slot; the queue entry carries the slot's index.
func (e *Engine) At(t int64, fn func()) {
	idx := e.newSlot()
	e.timers[idx].fn = fn
	e.schedule(t, event{kind: evFunc, arg: idx})
}

// After schedules fn d nanoseconds from now.
func (e *Engine) After(d int64, fn func()) { e.At(e.now+d, fn) }

// Every schedules fn every period ns starting at start, until the
// returned cancel function is called. Cancelling releases the callback
// immediately; the already-queued tick drains as a no-op that frees
// the timer slot without firing.
func (e *Engine) Every(start, period int64, fn func()) (cancel func()) {
	idx := e.newSlot()
	slot := &e.timers[idx]
	slot.period = period
	slot.fn = fn
	slot.active = true
	gen := slot.gen
	e.schedule(start, event{kind: evTimer, arg: idx, gen: uint16(gen)})
	return func() {
		s := &e.timers[idx]
		if s.gen == gen && s.active {
			s.active = false
			s.fn = nil // release the callback now, not at the stale tick
		}
	}
}

// newSlot takes a timer slot off the freelist, or grows the table.
func (e *Engine) newSlot() int32 {
	if n := len(e.freeTimers); n > 0 {
		idx := e.freeTimers[n-1]
		e.freeTimers = e.freeTimers[:n-1]
		return idx
	}
	e.timers = append(e.timers, timerSlot{})
	return int32(len(e.timers) - 1)
}

// freeSlot releases slot idx for reuse under a new generation. The
// caller holds the last queue entry that names it, or knows there is
// none.
func (e *Engine) freeSlot(idx int32) {
	slot := &e.timers[idx]
	slot.gen++
	slot.fn = nil
	e.freeTimers = append(e.freeTimers, idx)
}

// timersInUse counts live recurring timers (tests).
func (e *Engine) timersInUse() int {
	n := 0
	for i := range e.timers {
		if e.timers[i].active {
			n++
		}
	}
	return n
}

// tick fires recurring timer slot idx if gen is still its generation.
func (e *Engine) tick(idx int32, gen uint16) {
	slot := &e.timers[idx]
	if uint16(slot.gen) != gen {
		return // stale tick of a recycled slot
	}
	if !slot.active {
		// Cancelled: this queued tick is the last reference.
		e.freeSlot(idx)
		return
	}
	// Fire, then reschedule — in that order, so events the callback
	// schedules keep their historical sequence numbers (campaign
	// output is byte-compared across scheduler changes).
	slot.fn()
	// The callback may have created timers and grown e.timers;
	// re-resolve the slot before touching it again.
	slot = &e.timers[idx]
	if uint16(slot.gen) != gen {
		return
	}
	if slot.active {
		e.schedule(e.now+slot.period, event{kind: evTimer, arg: idx, gen: gen})
	} else {
		// Cancelled by its own callback: no tick remains queued.
		e.freeSlot(idx)
	}
}

// Run processes events until the queue is empty or time exceeds until.
func (e *Engine) Run(until int64) {
	for {
		top, in := e.first()
		if top == nil || top.at > until {
			break
		}
		e.now = top.at
		// Every case removes or re-keys the top entry before it calls
		// out: callees schedule, which moves the queue under top.
		switch top.kind {
		case evDeliver:
			ch := &e.net.chans[top.arg]
			pkt := ch.inHead
			if ch.inHead = pkt.next; ch.inHead != nil {
				e.rekeyDeliver(in, ch.inHead.dueAt, ch.inHead.dueSeq)
			} else {
				e.popDeliver(in)
			}
			pkt.next = nil
			e.net.deliver(ch, pkt)
		case evFunc:
			idx := top.arg
			e.popTop(&e.cold)
			// Free the slot before the callback runs: it may call At and
			// be handed this very slot.
			fn := e.timers[idx].fn
			e.freeSlot(idx)
			fn()
		case evTimer:
			idx, gen := top.arg, top.gen
			e.popTop(&e.cold)
			e.tick(idx, gen)
		case evRTO:
			st := e.net.flowTab[top.arg]
			switch {
			case top.seq != st.carrierSeq:
				e.popTop(&e.cold) // orphan: an earlier deadline queued its own carrier
			case st.senderDone || st.done:
				st.carrierSeq = 0
				e.popTop(&e.cold)
			case top.seq == st.rtoSeq:
				st.carrierSeq = 0
				e.popTop(&e.cold)
				e.net.hostOf(st.spec.Src).onRTO(st)
			default:
				// Re-armed since this carrier was queued: move on to the
				// current deadline's reserved slot.
				st.carrierAt, st.carrierSeq = st.rtoAt, st.rtoSeq
				e.rekeyTop(e.cold, st.rtoAt, st.rtoSeq)
			}
		}
	}
	if e.now < until {
		e.now = until
	}
}

// Pending returns the number of queue entries: busy channels, flows
// with a queued RTO carrier, timers and scheduled funcs. Packets in
// flight are not entries of their own; a channel carrying any number
// of them counts once.
func (e *Engine) Pending() int { return len(e.cold) + len(e.hot) + e.runLen }

// Where the earliest entry is, as first reports it.
const (
	inRun = iota
	inHot
	inCold
)

// first returns the earliest entry of the three structures and which
// one holds it, or nil when all are empty.
func (e *Engine) first() (*event, int) {
	var top *event
	in := inRun
	if e.runLen > 0 {
		top = &e.run[e.runHead]
	}
	if len(e.hot) > 0 && (top == nil || e.hot[0].before(top)) {
		top, in = &e.hot[0], inHot
	}
	if len(e.cold) > 0 && (top == nil || e.cold[0].before(top)) {
		top, in = &e.cold[0], inCold
	}
	return top, in
}

// pushDeliver queues a channel's arrival: on the run if it sorts after
// the run's tail or the run is empty, on the hot heap otherwise.
func (e *Engine) pushDeliver(ev event) {
	if e.runTakes(&ev) {
		e.appendRun(ev)
	} else {
		e.push(&e.hot, ev)
	}
}

// runTakes reports whether ev may join the run: the run stays sorted.
func (e *Engine) runTakes(ev *event) bool {
	return e.runLen == 0 || !ev.before(e.runAt(e.runLen-1))
}

// appendRun adds ev at the run's tail. The ring doubles only when full,
// so it grows to the peak of busy channels in order and no further.
func (e *Engine) appendRun(ev event) {
	if e.runLen == len(e.run) {
		ring := make([]event, max(2*len(e.run), 16))
		n := copy(ring, e.run[e.runHead:])
		copy(ring[n:], e.run[:e.runHead])
		e.run, e.runHead = ring, 0
	}
	e.run[(e.runHead+e.runLen)&(len(e.run)-1)] = ev
	e.runLen++
}

// popDeliver removes the earliest entry of run or hot (in): its channel
// has nothing more in flight.
func (e *Engine) popDeliver(in int) {
	if in == inHot {
		e.popTop(&e.hot)
		return
	}
	e.runHead = (e.runHead + 1) & (len(e.run) - 1)
	e.runLen--
}

// rekeyDeliver moves the earliest entry of run or hot (in) to its
// channel's next arrival, a later (at, seq). From the run it is taken
// off the front and queued again; from the hot heap it joins the run
// when the run takes it, and is otherwise re-keyed in place with one
// sift-down.
func (e *Engine) rekeyDeliver(in int, at int64, seq uint64) {
	var ev event
	if in == inHot {
		ev = e.hot[0]
		ev.at, ev.seq = at, seq
		if !e.runTakes(&ev) {
			e.siftDown(e.hot, ev)
			return
		}
	} else {
		ev = e.run[e.runHead]
		ev.at, ev.seq = at, seq
	}
	e.popDeliver(in)
	e.pushDeliver(ev)
}

// push adds ev to heap *q.
func (e *Engine) push(q *[]event, ev event) {
	h := append(*q, ev)
	*q = h
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !ev.before(&h[parent]) {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = ev
}

// popTop removes heap *q's earliest entry.
func (e *Engine) popTop(q *[]event) {
	h := *q
	last := len(h) - 1
	ev := h[last]
	*q = h[:last]
	if last > 0 {
		e.siftDown(h[:last], ev)
	}
}

// rekeyTop moves heap q's earliest entry to a later (at, seq) in place:
// one sift-down instead of a pop and a push.
func (e *Engine) rekeyTop(q []event, at int64, seq uint64) {
	ev := q[0]
	ev.at, ev.seq = at, seq
	e.siftDown(q, ev)
}

// siftDown places ev in the hole at the root of heap q.
//
// Which child is smaller is a coin toss the branch predictor loses half
// the time, on every level of every hop. So the choice is arithmetic:
// (at, seq) is one 128-bit unsigned key (reserve clamps at to now >= 0,
// so at orders the same unsigned), right - left borrows exactly when
// right sorts first, and the borrow is added to the child index. Keep
// the two Sub64 and the add as they are: written as `if less { c++ }`
// this compiles to a conditional jump and the gain is gone (the README
// has the objdump check).
func (e *Engine) siftDown(q []event, ev event) {
	last := len(q) - 1
	i := 0
	for {
		c := 2*i + 1
		if c >= last {
			// A lone left child (c == last) or a leaf: no right sibling
			// to read.
			if c == last && q[c].before(&ev) {
				q[i] = q[c]
				i = c
			}
			break
		}
		l, r := &q[c], &q[c+1]
		_, borrow := bits.Sub64(r.seq, l.seq, 0)
		_, borrow = bits.Sub64(uint64(r.at), uint64(l.at), borrow)
		c += int(borrow)
		if !q[c].before(&ev) {
			break
		}
		q[i] = q[c]
		i = c
	}
	q[i] = ev
}

// checkOrder reports a queue out of order: the run not ascending, a
// heap without the heap property, or an entry in the wrong structure
// for its kind. Network.Audit runs it at a cell's horizon; the event
// loop never does.
func (e *Engine) checkOrder() error {
	for i := 0; i < e.runLen; i++ {
		ev := e.runAt(i)
		if ev.kind != evDeliver {
			return fmt.Errorf("sim: event kind %d queued on the run", ev.kind)
		}
		if prev := e.runAt(i - 1); i > 0 && ev.before(prev) {
			return fmt.Errorf("sim: event run out of order: entry %d (%d, %d) after (%d, %d)",
				i, ev.at, ev.seq, prev.at, prev.seq)
		}
	}
	for _, h := range [...]struct {
		name string
		q    []event
		cold bool
	}{{"hot", e.hot, false}, {"cold", e.cold, true}} {
		for i := range h.q {
			if (h.q[i].kind != evDeliver) != h.cold {
				return fmt.Errorf("sim: event kind %d queued on the %s heap", h.q[i].kind, h.name)
			}
			if p := (i - 1) / 2; i > 0 && h.q[i].before(&h.q[p]) {
				return fmt.Errorf("sim: %s heap broken: entry %d (%d, %d) sorts before its parent %d (%d, %d)",
					h.name, i, h.q[i].at, h.q[i].seq, p, h.q[p].at, h.q[p].seq)
			}
		}
	}
	return nil
}

// checkTimers reports a queue entry or timer slot out of step: an entry
// queued before now (time would run backwards), an evFunc or evTimer
// naming a slot out of range, a tick whose generation is not its slot's
// (the slot was recycled under it), a one-shot slot without a callback
// or marked active, a slot named twice, and a slot that is neither named
// by exactly one entry nor free — on freeTimers once, named by no entry,
// holding no callback. Network.Audit runs it at a cell's horizon; the
// event loop never does.
func (e *Engine) checkTimers() error {
	const named, free = 1, 2
	state := make([]uint8, len(e.timers))
	for i := 0; i < e.runLen+len(e.hot)+len(e.cold); i++ {
		var ev *event
		switch {
		case i < e.runLen:
			ev = e.runAt(i)
		case i < e.runLen+len(e.hot):
			ev = &e.hot[i-e.runLen]
		default:
			ev = &e.cold[i-e.runLen-len(e.hot)]
		}
		if ev.at < e.now {
			return fmt.Errorf("sim: event (%d, %d) queued before now %d", ev.at, ev.seq, e.now)
		}
		if ev.kind != evFunc && ev.kind != evTimer {
			continue
		}
		if ev.arg < 0 || int(ev.arg) >= len(e.timers) {
			return fmt.Errorf("sim: event (%d, %d) names timer slot %d of %d", ev.at, ev.seq, ev.arg, len(e.timers))
		}
		slot := &e.timers[ev.arg]
		switch {
		case ev.kind == evTimer && ev.gen != uint16(slot.gen):
			return fmt.Errorf("sim: tick of timer slot %d queued at generation %d, the slot is at %d",
				ev.arg, ev.gen, uint16(slot.gen))
		case ev.kind == evFunc && (slot.fn == nil || slot.active):
			return fmt.Errorf("sim: one-shot timer slot %d has no callback or is marked recurring", ev.arg)
		case state[ev.arg] != 0:
			return fmt.Errorf("sim: timer slot %d named by two queued events", ev.arg)
		}
		state[ev.arg] = named
	}
	for _, idx := range e.freeTimers {
		if idx < 0 || int(idx) >= len(e.timers) {
			return fmt.Errorf("sim: timer slot %d of %d on the freelist", idx, len(e.timers))
		}
		switch {
		case state[idx] == named:
			return fmt.Errorf("sim: timer slot %d is on the freelist and queued", idx)
		case state[idx] == free:
			return fmt.Errorf("sim: timer slot %d is on the freelist twice", idx)
		case e.timers[idx].fn != nil:
			return fmt.Errorf("sim: free timer slot %d still holds a callback", idx)
		}
		state[idx] = free
	}
	for idx, s := range state {
		if s == 0 {
			return fmt.Errorf("sim: timer slot %d is neither queued nor free", idx)
		}
	}
	return nil
}

// runAt returns the run's i-th entry from the head.
func (e *Engine) runAt(i int) *event { return &e.run[(e.runHead+i)&(len(e.run)-1)] }
