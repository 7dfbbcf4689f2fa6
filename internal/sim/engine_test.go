package sim

import (
	"container/heap"
	"fmt"
	"math/rand"
	"testing"
)

// refEngine is the obviously-correct scheduler: a container/heap of
// closures ordered by (at, seq), one entry per occurrence. The property
// tests here and in fifo_test.go drive it and the real Engine with
// identical schedules and assert identical execution order.
type refEngine struct {
	now   int64
	seq   uint64
	queue refHeap
}

type refEvent struct {
	at   int64
	seq  uint64
	fn   func()
	arg  int32  // payload identity, for the queue differential in heap_test.go
	kind evKind // likewise
}

type refHeap []refEvent

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h refHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x interface{}) { *h = append(*h, x.(refEvent)) }
func (h *refHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

func (e *refEngine) At(t int64, fn func()) {
	if t < e.now {
		t = e.now
	}
	e.seq++
	heap.Push(&e.queue, refEvent{at: t, seq: e.seq, fn: fn})
}

func (e *refEngine) After(d int64, fn func()) { e.At(e.now+d, fn) }

func (e *refEngine) Every(start, period int64, fn func()) (cancel func()) {
	stopped := false
	var tick func()
	tick = func() {
		if stopped {
			return
		}
		fn()
		e.After(period, tick)
	}
	e.At(start, tick)
	return func() { stopped = true }
}

func (e *refEngine) Run(until int64) {
	for e.queue.Len() > 0 {
		ev := e.queue[0]
		if ev.at > until {
			e.now = until
			return
		}
		heap.Pop(&e.queue)
		e.now = ev.at
		ev.fn()
	}
	if e.now < until {
		e.now = until
	}
}

// scheduler is the surface the property test drives on both engines.
type scheduler interface {
	At(t int64, fn func())
	After(d int64, fn func())
	Every(start, period int64, fn func()) func()
	Run(until int64)
}

// engineAdapter narrows *Engine to the test surface.
type engineAdapter struct{ e *Engine }

func (a engineAdapter) At(t int64, fn func())    { a.e.At(t, fn) }
func (a engineAdapter) After(d int64, fn func()) { a.e.At(a.e.Now()+d, fn) }
func (a engineAdapter) Every(start, period int64, fn func()) func() {
	return a.e.Every(start, period, TickFunc(fn)).Cancel
}
func (a engineAdapter) Run(until int64) { a.e.Run(until) }

// driveSchedule runs one randomized scenario against s and returns the
// execution trace. All randomness comes from the seeded PRNG, so both
// engines see byte-for-byte the same schedule: bursts of events at the
// same timestamp, At with past timestamps (clamped), chained After
// rescheduling from inside callbacks, recurring timers cancelled
// mid-run, and Run windows that pause between events.
func driveSchedule(s scheduler, seed int64) []string {
	rng := rand.New(rand.NewSource(seed))
	var trace []string
	record := func(tag string) { trace = append(trace, tag) }

	var spawn func(id int, depth int) func()
	spawn = func(id int, depth int) func() {
		return func() {
			record(fmt.Sprintf("ev%d@%d", id, depth))
			if depth < 3 {
				nkids := rng.Intn(3)
				for k := 0; k < nkids; k++ {
					child := id*10 + k
					switch rng.Intn(4) {
					case 0:
						s.After(int64(rng.Intn(500)), spawn(child, depth+1))
					case 1:
						// Same-timestamp burst: ties break by seq.
						s.After(0, spawn(child, depth+1))
					case 2:
						// Past timestamp: clamps to now.
						s.At(int64(rng.Intn(100)), spawn(child, depth+1))
					default:
						s.After(int64(rng.Intn(5000)), spawn(child, depth+1))
					}
				}
			}
		}
	}

	for i := 0; i < 40; i++ {
		at := int64(rng.Intn(10_000))
		if i%7 == 0 {
			at = 2500 // bursts at one instant across iterations
		}
		s.At(at, spawn(i, 0))
	}
	ticks := 0
	var cancel func()
	cancel = s.Every(100, 750, func() {
		ticks++
		record(fmt.Sprintf("tick%d", ticks))
		if ticks == 5 {
			cancel()
		}
	})
	cancel2 := s.Every(50, 300, func() { record("t2") })
	s.At(1200, func() { record("cancel2"); cancel2() })

	// Pause/resume windows, including an empty one.
	s.Run(1000)
	s.Run(1001) // immediately re-enter with an empty window
	s.Run(6000)
	s.Run(50_000)
	return trace
}

// TestSchedulerOrderProperty drives the engine and the reference heap
// with identical randomized schedules and requires identical execution
// order — the invariant that keeps campaign output byte-stable across
// scheduler implementations.
func TestSchedulerOrderProperty(t *testing.T) {
	for seed := int64(1); seed <= 25; seed++ {
		got := driveSchedule(engineAdapter{NewEngine()}, seed)
		want := driveSchedule(&refEngine{}, seed)
		if len(got) != len(want) {
			t.Fatalf("seed %d: trace lengths differ: engine %d, reference %d", seed, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("seed %d: execution order diverges at step %d: engine %q, reference %q",
					seed, i, got[i], want[i])
			}
		}
	}
}

// TestEveryCancelInPlace is the regression test for the stale-tick
// leak: cancelling a recurring timer must release its callback
// immediately, and the already-queued tick must drain without firing
// and free the slot for reuse.
func TestEveryCancelInPlace(t *testing.T) {
	e := NewEngine()
	fired := 0
	cancel := e.Every(0, 10, TickFunc(func() { fired++ })).Cancel
	e.Run(25) // fires at t=0, 10, 20
	if fired != 3 {
		t.Fatalf("fired = %d, want 3", fired)
	}
	cancel()
	if got := e.timersInUse(); got != 0 {
		t.Fatalf("timersInUse after cancel = %d, want 0", got)
	}
	if e.timers[0].fn != nil {
		t.Fatal("cancel must release the callback immediately, not at the stale tick")
	}
	e.Run(100)
	if fired != 3 {
		t.Fatalf("cancelled timer fired again: %d", fired)
	}
	if e.Pending() != 0 {
		t.Fatalf("stale tick left %d events pending", e.Pending())
	}
	if len(e.freeTimers) != 1 {
		t.Fatalf("timer slot not freed: freelist = %v", e.freeTimers)
	}

	// The freed slot is reused under a new generation: the new timer
	// fires and the old cancel stays inert.
	fired2 := 0
	cancel2 := e.Every(e.Now()+5, 10, TickFunc(func() { fired2++ })).Cancel
	cancel() // stale cancel of the recycled slot: must be a no-op
	e.Run(e.Now() + 16)
	if fired2 != 2 {
		t.Fatalf("recycled timer fired %d times, want 2", fired2)
	}
	cancel2()
	e.Run(e.Now() + 50)
	if fired2 != 2 {
		t.Fatalf("recycled timer fired after cancel: %d", fired2)
	}
}

// TestEveryCancelFromCallback covers a timer cancelling itself: no
// further tick is queued and the slot frees without a drain event.
func TestEveryCancelFromCallback(t *testing.T) {
	e := NewEngine()
	fired := 0
	var timer Timer
	timer = e.Every(0, 10, TickFunc(func() {
		fired++
		if fired == 2 {
			timer.Cancel()
		}
	}))
	e.Run(100)
	if fired != 2 {
		t.Fatalf("fired = %d, want 2", fired)
	}
	if e.Pending() != 0 {
		t.Fatalf("self-cancelled timer left %d events pending", e.Pending())
	}
	if len(e.freeTimers) != 1 {
		t.Fatal("self-cancelled timer slot not freed")
	}
}

// TestEventHeapChurnStress churns the heap through growth and shrink
// cycles with adversarial time distributions (dense bursts, one massive
// same-timestamp burst per cycle, far-future stragglers that sit under
// everything pushed after them) and checks global ordering end to end.
func TestEventHeapChurnStress(t *testing.T) {
	e := NewEngine()
	rng := rand.New(rand.NewSource(42))
	var lastAt int64 = -1
	var lastSeq int
	seq := 0
	executed := 0
	check := func(at int64, id int) func() {
		seq++
		mySeq := seq
		return func() {
			executed++
			if e.Now() != at {
				t.Fatalf("event %d executed at %d, scheduled for %d", id, e.Now(), at)
			}
			if at < lastAt {
				t.Fatalf("time went backwards: %d after %d", at, lastAt)
			}
			if at == lastAt && mySeq < lastSeq {
				t.Fatalf("tie at t=%d broke out of scheduling order", at)
			}
			lastAt, lastSeq = at, mySeq
		}
	}
	const cycles, perCycle, span = 4, 5000, 1_000_000
	for c := int64(0); c < cycles; c++ {
		base := c * span
		for i := 0; i < perCycle; i++ {
			var at int64
			switch i % 3 {
			case 0:
				at = base + int64(rng.Intn(1000)) // dense near-term
			case 1:
				at = base + 500 // massive same-timestamp burst
			default:
				at = base + int64(rng.Intn(100_000_000)) // sparse far future
			}
			e.At(at, check(at, i))
		}
		peak := e.Pending()
		// Drain the dense part; the stragglers of every cycle so far stay.
		e.Run(base + span - 1)
		if e.Pending() >= peak || e.Pending() == 0 {
			t.Fatalf("cycle %d: pending %d after drain, %d before", c, e.Pending(), peak)
		}
	}
	e.Run(200_000_000)
	if e.Pending() != 0 {
		t.Fatalf("%d events never executed", e.Pending())
	}
	if executed != cycles*perCycle {
		t.Fatalf("executed %d events, want %d", executed, cycles*perCycle)
	}
}

// TestEveryFromTimerCallback grows the timer table from inside a tick:
// the firing slot must survive the reallocation (regression for a
// stale-pointer hazard in the typed-timer path).
func TestEveryFromTimerCallback(t *testing.T) {
	e := NewEngine()
	var spawned int
	timer := e.Every(0, 10, TickFunc(func() {
		// Each tick registers more timers, forcing e.timers to grow
		// while the outer tick is mid-flight.
		for i := 0; i < 4; i++ {
			e.Every(e.Now()+1000, 1000, TickFunc(func() { spawned++ }))
		}
	}))
	e.Run(95) // 10 outer ticks, 40 spawned timers
	timer.Cancel()
	e.Run(2000)
	if spawned == 0 {
		t.Fatal("spawned timers never fired")
	}
	if got := e.timersInUse(); got != 40 {
		t.Fatalf("timersInUse = %d, want 40", got)
	}
}

// TestOneShotSlotLifetime: an At closure lives in a timer slot that is
// cleared and freed before the callback runs, so a fired closure is not
// retained, a callback scheduling from inside itself is handed its own
// slot, and the table does not grow with the number of events fired.
func TestOneShotSlotLifetime(t *testing.T) {
	e := NewEngine()
	fired := false
	e.At(10, func() { fired = true })
	if len(e.timers) != 1 || e.timers[0].fn == nil {
		t.Fatalf("At did not park its closure in slot 0: %d slots", len(e.timers))
	}
	e.Run(10)
	if !fired {
		t.Fatal("one-shot did not fire")
	}
	if e.timers[0].fn != nil {
		t.Fatal("fired one-shot's slot still holds its closure")
	}
	if len(e.freeTimers) != 1 || e.freeTimers[0] != 0 {
		t.Fatalf("fired one-shot's slot not freed: freelist %v", e.freeTimers)
	}
	if got := e.timersInUse(); got != 0 {
		t.Fatalf("one-shots must not count as live timers: %d", got)
	}

	// The next At reuses the slot, and a chain of callbacks that each
	// schedule their successor never needs a second one: the slot is
	// free by the time the callback runs.
	var order []string
	var chain func(k int) func()
	chain = func(k int) func() {
		return func() {
			order = append(order, fmt.Sprint("c", k))
			if e.timers[0].fn != nil {
				t.Fatalf("link %d runs with its own closure still in the slot", k)
			}
			if k < 5 {
				e.At(e.Now()+1, chain(k+1))
			}
		}
	}
	e.At(20, chain(0))
	e.Run(100)
	if len(e.timers) != 1 {
		t.Fatalf("self-rescheduling chain grew the table to %d slots", len(e.timers))
	}
	if got, want := fmt.Sprint(order), "[c0 c1 c2 c3 c4 c5]"; got != want {
		t.Fatalf("chain ran %s, want %s", got, want)
	}

	// Scheduling from inside a callback keeps (at, seq) order: a runs
	// first and queues b at the same instant and c in the past (clamped
	// to now); d was queued for that instant before either, so it keeps
	// its earlier sequence number and runs between a and b.
	order = order[:0]
	mark := func(s string) func() { return func() { order = append(order, s) } }
	e.At(200, func() {
		order = append(order, "a")
		e.At(200, mark("b"))
		e.At(150, mark("c"))
		e.At(e.Now()+1, mark("e"))
	})
	e.At(200, mark("d"))
	e.Run(300)
	if got, want := fmt.Sprint(order), "[a d b c e]"; got != want {
		t.Fatalf("order %s, want %s", got, want)
	}
	if e.Pending() != 0 || len(e.freeTimers) != len(e.timers) {
		t.Fatalf("%d pending, %d of %d slots free after everything fired", e.Pending(), len(e.freeTimers), len(e.timers))
	}
	for i := range e.timers {
		if e.timers[i].fn != nil {
			t.Fatalf("slot %d retains a fired closure", i)
		}
	}
}

// TestRunStopsAtItsBudget: a budget of B lets Run execute exactly B
// events and stop at the next one due, with Now at the last that ran;
// a later call with an event due returns at once; a budget that covers
// every event due is invisible; and a budget of 0 never stops Run.
func TestRunStopsAtItsBudget(t *testing.T) {
	schedule := func(e *Engine, fired *[]int64) {
		for at := int64(10); at <= 100; at += 10 {
			e.At(at, func() { *fired = append(*fired, e.Now()) })
		}
	}

	e := NewEngine()
	var fired []int64
	schedule(e, &fired)
	e.SetBudget(3)
	if e.Run(1000) {
		t.Fatal("Run reported done with 7 events due past a budget of 3")
	}
	if got, want := fmt.Sprint(fired), "[10 20 30]"; got != want || e.Now() != 30 {
		t.Fatalf("fired %s, now %d; want %s, now 30", got, e.Now(), want)
	}
	if e.Run(1000) || len(fired) != 3 || e.Now() != 30 || e.Pending() != 7 {
		t.Fatalf("second call ran on: %d fired, now %d, %d pending", len(fired), e.Now(), e.Pending())
	}

	e, fired = NewEngine(), nil
	schedule(e, &fired)
	e.SetBudget(10)
	if !e.Run(1000) || len(fired) != 10 || e.Now() != 1000 {
		t.Fatalf("a budget of exactly the events due: %d fired, now %d", len(fired), e.Now())
	}
	e.At(1010, func() { fired = append(fired, e.Now()) })
	if e.Run(2000) || len(fired) != 10 || e.Now() != 1000 {
		t.Fatalf("an 11th event past a spent budget: %d fired, now %d", len(fired), e.Now())
	}

	for _, set := range []bool{false, true} {
		e, fired = NewEngine(), nil
		schedule(e, &fired)
		if set {
			e.SetBudget(0)
		}
		for i := 0; i < 3; i++ {
			schedule(e, &fired)
			if !e.Run(e.Now() + 1000) {
				t.Fatalf("budget 0 (set %v) stopped Run", set)
			}
		}
		if len(fired) != 40 {
			t.Fatalf("budget 0 (set %v): %d of 40 events fired", set, len(fired))
		}
	}
}

// TestStopEndsRunAtItsEvent: an event that calls Stop is the last the
// Run executes, even with more due at its nanosecond, and Now stays at
// it; the next Run executes the rest in (at, seq) order, the one the
// stopping event scheduled at its own time among them; and a Stop
// between runs changes nothing.
func TestStopEndsRunAtItsEvent(t *testing.T) {
	e := NewEngine()
	var fired []string
	at := func(t int64, name string, then func()) {
		e.At(t, func() {
			fired = append(fired, fmt.Sprintf("%s@%d", name, e.Now()))
			if then != nil {
				then()
			}
		})
	}
	at(10, "a", nil)
	at(20, "b", func() {
		e.Stop()
		at(20, "x", nil) // scheduled by the stopping event, after c and d
	})
	at(20, "c", nil)
	at(20, "d", nil)
	at(30, "e", nil)

	if !e.Run(100) {
		t.Fatal("a stopped Run reported a spent budget")
	}
	if got, want := fmt.Sprint(fired), "[a@10 b@20]"; got != want || e.Now() != 20 || e.Pending() != 4 {
		t.Fatalf("fired %s, now %d, %d pending; want %s, now 20, 4 pending", got, e.Now(), e.Pending(), want)
	}
	fired = nil
	if !e.Run(100) {
		t.Fatal("the Run after a stop reported a spent budget")
	}
	if got, want := fmt.Sprint(fired), "[c@20 d@20 x@20 e@30]"; got != want || e.Now() != 100 {
		t.Fatalf("the next Run fired %s, now %d; want %s, now 100", got, e.Now(), want)
	}

	fired = nil
	at(150, "f", nil)
	e.Stop()
	if !e.Run(200) {
		t.Fatal("a Run after a stray Stop reported a spent budget")
	}
	if got, want := fmt.Sprint(fired), "[f@150]"; got != want || e.Now() != 200 {
		t.Fatalf("after a Stop between runs: fired %s, now %d; want %s, now 200", got, e.Now(), want)
	}
}

// TestStopAtCompletionLeavesPacketsInFlight: a network armed to stop at
// its last flow's completion ends the Run there, with that flow's final
// ACK still in flight, and audits clean; a later Run delivers it and
// stops nowhere.
func TestStopAtCompletionLeavesPacketsInFlight(t *testing.T) {
	g := lineTopo(10e9)
	e := NewEngine()
	n := NewNetwork(e, g, Config{})
	for _, s := range g.Switches() {
		n.SetRouter(s, &hopRouter{})
	}
	n.Start()
	var flows []FlowSpec
	for i := 0; i < 3; i++ {
		flows = append(flows, FlowSpec{ID: uint64(i + 1), Src: g.MustNode("H0"), Dst: g.MustNode("H1"),
			Size: 20_000, Start: int64(i) * 5_000})
	}
	n.StartFlows(flows)
	var last int64
	n.FlowDone = func(FlowSpec, int64) { last = e.Now() }
	n.StopAtCompletion(int64(len(flows)))
	inFlight := func() (pkts int) {
		for i := range n.chans {
			for p := n.chans[i].inHead; p != nil; p = p.next {
				pkts++
			}
		}
		return pkts
	}

	e.Run(1e9)
	if n.CompletedFlows() != 3 || e.Now() != last {
		t.Fatalf("stopped at %d ns with %d flows done; the last completed at %d", e.Now(), n.CompletedFlows(), last)
	}
	if inFlight() == 0 {
		t.Fatal("nothing in flight at the last completion")
	}
	if err := n.Audit(); err != nil {
		t.Fatalf("audit at the stop: %v", err)
	}
	e.Run(1e9)
	if e.Now() != 1e9 || inFlight() != 0 {
		t.Fatalf("the next Run ended at %d ns with %d packets in flight", e.Now(), inFlight())
	}
	if err := n.Audit(); err != nil {
		t.Fatalf("audit after the next Run: %v", err)
	}
}
