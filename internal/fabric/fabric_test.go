package fabric

import (
	"bytes"
	"sync"
	"testing"
	"time"

	"contra/internal/campaign"
	"contra/internal/dist"
	"contra/internal/scenario"
)

// fakeClock is the injectable time source of the fault tests: leases
// expire and steals unlock only when a test advances it, so no unit
// test here sleeps on the wall clock.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock { return &fakeClock{t: time.Unix(1000, 0)} }

func (f *fakeClock) Now() time.Time {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.t
}

func (f *fakeClock) Advance(d time.Duration) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.t = f.t.Add(d)
}

// coordSpec is a 4-cell campaign (2 schemes × 2 loads). Coordinator
// unit tests never execute the scenarios, so cost is irrelevant; it
// only has to validate.
func coordSpec() *campaign.Spec {
	return &campaign.Spec{
		Name:    "coord",
		Topos:   []string{"dc"},
		Schemes: []scenario.Scheme{scenario.SchemeECMP, scenario.SchemeSP},
		Loads:   []float64{0.2, 0.3},
		Workload: scenario.Workload{
			Dist: "cache", DurationNs: 1_000_000, MaxFlows: 40,
		},
	}
}

func newTestCoordinator(t testing.TB, opts Options) (*Coordinator, *bytes.Buffer) {
	t.Helper()
	var buf bytes.Buffer
	c, err := New(coordSpec(), dist.NewJSONLSink(&buf), nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	return c, &buf
}

// fakeRecord fabricates a delivery for a granted cell without running
// the scenario.
func fakeRecord(g *Grant) *dist.Record {
	return &dist.Record{
		Campaign: g.Campaign,
		Key:      g.Key,
		Index:    g.Index,
		Scenario: g.Scenario,
		Err:      "fabricated",
	}
}

// mustLease asserts the worker receives a grant.
func mustLease(t testing.TB, c *Coordinator, worker string) *Grant {
	t.Helper()
	g, done := c.Lease(worker)
	if done || g == nil {
		t.Fatalf("Lease(%s) = grant %v, done %v; want a grant", worker, g, done)
	}
	return g
}

func TestLeaseGrantsLowestPendingIndexFirst(t *testing.T) {
	clk := newFakeClock()
	c, _ := newTestCoordinator(t, Options{Clock: clk.Now})
	for want := 0; want < 4; want++ {
		g := mustLease(t, c, "w1")
		if g.Index != want {
			t.Fatalf("grant %d has index %d, want %d", want+1, g.Index, want)
		}
		if g.Scenario == nil || g.Scenario.Key() != g.Key {
			t.Fatalf("grant %d scenario/key mismatch", want+1)
		}
	}
	if g, done := c.Lease("w2"); g != nil || done {
		t.Fatalf("all cells leased: Lease = %v, %v; want wait", g, done)
	}
}

// TestExpiredLeaseReassignedWithinTwoHeartbeatIntervals is the
// acceptance-criteria timing bound: a worker that stops heartbeating
// loses its cell after exactly two heartbeat intervals (= one lease
// TTL), and the next asking worker inherits it.
func TestExpiredLeaseReassignedWithinTwoHeartbeatIntervals(t *testing.T) {
	const ttl = 10 * time.Second
	hb := HeartbeatInterval(ttl)
	if hb*2 != ttl {
		t.Fatalf("HeartbeatInterval(%v) = %v, want ttl/2", ttl, hb)
	}
	clk := newFakeClock()
	c, _ := newTestCoordinator(t, Options{LeaseTTL: ttl, Clock: clk.Now})
	g := mustLease(t, c, "w1") // cell 0 leased at t0
	// One heartbeat interval in: w1's last-ever heartbeat. The lease is
	// alive, so the cell is not up for grabs (w2 gets cell 1, not 0).
	clk.Advance(hb)
	if !c.Heartbeat("w1", g.LeaseID) {
		t.Fatal("live lease refused a heartbeat")
	}
	g2 := mustLease(t, c, "w2")
	if g2.Index != 1 {
		t.Fatalf("live cell reassigned: w2 got index %d", g2.Index)
	}
	// One interval later w1 has missed one heartbeat — not yet expired.
	clk.Advance(hb)
	if !c.Heartbeat("w2", g2.LeaseID) {
		t.Fatal("w2 heartbeat refused")
	}
	if g3 := mustLease(t, c, "w3"); g3.Index != 2 {
		t.Fatalf("cell 0 reassigned after one missed heartbeat: w3 got index %d", g3.Index)
	}
	// Two heartbeat intervals after w1's last heartbeat, its lease is
	// expired and the very next asking worker inherits cell 0.
	clk.Advance(hb)
	if !c.Heartbeat("w2", g2.LeaseID) {
		t.Fatal("w2 heartbeat refused")
	}
	g4 := mustLease(t, c, "w4")
	if g4.Index != 0 {
		t.Fatalf("expired cell not reassigned: w4 got index %d, want 0", g4.Index)
	}
	if c.Heartbeat("w1", g.LeaseID) {
		t.Fatal("expired lease accepted a heartbeat")
	}
	if st := c.Status(); st.ExpiredLeases != 1 {
		t.Fatalf("ExpiredLeases = %d, want 1 (w1's only)", st.ExpiredLeases)
	}
}

func TestHeartbeatKeepsLeaseAliveIndefinitely(t *testing.T) {
	const ttl = 10 * time.Second
	clk := newFakeClock()
	c, _ := newTestCoordinator(t, Options{LeaseTTL: ttl, Clock: clk.Now})
	g := mustLease(t, c, "w1")
	for i := 0; i < 10; i++ {
		clk.Advance(HeartbeatInterval(ttl))
		if !c.Heartbeat("w1", g.LeaseID) {
			t.Fatalf("lease died despite heartbeats (interval %d)", i)
		}
	}
	if c.Status().ExpiredLeases != 0 {
		t.Fatal("heartbeated lease expired")
	}
}

// TestStealNearEndOfCampaign: once no pending cells remain, an idle
// worker steals the longest-in-flight cell — but only after
// StealAfter, never from itself, and never beyond MaxLeasesPerCell.
func TestStealNearEndOfCampaign(t *testing.T) {
	const (
		ttl        = 20 * time.Second
		stealAfter = 4 * time.Second
	)
	clk := newFakeClock()
	c, _ := newTestCoordinator(t, Options{LeaseTTL: ttl, StealAfter: stealAfter, MaxLeasesPerCell: 2, Clock: clk.Now})

	// w1 takes cell 0 (the future straggler) at t0; the remaining
	// three cells go to w2 a second later and complete immediately.
	gStraggler := mustLease(t, c, "w1")
	clk.Advance(time.Second)
	for i := 0; i < 3; i++ {
		g := mustLease(t, c, "w2")
		if dup, err := c.Result("w2", g.LeaseID, fakeRecord(g)); err != nil || dup {
			t.Fatalf("result: dup=%v err=%v", dup, err)
		}
	}
	// Campaign tail: only cell 0 is in flight. Too early to steal.
	if g, done := c.Lease("w3"); g != nil || done {
		t.Fatalf("steal granted before StealAfter: %+v", g)
	}
	// Stealing from yourself is never allowed, even past StealAfter.
	clk.Advance(stealAfter)
	if g, _ := c.Lease("w1"); g != nil {
		t.Fatalf("worker stole its own cell: %+v", g)
	}
	// w3 is idle past StealAfter: it steals cell 0.
	stolen := mustLease(t, c, "w3")
	if stolen.Index != gStraggler.Index || !stolen.Stolen {
		t.Fatalf("steal grant = %+v, want stolen cell %d", stolen, gStraggler.Index)
	}
	// The per-cell lease cap (2) blocks a third concurrent runner.
	if g, _ := c.Lease("w4"); g != nil {
		t.Fatalf("lease cap ignored: %+v", g)
	}
	if st := c.Status(); st.StolenLeases != 1 {
		t.Fatalf("StolenLeases = %d, want 1", st.StolenLeases)
	}

	// The thief finishes first; the straggler's late result is a
	// harmless duplicate; the campaign completes exactly once.
	if dup, err := c.Result("w3", stolen.LeaseID, fakeRecord(stolen)); err != nil || dup {
		t.Fatalf("thief result: dup=%v err=%v", dup, err)
	}
	dup, err := c.Result("w1", gStraggler.LeaseID, fakeRecord(gStraggler))
	if err != nil || !dup {
		t.Fatalf("straggler result: dup=%v err=%v; want duplicate", dup, err)
	}
	select {
	case <-c.Done():
	default:
		t.Fatal("campaign not done after all cells completed")
	}
}

// TestDuplicateResultDeliveredTwiceMergesOnce is the fabric-level
// dedup regression: the same scenario.Key delivered twice reaches the
// stream once, whatever lease it rides in on.
func TestDuplicateResultDeliveredTwiceMergesOnce(t *testing.T) {
	clk := newFakeClock()
	c, buf := newTestCoordinator(t, Options{Clock: clk.Now})
	g := mustLease(t, c, "w1")
	rec := fakeRecord(g)
	if dup, err := c.Result("w1", g.LeaseID, rec); err != nil || dup {
		t.Fatalf("first delivery: dup=%v err=%v", dup, err)
	}
	// Same record again — a retried upload whose first attempt landed.
	if dup, err := c.Result("w1", g.LeaseID, rec); err != nil || !dup {
		t.Fatalf("second delivery: dup=%v err=%v; want duplicate", dup, err)
	}
	recs, err := dist.ReadRecords(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].Key != g.Key {
		t.Fatalf("stream holds %d records, want exactly one for %s", len(recs), g.Key)
	}
	if st := c.Status(); st.DuplicateResults != 1 || st.Done != 1 {
		t.Fatalf("status %+v, want 1 duplicate, 1 done", st)
	}
}

func TestResultRejectsUnknownKeyAndWrongIndex(t *testing.T) {
	clk := newFakeClock()
	c, _ := newTestCoordinator(t, Options{Clock: clk.Now})
	g := mustLease(t, c, "w1")
	bad := fakeRecord(g)
	bad.Key = "nonsense#0000000000000000"
	if _, err := c.Result("w1", g.LeaseID, bad); err == nil {
		t.Fatal("unknown key accepted")
	}
	wrong := fakeRecord(g)
	wrong.Index = g.Index + 1
	if _, err := c.Result("w1", g.LeaseID, wrong); err == nil {
		t.Fatal("wrong index accepted")
	}
}

// TestCoordinatorResume: cells whose keys are already in the output
// stream (a restarted coordinator) start done and are never re-leased.
func TestCoordinatorResume(t *testing.T) {
	spec := coordSpec()
	jobs, err := spec.Jobs()
	if err != nil {
		t.Fatal(err)
	}
	pre := map[string]bool{
		jobs[0].Scenario.Key(): true,
		jobs[2].Scenario.Key(): true,
	}
	var buf bytes.Buffer
	clk := newFakeClock()
	c, err := New(spec, dist.NewJSONLSink(&buf), pre, Options{Clock: clk.Now})
	if err != nil {
		t.Fatal(err)
	}
	if st := c.Status(); st.Done != 2 || st.Pending != 2 {
		t.Fatalf("resume status %+v, want 2 done / 2 pending", st)
	}
	for _, want := range []int{1, 3} {
		if g := mustLease(t, c, "w"); g.Index != want {
			t.Fatalf("resumed coordinator leased index %d, want %d", g.Index, want)
		}
	}
	// Re-delivery of an already-done cell (a worker that outlived the
	// old coordinator re-sending) is a duplicate, not a re-run.
	if dup, err := c.Result("w", 0, &dist.Record{
		Campaign: spec.Name, Key: jobs[0].Scenario.Key(), Index: 0,
		Scenario: &jobs[0].Scenario, Err: "stale",
	}); err != nil || !dup {
		t.Fatalf("re-delivery: dup=%v err=%v, want duplicate", dup, err)
	}
	if buf.Len() != 0 {
		t.Fatal("duplicate of a pre-done cell reached the stream")
	}
}

// TestStatusIsReadOnly is the regression for the old behavior where
// Status ran the lazy expiry sweep as a side effect, so reading it
// could perturb lease-expiry timing. Status must observe an
// expired-but-unswept lease as still active; only a state-changing
// call (here Lease) may sweep it.
func TestStatusIsReadOnly(t *testing.T) {
	const ttl = 10 * time.Second
	clk := newFakeClock()
	c, _ := newTestCoordinator(t, Options{LeaseTTL: ttl, Clock: clk.Now})
	g := mustLease(t, c, "w1")
	clk.Advance(ttl + time.Second) // lease is past its TTL, unswept
	for i := 0; i < 3; i++ {
		st := c.Status()
		if st.ActiveLeases != 1 || st.ExpiredLeases != 0 || st.InFlight != 1 {
			t.Fatalf("poll %d: status %+v, want the expired-but-unswept lease still active", i, st)
		}
	}
	// The polls above must not have swept: the next Lease call is the
	// first to notice the expiry, and it hands the same cell back out.
	g2 := mustLease(t, c, "w2")
	if g2.Index != g.Index {
		t.Fatalf("after polls, w2 got index %d, want the expired cell %d", g2.Index, g.Index)
	}
	if st := c.Status(); st.ExpiredLeases != 1 {
		t.Fatalf("ExpiredLeases = %d after the sweeping Lease, want 1", st.ExpiredLeases)
	}
}

// TestCellsLifecycle walks one cell through pending → leased →
// running → done and checks the Cells state machine and attempt
// history at each step. Cells, like Status, must be a pure read.
func TestCellsLifecycle(t *testing.T) {
	const ttl = 10 * time.Second
	clk := newFakeClock()
	c, _ := newTestCoordinator(t, Options{LeaseTTL: ttl, Clock: clk.Now})

	cells := c.Cells()
	if len(cells) != 4 {
		t.Fatalf("Cells() returned %d cells, want 4", len(cells))
	}
	for i, cs := range cells {
		if cs.State != CellPending || len(cs.Attempts) != 0 {
			t.Fatalf("cell %d initial state %q attempts %d, want pending/0", i, cs.State, len(cs.Attempts))
		}
	}

	clk.Advance(3 * time.Second) // queue wait before the first grant
	g := mustLease(t, c, "w1")
	cs := c.Cells()[g.Index]
	if cs.State != CellLeased {
		t.Fatalf("granted cell state %q, want leased", cs.State)
	}
	if len(cs.Attempts) != 1 || cs.Attempts[0].Worker != "w1" || cs.Attempts[0].Outcome != AttemptRunning {
		t.Fatalf("granted cell attempts %+v, want one running attempt by w1", cs.Attempts)
	}
	if cs.WaitNs != (3 * time.Second).Nanoseconds() {
		t.Fatalf("WaitNs = %d, want 3s", cs.WaitNs)
	}

	clk.Advance(time.Second)
	c.Heartbeat("w1", g.LeaseID)
	cs = c.Cells()[g.Index]
	if cs.State != CellRunning || cs.Attempts[0].Heartbeats != 1 {
		t.Fatalf("heartbeated cell state %q beats %d, want running/1", cs.State, cs.Attempts[0].Heartbeats)
	}

	clk.Advance(time.Second)
	if _, err := c.Result("w1", g.LeaseID, fakeRecord(g)); err != nil {
		t.Fatal(err)
	}
	cs = c.Cells()[g.Index]
	if cs.State != CellDone || cs.Worker != "w1" || cs.Attempts[0].Outcome != AttemptDelivered {
		t.Fatalf("done cell %+v, want done, delivered by w1", cs)
	}
	if cs.RunNs != (2 * time.Second).Nanoseconds() {
		t.Fatalf("RunNs = %d, want 2s (grant to acceptance)", cs.RunNs)
	}
	// fakeRecord carries Err "fabricated" — failed, but not over budget.
	if !cs.Failed || cs.OverBudget {
		t.Fatalf("done cell failed=%v over budget=%v, want failed, not over budget", cs.Failed, cs.OverBudget)
	}
}

// TestStatusWorkerRows: every worker that called gets a Status row,
// sorted by name, with its lease and heartbeat counts.
func TestStatusWorkerRows(t *testing.T) {
	const ttl = 10 * time.Second
	clk := newFakeClock()
	c, _ := newTestCoordinator(t, Options{LeaseTTL: ttl, Clock: clk.Now})
	mustLease(t, c, "wb")
	ga := mustLease(t, c, "wa")
	clk.Advance(time.Second)
	c.Heartbeat("wa", ga.LeaseID)
	c.Heartbeat("wa", ga.LeaseID)
	st := c.Status()
	if len(st.Workers) != 2 || st.Workers[0].Worker != "wa" || st.Workers[1].Worker != "wb" {
		t.Fatalf("worker rows %+v, want wa, wb sorted", st.Workers)
	}
	if wa := st.Workers[0]; wa.Leases != 1 || wa.Heartbeats != 2 || wa.LastSeenNs != 0 {
		t.Fatalf("wa row %+v, want 1 lease, 2 beats, just seen", wa)
	}
	if wb := st.Workers[1]; wb.Leases != 1 || wb.Heartbeats != 0 || wb.LastSeenNs != time.Second.Nanoseconds() {
		t.Fatalf("wb row %+v, want 1 lease, no beats, seen 1s ago", wb)
	}
}

// TestHeartbeatAllocatesNothing pins the steady-state lease-path
// operation, a heartbeat, at zero heap allocations.
func TestHeartbeatAllocatesNothing(t *testing.T) {
	clk := newFakeClock()
	c, _ := newTestCoordinator(t, Options{Clock: clk.Now})
	g := mustLease(t, c, "w1")
	if avg := testing.AllocsPerRun(1000, func() {
		if !c.Heartbeat("w1", g.LeaseID) {
			t.Fatal("lease lost")
		}
	}); avg != 0 {
		t.Fatalf("heartbeat allocates %.1f per op, want 0", avg)
	}
}
