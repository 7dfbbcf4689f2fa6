package fabric

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"contra/internal/dist"
)

// TestStatusIsReadOnly is the satellite regression for the old
// behavior where Status ran the lazy expiry sweep as a side effect: a
// monitoring poller hitting GET /v1/status could perturb lease-expiry
// timing. Status must observe an expired-but-unswept lease as still
// active; only a state-changing call (here Lease) may sweep it.
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
// running → done and checks the /v1/cells state machine and attempt
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
	c.Heartbeat("w1", g.LeaseID, nil)
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
	// fakeRecord carries Err "fabricated" — failed, but not a timeout.
	if !cs.Failed || cs.Timeout {
		t.Fatalf("done cell failed=%v timeout=%v, want failed, no timeout", cs.Failed, cs.Timeout)
	}
}

// TestStatusWorkerTelemetry: heartbeat-reported telemetry surfaces in
// the per-worker Status rows, sorted by worker name.
func TestStatusWorkerTelemetry(t *testing.T) {
	const ttl = 10 * time.Second
	clk := newFakeClock()
	c, _ := newTestCoordinator(t, Options{LeaseTTL: ttl, Clock: clk.Now})
	ga := mustLease(t, c, "wa")
	gb := mustLease(t, c, "wb")
	clk.Advance(time.Second)
	c.Heartbeat("wb", gb.LeaseID, &Telemetry{CellsDone: 3, ElapsedNs: 42, UploadRetries: 2, Replayed: 1})
	c.Heartbeat("wa", ga.LeaseID, nil) // no payload: row keeps zero telemetry
	st := c.Status()
	if len(st.Workers) != 2 || st.Workers[0].Worker != "wa" || st.Workers[1].Worker != "wb" {
		t.Fatalf("worker rows %+v, want wa, wb sorted", st.Workers)
	}
	wb := st.Workers[1]
	if wb.Telemetry.CellsDone != 3 || wb.Telemetry.ElapsedNs != 42 ||
		wb.Telemetry.UploadRetries != 2 || wb.Telemetry.Replayed != 1 {
		t.Fatalf("wb telemetry %+v, want the heartbeat payload", wb.Telemetry)
	}
	if wb.Leases != 1 || wb.Heartbeats != 1 || wb.LastSeenNs != 0 {
		t.Fatalf("wb row %+v, want 1 lease, 1 beat, just seen", wb)
	}
	if st.Workers[0].Telemetry != (Telemetry{}) {
		t.Fatalf("wa telemetry %+v, want zero (no payload reported)", st.Workers[0].Telemetry)
	}
}

// journalScript drives one fixed fake-clock coordinator run against a
// journal buffer: grants, heartbeats, an expiry, a steal, a duplicate,
// and a timeout failure all occur at scripted instants.
func journalScript(t testing.TB) []byte {
	t.Helper()
	const ttl = 10 * time.Second
	clk := newFakeClock()
	var buf bytes.Buffer
	var out bytes.Buffer
	c, err := New(coordSpec(), dist.NewJSONLSink(&out), nil, Options{
		LeaseTTL: ttl, StealAfter: 2 * time.Second, Clock: clk.Now,
		Journal: NewJournal(&buf),
	})
	if err != nil {
		t.Fatal(err)
	}
	g0 := mustLease(t, c, "w1") // cell 0: will expire, then re-grant
	g1 := mustLease(t, c, "w2") // cell 1: clean delivery
	clk.Advance(HeartbeatInterval(ttl))
	c.Heartbeat("w2", g1.LeaseID, &Telemetry{CellsDone: 1})
	if _, err := c.Result("w2", g1.LeaseID, fakeRecord(g1)); err != nil {
		t.Fatal(err)
	}
	clk.Advance(ttl) // w1's lease (no heartbeats) is now expired
	g0b := mustLease(t, c, "w2")
	if g0b.Index != g0.Index {
		t.Fatalf("expiry re-grant gave index %d, want %d", g0b.Index, g0.Index)
	}
	g2 := mustLease(t, c, "w2")
	g3 := mustLease(t, c, "w3")
	rec3 := fakeRecord(g3)
	rec3.Err = "" // cell 3: a success
	if _, err := c.Result("w3", g3.LeaseID, rec3); err != nil {
		t.Fatal(err)
	}
	// w3 idles past StealAfter and steals w2's longest-running cell 0.
	clk.Advance(3 * time.Second)
	gs := mustLease(t, c, "w3")
	if !gs.Stolen {
		t.Fatalf("expected a steal, got %+v", gs)
	}
	// Thief delivers; the victim's late upload is a duplicate.
	if _, err := c.Result("w3", gs.LeaseID, fakeRecord(gs)); err != nil {
		t.Fatal(err)
	}
	if dup, err := c.Result("w2", g0b.LeaseID, fakeRecord(g0b)); err != nil || !dup {
		t.Fatalf("victim delivery: dup=%v err=%v, want duplicate", dup, err)
	}
	// Last cell fails with a timeout-prefixed error.
	rec2 := fakeRecord(g2)
	rec2.Err = "cell timeout after 1s"
	if _, err := c.Result("w2", g2.LeaseID, rec2); err != nil {
		t.Fatal(err)
	}
	select {
	case <-c.Done():
	default:
		t.Fatal("scripted campaign did not complete")
	}
	return buf.Bytes()
}

// TestJournalDeterministicBytes is the acceptance criterion: the same
// fake-clock schedule journals byte-identically across runs.
func TestJournalDeterministicBytes(t *testing.T) {
	a := journalScript(t)
	b := journalScript(t)
	if !bytes.Equal(a, b) {
		t.Fatalf("same-schedule journals differ:\n--- run 1 ---\n%s\n--- run 2 ---\n%s", a, b)
	}
}

// TestJournalRecordsLifecycle parses the scripted journal and checks
// the event stream tells the story: meta first, dense seq, monotone
// time, and one of each interesting transition with correct fields.
func TestJournalRecordsLifecycle(t *testing.T) {
	raw := journalScript(t)
	meta, events, err := ReadJournal(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if meta.Cells != 4 || len(meta.Keys) != 4 || len(meta.Names) != 4 {
		t.Fatalf("meta %+v, want 4 cells with names and keys", meta)
	}
	if meta.LeaseTTLNs != int64(10*time.Second) || meta.StealAfterNs != int64(2*time.Second) {
		t.Fatalf("meta knobs %+v, want the configured TTL and StealAfter", meta)
	}
	count := map[string]int{}
	var lastSeq, lastT int64
	for i, ev := range events {
		if ev.Seq != lastSeq+1 {
			t.Fatalf("event %d seq %d, want dense (prev %d)", i, ev.Seq, lastSeq)
		}
		if ev.TNs < lastT {
			t.Fatalf("event %d time went backwards: %d < %d", i, ev.TNs, lastT)
		}
		lastSeq, lastT = ev.Seq, ev.TNs
		count[ev.Type]++
		switch ev.Type {
		case EventSteal:
			if ev.Holder != "w2" || ev.Worker != "w3" || ev.Cell != 0 {
				t.Fatalf("steal event %+v, want w3 stealing cell 0 from w2", ev)
			}
		case EventExpire:
			if ev.Worker != "w1" || ev.Cell != 0 || ev.Attempt != 1 {
				t.Fatalf("expire event %+v, want w1 losing attempt 1 of cell 0", ev)
			}
		case EventHeartbeat:
			if !ev.Live || ev.Telemetry == nil || ev.Telemetry.CellsDone != 1 {
				t.Fatalf("heartbeat event %+v, want live with telemetry", ev)
			}
		}
	}
	want := map[string]int{
		EventGrant: 5, EventSteal: 1, EventHeartbeat: 1, EventExpire: 1,
		EventResult: 4, EventDuplicate: 1, EventTimeout: 1,
	}
	for typ, n := range want {
		if count[typ] != n {
			t.Fatalf("journal has %d %s event(s), want %d\ncounts: %v", count[typ], typ, n, count)
		}
	}
	// The stolen cell's result consumed 3 attempts (grant, re-grant
	// after expiry, steal) and carries its wait/run split.
	for _, ev := range events {
		if ev.Type == EventResult && ev.Cell == 0 {
			if ev.Attempts != 3 || ev.Worker != "w3" {
				t.Fatalf("cell 0 result %+v, want 3 attempts delivered by w3", ev)
			}
			if ev.WaitNs != 0 || ev.RunNs <= 0 {
				t.Fatalf("cell 0 result wait=%d run=%d, want zero wait, positive run", ev.WaitNs, ev.RunNs)
			}
		}
	}
}

// TestJournalTornFinalLineTolerated: a journal whose writer died
// mid-line still parses, minus the torn tail — the same contract as
// the result stream.
func TestJournalTornFinalLineTolerated(t *testing.T) {
	raw := journalScript(t)
	_, whole, err := ReadJournal(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	torn := raw[:len(raw)-10] // amputate mid-final-line
	_, events, err := ReadJournal(bytes.NewReader(torn))
	if err != nil {
		t.Fatalf("torn journal rejected: %v", err)
	}
	if len(events) != len(whole)-1 {
		t.Fatalf("torn journal has %d events, want %d (one torn line dropped)", len(events), len(whole)-1)
	}
	// Corruption in the middle is NOT tolerated.
	bad := append([]byte{}, raw...)
	bad[len(raw)/2] = 0
	if _, _, err := ReadJournal(bytes.NewReader(bad)); err == nil {
		t.Fatal("mid-stream corruption accepted")
	}
	// A version this binary does not speak is refused.
	vbad := bytes.Replace(raw, []byte(`"v":1`), []byte(`"v":99`), 1)
	if _, _, err := ReadJournal(bytes.NewReader(vbad)); err == nil || !strings.Contains(err.Error(), "version") {
		t.Fatalf("future journal version accepted (err %v)", err)
	}
}

// TestHeartbeatJournalingOffZeroAllocs pins the strictly-additive
// contract: with no Journal configured, the steady-state lease-path
// operation (heartbeat) performs zero heap allocations.
func TestHeartbeatJournalingOffZeroAllocs(t *testing.T) {
	clk := newFakeClock()
	c, _ := newTestCoordinator(t, Options{Clock: clk.Now})
	g := mustLease(t, c, "w1")
	if avg := testing.AllocsPerRun(1000, func() {
		if !c.Heartbeat("w1", g.LeaseID, nil) {
			t.Fatal("lease lost")
		}
	}); avg != 0 {
		t.Fatalf("journaling-off heartbeat allocates %.1f per op, want 0", avg)
	}
}
