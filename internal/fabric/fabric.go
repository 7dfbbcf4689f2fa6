// Package fabric is the lease/steal coordinator that the benchmark's
// fleet_tiny_cells workload drives: a Coordinator expands a campaign
// into cells keyed by scenario.Key and leases them over plain
// HTTP/JSON to RunWorker loops, which run each cell, keep it durable
// locally and upload it. Expired leases return their cell to pending,
// idle workers steal a straggler's cell near the end, and results are
// deduplicated by key (dist.DedupSink), so the stream dist.Merge folds
// into a report is byte-identical to a single-process run.
//
// contracamp's scale-out path is -shard/-checkpoint/-resume/-merge
// (internal/dist); this package is only the benchmark fleet's engine.
//
// Time never advances on its own inside the Coordinator: expiry and
// steal eligibility are decided on a request, against an injectable
// clock, which lets the fault tests run on a fake clock.
package fabric

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"contra/internal/campaign"
	"contra/internal/dist"
	"contra/internal/scenario"
)

// DefaultLeaseTTL is the default lease lifetime. Workers heartbeat at
// half this interval (see HeartbeatInterval), so a dead worker's lease
// expires after two missed heartbeats.
const DefaultLeaseTTL = 10 * time.Second

// HeartbeatInterval derives the worker heartbeat period from a lease
// TTL: half the TTL, so reassignment happens within two missed
// heartbeat intervals of a worker dying.
func HeartbeatInterval(ttl time.Duration) time.Duration { return ttl / 2 }

// Options tunes a Coordinator.
type Options struct {
	// LeaseTTL is how long a lease lives without a heartbeat; <= 0
	// means DefaultLeaseTTL.
	LeaseTTL time.Duration

	// StealAfter is the minimum age of a cell's oldest live lease
	// before an idle worker may steal the cell (second concurrent
	// lease) when no unleased cells remain; <= 0 means LeaseTTL.
	StealAfter time.Duration

	// MaxLeasesPerCell caps concurrent leases on one cell during
	// end-of-campaign stealing; <= 0 means 2.
	MaxLeasesPerCell int

	// Clock overrides time.Now (fault tests drive a fake clock).
	Clock func() time.Time
}

func (o Options) leaseTTL() time.Duration {
	if o.LeaseTTL <= 0 {
		return DefaultLeaseTTL
	}
	return o.LeaseTTL
}

func (o Options) stealAfter() time.Duration {
	if o.StealAfter <= 0 {
		return o.leaseTTL()
	}
	return o.StealAfter
}

func (o Options) maxLeases() int {
	if o.MaxLeasesPerCell <= 0 {
		return 2
	}
	return o.MaxLeasesPerCell
}

// lease is one worker's time-bounded claim on a cell.
type lease struct {
	id      int64
	worker  string
	cell    *cell
	granted time.Time
	expires time.Time
	stolen  bool
	attempt int // index into cell.attempts
}

// Attempt outcomes, the terminal states of one lease's slice of a
// cell's history.
const (
	AttemptRunning    = "running"    // lease live, no result yet
	AttemptExpired    = "expired"    // lease died of heartbeat silence
	AttemptDelivered  = "delivered"  // this lease's worker delivered the accepted result
	AttemptSuperseded = "superseded" // another delivery finished the cell first
)

// attempt is one grant's entry in a cell's lifecycle history.
type attempt struct {
	worker  string
	leaseID int64
	granted time.Time
	stolen  bool
	beats   int
	outcome string
}

// cell is one unit of campaign work: a scenario plus its expansion
// index. A cell is pending (no leases), in flight (>= 1 lease), or
// done; expired leases silently return it to pending. attempts is the
// cell's full lifecycle history — one entry per grant, kept forever,
// which is what Cells reads.
type cell struct {
	job     campaign.Job
	key     string
	done    bool
	leases  map[int64]*lease
	expired int // leases lost to expiry, for Status

	attempts    []attempt
	firstGrant  time.Time
	doneAt      time.Time
	deliveredBy string
	failed      bool
	timeout     bool
}

// oldestLease returns the earliest-granted live lease, or nil.
func (c *cell) oldestLease() *lease {
	var oldest *lease
	for _, l := range c.leases {
		if oldest == nil || l.granted.Before(oldest.granted) ||
			(l.granted.Equal(oldest.granted) && l.id < oldest.id) {
			oldest = l
		}
	}
	return oldest
}

// workerInfo is the coordinator's view of one worker id: lease count,
// deliveries, heartbeats and last contact. Allocated once on first
// contact, updated in place after that, so the steady-state heartbeat
// path stays allocation-free.
type workerInfo struct {
	last      time.Time
	beats     int64
	leases    int
	delivered int
}

// Coordinator owns the authoritative campaign state: the cell table,
// the lease table, the per-worker table, and the deduplicated result
// stream. All methods are safe for concurrent use. Expiry is swept
// lazily at the head of every state-changing call (Lease, Heartbeat,
// Result) — and only those: Status and Cells are pure reads, so
// reading them never shifts lease-expiry timing.
type Coordinator struct {
	opts   Options
	name   string
	cellNs int64 // spec-level per-cell wall-clock budget, shipped in grants

	mu       sync.Mutex
	start    time.Time
	cells    []*cell
	byKey    map[string]*cell
	leases   map[int64]*lease
	workers  map[string]*workerInfo
	sink     *dist.DedupSink
	nextID   int64
	done     int
	failed   int
	expired  int // total leases lost to expiry
	stolen   int // total stolen leases granted
	dups     int // total duplicate deliveries dropped
	finished chan struct{}
}

// New expands spec into cells and returns a Coordinator writing
// accepted results through sink (wrapped in a DedupSink seeded with
// alreadyDone). Cells whose keys appear in alreadyDone — typically
// dist.StreamKeys of the stream file a restarted coordinator is
// appending to — start out done, which is the coordinator-restart
// resume path.
func New(spec *campaign.Spec, sink dist.Sink, alreadyDone map[string]bool, opts Options) (*Coordinator, error) {
	if sink == nil {
		return nil, fmt.Errorf("fabric: nil sink")
	}
	jobs, err := spec.Jobs()
	if err != nil {
		return nil, err
	}
	if len(jobs) == 0 {
		return nil, fmt.Errorf("fabric: campaign %q expands to no cells", spec.Name)
	}
	if opts.Clock == nil {
		opts.Clock = time.Now
	}
	c := &Coordinator{
		opts:     opts,
		name:     spec.Name,
		cellNs:   spec.CellTimeoutNs,
		start:    opts.Clock(),
		byKey:    make(map[string]*cell, len(jobs)),
		leases:   make(map[int64]*lease),
		workers:  make(map[string]*workerInfo),
		sink:     dist.NewDedupSink(sink, alreadyDone),
		finished: make(chan struct{}),
	}
	for _, j := range jobs {
		cl := &cell{job: j, key: j.Scenario.Key(), leases: make(map[int64]*lease)}
		if alreadyDone[cl.key] {
			cl.done = true
			c.done++
		}
		c.cells = append(c.cells, cl)
		c.byKey[cl.key] = cl
	}
	if c.done == len(c.cells) {
		close(c.finished)
	}
	return c, nil
}

// Grant is a leased cell, the payload a worker runs. The scenario is
// carried in full (it round-trips through JSON losslessly for
// spec-driven scenarios), so workers need no copy of the campaign
// spec; the spec-level cell timeout rides along too.
type Grant struct {
	LeaseID  int64              `json:"lease_id"`
	Index    int                `json:"index"`
	Key      string             `json:"key"`
	Campaign string             `json:"campaign,omitempty"`
	Scenario *scenario.Scenario `json:"scenario"`
	TTLNs    int64              `json:"ttl_ns"`
	Stolen   bool               `json:"stolen,omitempty"`
	CellNs   int64              `json:"cell_timeout_ns,omitempty"`
}

// workerLocked returns worker's info row, creating it on first
// contact, and stamps the contact time. Callers hold mu.
func (c *Coordinator) workerLocked(worker string, now time.Time) *workerInfo {
	w, ok := c.workers[worker]
	if !ok {
		w = &workerInfo{}
		c.workers[worker] = w
	}
	w.last = now
	return w
}

// sweep drops every expired lease; a cell stripped of its last lease
// returns to pending. Callers hold mu.
func (c *Coordinator) sweep(now time.Time) {
	for _, l := range c.leases {
		if now.Before(l.expires) {
			continue
		}
		delete(c.leases, l.id)
		delete(l.cell.leases, l.id)
		l.cell.expired++
		l.cell.attempts[l.attempt].outcome = AttemptExpired
		c.expired++
		if w, ok := c.workers[l.worker]; ok {
			w.leases--
		}
	}
}

// grantLocked creates a lease on cl for worker. Callers hold mu.
func (c *Coordinator) grantLocked(cl *cell, worker string, now time.Time, stolen bool) *lease {
	c.nextID++
	l := &lease{
		id:      c.nextID,
		worker:  worker,
		cell:    cl,
		granted: now,
		expires: now.Add(c.opts.leaseTTL()),
		stolen:  stolen,
		attempt: len(cl.attempts),
	}
	cl.attempts = append(cl.attempts, attempt{
		worker: worker, leaseID: l.id, granted: now, stolen: stolen, outcome: AttemptRunning,
	})
	if cl.firstGrant.IsZero() {
		cl.firstGrant = now
	}
	c.leases[l.id] = l
	cl.leases[l.id] = l
	c.workerLocked(worker, now).leases++
	if stolen {
		c.stolen++
	}
	return l
}

// Lease hands worker a cell to run. The three outcomes mirror the wire
// protocol: a grant, "wait" (nil grant — everything is leased and
// nothing is stealable yet), or campaign done (nil grant, done true).
//
// Pending cells are granted lowest-index first. With no pending cells
// left, the longest-in-flight cell whose oldest lease is at least
// StealAfter old — and which this worker doesn't already hold, and
// whose lease count is under MaxLeasesPerCell — is stolen.
func (c *Coordinator) Lease(worker string) (*Grant, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.opts.Clock()
	c.sweep(now)
	c.workerLocked(worker, now)
	if c.done == len(c.cells) {
		return nil, true
	}
	// Lowest-index pending cell first: deterministic, and it keeps the
	// expansion's cheap/expensive interleaving intact.
	for _, cl := range c.cells {
		if cl.done || len(cl.leases) > 0 {
			continue
		}
		return c.wireGrant(c.grantLocked(cl, worker, now, false)), false
	}
	// Nothing pending: steal from the longest-running straggler.
	var victim *cell
	var victimOldest time.Time
	for _, cl := range c.cells {
		if cl.done || len(cl.leases) == 0 || len(cl.leases) >= c.opts.maxLeases() {
			continue
		}
		held := false
		for _, l := range cl.leases {
			if l.worker == worker {
				held = true
				break
			}
		}
		if held {
			continue
		}
		oldest := cl.oldestLease().granted
		if now.Sub(oldest) < c.opts.stealAfter() {
			continue
		}
		if victim == nil || oldest.Before(victimOldest) {
			victim, victimOldest = cl, oldest
		}
	}
	if victim != nil {
		return c.wireGrant(c.grantLocked(victim, worker, now, true)), false
	}
	return nil, false
}

// wireGrant renders a lease as its wire payload. Callers hold mu.
func (c *Coordinator) wireGrant(l *lease) *Grant {
	sc := l.cell.job.Scenario
	return &Grant{
		LeaseID:  l.id,
		Index:    l.cell.job.Index,
		Key:      l.cell.key,
		Campaign: c.name,
		Scenario: &sc,
		TTLNs:    int64(c.opts.leaseTTL()),
		Stolen:   l.stolen,
		CellNs:   c.cellNs,
	}
}

// Heartbeat extends worker's lease and reports whether it is still
// live. False tells the worker its cell has been (or will be)
// re-leased — it may finish anyway; the result dedup makes that
// harmless.
func (c *Coordinator) Heartbeat(worker string, leaseID int64) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.opts.Clock()
	c.sweep(now)
	c.workerLocked(worker, now).beats++
	l, ok := c.leases[leaseID]
	live := ok && l.worker == worker
	if live {
		l.expires = now.Add(c.opts.leaseTTL())
		l.cell.attempts[l.attempt].beats++
	}
	return live
}

// Result accepts one cell result from a worker. Delivery is
// at-least-once: duplicates (crash/resume re-sends, stolen cells
// finishing twice, retried uploads) are reported as dup and dropped
// before the stream. The record's scenario payload is replaced by the
// coordinator's own expansion of the cell, so the merged output is a
// pure function of the spec regardless of which worker delivered.
// leaseID 0 is a lease-less delivery (the resume re-send path).
func (c *Coordinator) Result(worker string, leaseID int64, rec *dist.Record) (dup bool, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.opts.Clock()
	c.sweep(now)
	cl, ok := c.byKey[rec.Key]
	if !ok {
		return false, fmt.Errorf("fabric: result for unknown cell key %q", rec.Key)
	}
	if rec.Index != cl.job.Index {
		return false, fmt.Errorf("fabric: key %q delivered at index %d, campaign expands it at %d",
			rec.Key, rec.Index, cl.job.Index)
	}
	w := c.workerLocked(worker, now)
	var own *lease
	if l, ok := c.leases[leaseID]; ok && l.worker == worker && l.cell == cl {
		own = l
		delete(c.leases, l.id)
		delete(cl.leases, l.id)
		w.leases--
	}
	if cl.done {
		if own != nil {
			cl.attempts[own.attempt].outcome = AttemptSuperseded
		}
		c.dups++
		return true, nil
	}
	canon := &dist.Record{
		Campaign: c.name,
		Key:      cl.key,
		Index:    cl.job.Index,
		Scenario: &cl.job.Scenario,
		Result:   rec.Result,
		Err:      rec.Err,
	}
	if err := c.sink.Emit(canon); err != nil {
		return false, err
	}
	cl.done = true
	cl.doneAt = now
	cl.deliveredBy = worker
	cl.failed = rec.Err != ""
	cl.timeout = strings.HasPrefix(rec.Err, campaign.ErrCellTimeout)
	if own != nil {
		cl.attempts[own.attempt].outcome = AttemptDelivered
	}
	// Any other lease on this cell (a straggler or a thief) is moot.
	for id, l := range cl.leases {
		cl.attempts[l.attempt].outcome = AttemptSuperseded
		if lw, ok := c.workers[l.worker]; ok {
			lw.leases--
		}
		delete(c.leases, id)
		delete(cl.leases, id)
	}
	w.delivered++
	c.done++
	if rec.Err != "" {
		c.failed++
	}
	if c.done == len(c.cells) {
		close(c.finished)
	}
	return false, nil
}

// WorkerStatus is one worker's row in Status: coordinator-side lease
// accounting.
type WorkerStatus struct {
	Worker     string `json:"worker"`
	Leases     int    `json:"leases"`
	Delivered  int    `json:"delivered"`
	Heartbeats int64  `json:"heartbeats"`
	LastSeenNs int64  `json:"last_seen_ns"` // age of the last contact
}

// Status is a point-in-time snapshot of coordinator state.
type Status struct {
	Campaign         string         `json:"campaign,omitempty"`
	Total            int            `json:"total"`
	Done             int            `json:"done"`
	Failed           int            `json:"failed"`
	Pending          int            `json:"pending"`
	InFlight         int            `json:"in_flight"`
	ActiveLeases     int            `json:"active_leases"`
	ExpiredLeases    int            `json:"expired_leases"`
	StolenLeases     int            `json:"stolen_leases"`
	DuplicateResults int            `json:"duplicate_results"`
	Workers          []WorkerStatus `json:"workers,omitempty"`
}

// Status snapshots progress without touching lease state: it runs no
// expiry sweep, so reading it never shifts when a lease actually dies
// (sweeps happen on Lease, Heartbeat, and Result only). A lease past
// its TTL therefore still counts as active here until the next
// state-changing call notices it.
func (c *Coordinator) Status() Status {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.opts.Clock()
	st := Status{
		Campaign:         c.name,
		Total:            len(c.cells),
		Done:             c.done,
		Failed:           c.failed,
		ActiveLeases:     len(c.leases),
		ExpiredLeases:    c.expired,
		StolenLeases:     c.stolen,
		DuplicateResults: c.dups + c.sink.Duplicates(),
	}
	for _, cl := range c.cells {
		switch {
		case cl.done:
		case len(cl.leases) > 0:
			st.InFlight++
		default:
			st.Pending++
		}
	}
	if len(c.workers) > 0 {
		names := make([]string, 0, len(c.workers))
		for name := range c.workers {
			names = append(names, name)
		}
		sort.Strings(names)
		st.Workers = make([]WorkerStatus, 0, len(names))
		for _, name := range names {
			w := c.workers[name]
			st.Workers = append(st.Workers, WorkerStatus{
				Worker:     name,
				Leases:     w.leases,
				Delivered:  w.delivered,
				Heartbeats: w.beats,
				LastSeenNs: now.Sub(w.last).Nanoseconds(),
			})
		}
	}
	return st
}

// Cell lifecycle states, as served by Cells.
const (
	CellPending = "pending" // no live lease
	CellLeased  = "leased"  // granted, no heartbeat yet
	CellRunning = "running" // granted and heartbeating
	CellDone    = "done"    // result accepted
)

// AttemptStatus is one entry of a cell's lifecycle history.
type AttemptStatus struct {
	Worker     string `json:"worker"`
	Lease      int64  `json:"lease"`
	GrantedNs  int64  `json:"granted_ns"` // since coordinator start
	Stolen     bool   `json:"stolen,omitempty"`
	Heartbeats int    `json:"heartbeats"`
	Outcome    string `json:"outcome"`
}

// CellStatus is one cell's lifecycle snapshot: its state machine
// position, full attempt history, and — once done — where its
// wall-clock went (queue wait vs run time) and who delivered it.
type CellStatus struct {
	Index    int             `json:"index"`
	Key      string          `json:"key"`
	Name     string          `json:"name"`
	State    string          `json:"state"`
	Attempts []AttemptStatus `json:"attempts,omitempty"`
	WaitNs   int64           `json:"wait_ns,omitempty"` // pending before the first grant
	RunNs    int64           `json:"run_ns,omitempty"`  // first grant to acceptance (done cells)
	Worker   string          `json:"worker,omitempty"`  // delivered by
	Expired  int             `json:"expired,omitempty"` // leases lost to expiry
	Failed   bool            `json:"failed,omitempty"`
	Timeout  bool            `json:"timeout,omitempty"`
}

// Cells snapshots every cell's lifecycle, in expansion order. Like
// Status it is a pure read: no sweep, no state change.
func (c *Coordinator) Cells() []CellStatus {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]CellStatus, len(c.cells))
	for i, cl := range c.cells {
		cs := CellStatus{
			Index:   cl.job.Index,
			Key:     cl.key,
			Name:    cl.job.Scenario.Name,
			State:   CellPending,
			Expired: cl.expired,
			Failed:  cl.failed,
			Timeout: cl.timeout,
			Worker:  cl.deliveredBy,
		}
		switch {
		case cl.done:
			cs.State = CellDone
		case len(cl.leases) > 0:
			cs.State = CellLeased
			for _, l := range cl.leases {
				if cl.attempts[l.attempt].beats > 0 {
					cs.State = CellRunning
					break
				}
			}
		}
		if !cl.firstGrant.IsZero() {
			cs.WaitNs = cl.firstGrant.Sub(c.start).Nanoseconds()
		}
		if cl.done && !cl.firstGrant.IsZero() {
			cs.RunNs = cl.doneAt.Sub(cl.firstGrant).Nanoseconds()
		}
		if len(cl.attempts) > 0 {
			cs.Attempts = make([]AttemptStatus, len(cl.attempts))
			for ai, a := range cl.attempts {
				cs.Attempts[ai] = AttemptStatus{
					Worker:     a.worker,
					Lease:      a.leaseID,
					GrantedNs:  a.granted.Sub(c.start).Nanoseconds(),
					Stolen:     a.stolen,
					Heartbeats: a.beats,
					Outcome:    a.outcome,
				}
			}
		}
		out[i] = cs
	}
	return out
}

// Done returns a channel closed when every cell has a result.
func (c *Coordinator) Done() <-chan struct{} { return c.finished }
