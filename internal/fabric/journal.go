package fabric

import (
	"encoding/json"
	"fmt"
	"io"
	"os"

	"contra/internal/jsonl"
)

// JournalVersion is the schema version stamped into every journal's
// meta line. Bump it when a line shape changes at all: ReadJournal
// holds every line to this version's exact encoding and refuses
// versions it does not know.
const JournalVersion = 1

// Journal event types, one per coordinator state transition. Every
// event line carries a monotonic sequence number and an
// injectable-clock timestamp, so a fake-clock test run produces
// byte-identical journals and a real run totally orders the fleet's
// history without trusting worker clocks.
const (
	EventMeta      = "meta"      // first line: schema + campaign shape
	EventGrant     = "grant"     // a pending cell leased to a worker
	EventSteal     = "steal"     // an in-flight cell leased to a second worker
	EventHeartbeat = "heartbeat" // a worker checked in (with telemetry)
	EventExpire    = "expire"    // a lease died of heartbeat silence
	EventResult    = "result"    // a cell result accepted into the stream
	EventDuplicate = "duplicate" // a delivery for an already-done cell, dropped
	EventTimeout   = "timeout"   // the accepted result was a cell-timeout failure
)

// JournalMeta is the journal's first line: enough campaign shape that
// a post-mortem needs no spec file — per-cell names and keys indexed
// by expansion index, the timing knobs in force, and which cells a
// resumed coordinator started with already done.
type JournalMeta struct {
	Type         string   `json:"type"` // EventMeta
	V            int      `json:"v"`
	Campaign     string   `json:"campaign,omitempty"`
	Cells        int      `json:"cells"`
	LeaseTTLNs   int64    `json:"lease_ttl_ns"`
	StealAfterNs int64    `json:"steal_after_ns"`
	MaxLeases    int      `json:"max_leases"`
	Names        []string `json:"names"`
	Keys         []string `json:"keys"`
	PreDone      []int    `json:"pre_done,omitempty"` // expansion indices done at start (resume)
}

// JournalEvent is every non-meta journal line. Type decides which of
// the optional fields are present; the always-on trio is Seq (dense,
// starting at 1), TNs (coordinator clock, unix nanoseconds), and Cell
// (expansion index; -1 when the event could not be tied to a cell,
// e.g. a heartbeat for a lease that no longer exists).
type JournalEvent struct {
	Type string `json:"type"`
	Seq  int64  `json:"seq"`
	TNs  int64  `json:"t_ns"`
	Cell int    `json:"cell"`

	Worker  string `json:"worker,omitempty"`
	Lease   int64  `json:"lease,omitempty"`
	Attempt int    `json:"attempt,omitempty"` // grant/steal/expire: 1-based attempt number
	Holder  string `json:"holder,omitempty"`  // steal: the straggler losing exclusivity

	Live      bool       `json:"live,omitempty"`      // heartbeat: the lease was still held
	Telemetry *Telemetry `json:"telemetry,omitempty"` // heartbeat: worker-reported payload

	Key      string `json:"key,omitempty"`      // result: the cell's scenario key
	Failed   bool   `json:"failed,omitempty"`   // result: the record carried an error
	Timeout  bool   `json:"timeout,omitempty"`  // result: the error was a cell timeout
	WaitNs   int64  `json:"wait_ns,omitempty"`  // result: pending before the first grant
	RunNs    int64  `json:"run_ns,omitempty"`   // result: first grant to acceptance
	Attempts int    `json:"attempts,omitempty"` // result: grants consumed (incl. steals)
}

// Journal appends coordinator events as JSONL: one meta line, then
// one line per event, each a single Write through a jsonl.Appender so a
// crash tears at most the final line (the same contract as
// dist.JSONLSink). The Coordinator emits under its own lock, so Journal
// itself needs none; the first write or encode failure is latched and
// returned by Close — observability must never fail the campaign it
// observes.
type Journal struct {
	a   *jsonl.Appender
	seq int64
	err error // first encode failure; the appender latches write failures
}

// NewJournal journals to w.
func NewJournal(w io.Writer) *Journal { return &Journal{a: jsonl.NewAppender(w)} }

// CreateJournal journals to a fresh file at path.
func CreateJournal(path string) (*Journal, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	return NewJournal(f), nil
}

// Close closes the underlying writer (when closable) and reports the
// first emission error, if any.
func (j *Journal) Close() error {
	if err := j.a.Close(); err != nil && j.err == nil {
		j.err = fmt.Errorf("fabric: journal: %w", err)
	}
	return j.err
}

// meta writes the journal's first line.
func (j *Journal) meta(m JournalMeta) {
	m.Type = EventMeta
	m.V = JournalVersion
	j.write(&m)
}

// event stamps the next sequence number onto ev and appends it.
func (j *Journal) event(ev JournalEvent) {
	j.seq++
	ev.Seq = j.seq
	j.write(&ev)
}

func (j *Journal) write(v any) {
	b, err := json.Marshal(v)
	if err != nil {
		if j.err == nil {
			j.err = fmt.Errorf("fabric: encode journal line: %v", err)
		}
		return
	}
	_ = j.a.Append(b) // latched by the appender; Close reports it
}

// check holds a meta line to what New writes. Consumers index the name
// and key tables by cell and size tables by Cells (BuildPostmortem),
// which is thereby bounded by the file's size, not by a forged number.
func (m *JournalMeta) check() error {
	switch {
	case m.V != JournalVersion:
		return fmt.Errorf("journal version %d, this binary reads %d", m.V, JournalVersion)
	case m.Cells <= 0:
		return fmt.Errorf("meta needs cells > 0, has %d", m.Cells)
	case m.LeaseTTLNs <= 0 || m.StealAfterNs <= 0:
		return fmt.Errorf("meta needs positive lease_ttl_ns and steal_after_ns")
	case m.MaxLeases <= 0:
		return fmt.Errorf("meta needs max_leases > 0")
	case len(m.Names) != m.Cells || len(m.Keys) != m.Cells:
		return fmt.Errorf("meta declares %d cells but carries %d names and %d keys", m.Cells, len(m.Names), len(m.Keys))
	}
	for _, idx := range m.PreDone {
		if idx < 0 || idx >= m.Cells {
			return fmt.Errorf("pre_done index %d outside the cell table", idx)
		}
	}
	return nil
}

// readJournal is the journal's one reader: every line exactly what
// Journal writes (jsonl.Canonical on the writer's types), the first a
// meta line that passes check. torn reports a dropped final line.
func readJournal(r io.Reader) (meta *JournalMeta, events []JournalEvent, torn bool, err error) {
	torn, err = jsonl.Scan(r, jsonl.TornTail, func(_ int, raw []byte) error {
		if meta != nil {
			var ev JournalEvent
			if err := jsonl.Canonical(raw, &ev); err != nil {
				return err
			}
			events = append(events, ev)
			return nil
		}
		if typ, err := jsonl.Type(raw); err != nil {
			return err
		} else if typ != EventMeta {
			return fmt.Errorf("first line is %q, want meta", typ)
		}
		var m JournalMeta
		if err := jsonl.Canonical(raw, &m); err != nil {
			return err
		}
		if err := m.check(); err != nil {
			return err
		}
		meta = &m
		return nil
	})
	if err != nil {
		return nil, nil, false, fmt.Errorf("fabric: journal %w", err)
	}
	if meta == nil {
		return nil, nil, false, fmt.Errorf("fabric: journal has no meta line")
	}
	return meta, events, torn, nil
}

// ReadJournal parses a journal stream back into its meta line and
// events. A torn final line (no trailing newline — a crashed
// coordinator) is dropped; corruption anywhere else is an error. It
// vouches for each line; whether the events tell a possible story is
// CheckJournal's question, kept apart so that the journal of a
// misbehaving coordinator can still be read.
func ReadJournal(r io.Reader) (*JournalMeta, []JournalEvent, error) {
	meta, events, _, err := readJournal(r)
	return meta, events, err
}

// ReadJournalFile reads a journal from disk.
func ReadJournalFile(path string) (*JournalMeta, []JournalEvent, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	meta, events, err := ReadJournal(f)
	if err != nil {
		return nil, nil, fmt.Errorf("%s: %v", path, err)
	}
	return meta, events, nil
}

// CheckJournalStream reads a journal and replays it through
// CheckJournal: the whole-file validation behind `contracheck journal`.
func CheckJournalStream(r io.Reader) (summary string, err error) {
	meta, events, torn, err := readJournal(r)
	if err != nil {
		return "", err
	}
	if summary, err = CheckJournal(meta, events); err != nil {
		return "", err
	}
	if torn {
		summary += ", torn final line dropped"
	}
	return summary, nil
}

// CheckJournal replays the coordinator's lease state machine over a
// parsed journal and fails on the first transition a correct
// coordinator cannot make. Errors name the event by its 1-based
// position (line N+1 of the journal as written); the summary counts
// what was replayed.
func CheckJournal(meta *JournalMeta, events []JournalEvent) (summary string, err error) {
	if err := meta.check(); err != nil {
		return "", err
	}
	c := journalReplay{
		meta:      meta,
		grants:    map[int]int{},
		results:   map[int]bool{},
		live:      map[int64]int{},
		liveCells: map[int]int{},
		preDone:   map[int]bool{},
	}
	for _, idx := range meta.PreDone {
		c.preDone[idx] = true
	}
	for i := range events {
		if err := c.step(&events[i]); err != nil {
			return "", fmt.Errorf("event %d: %v", i+1, err)
		}
	}
	return fmt.Sprintf("%d cell(s), %d event(s), %d result(s), %d steal(s), %d pre-done",
		meta.Cells, len(events), len(c.results), c.steals, len(c.preDone)), nil
}

// journalReplay is CheckJournal's state: the lease and attempt tables
// rebuilt from the events so far.
type journalReplay struct {
	meta      *JournalMeta
	lastSeq   int64
	lastT     int64
	grants    map[int]int   // cell → grants + steals consumed
	results   map[int]bool  // cell → result accepted
	live      map[int64]int // live lease id → cell
	liveCells map[int]int   // cell → live lease count
	preDone   map[int]bool
	steals    int
}

func (c *journalReplay) step(ev *JournalEvent) error {
	switch {
	case ev.Seq != c.lastSeq+1:
		return fmt.Errorf("%s seq %d is not dense (prev %d)", ev.Type, ev.Seq, c.lastSeq)
	case ev.TNs < c.lastT:
		return fmt.Errorf("%s t_ns runs backwards", ev.Type)
	}
	c.lastSeq, c.lastT = ev.Seq, ev.TNs
	cell := ev.Cell
	inTable := cell >= 0 && cell < c.meta.Cells
	done := c.preDone[cell] || c.results[cell]
	switch ev.Type {
	case EventGrant, EventSteal:
		switch {
		case !inTable:
			return fmt.Errorf("%s cell %d outside the cell table", ev.Type, cell)
		case done:
			return fmt.Errorf("%s of already-done cell %d", ev.Type, cell)
		case ev.Worker == "" || ev.Lease <= 0:
			return fmt.Errorf("%s line needs a worker and a lease id", ev.Type)
		}
		c.grants[cell]++
		c.live[ev.Lease] = cell
		c.liveCells[cell]++
		if c.liveCells[cell] > c.meta.MaxLeases {
			return fmt.Errorf("cell %d has %d concurrent leases, cap %d", cell, c.liveCells[cell], c.meta.MaxLeases)
		}
		if ev.Attempt != c.grants[cell] {
			return fmt.Errorf("%s of cell %d numbered attempt %d, want %d", ev.Type, cell, ev.Attempt, c.grants[cell])
		}
		if ev.Type == EventSteal {
			c.steals++
			if ev.Holder == "" || ev.Holder == ev.Worker {
				return fmt.Errorf("steal of cell %d: holder %q vs thief %q", cell, ev.Holder, ev.Worker)
			}
		}
	case EventHeartbeat:
		// cell is -1 when the lease was already gone; a live heartbeat
		// must reference a lease the journal granted.
		if cell >= 0 {
			if got, ok := c.live[ev.Lease]; !ok || got != cell {
				return fmt.Errorf("heartbeat for cell %d rides unknown lease %d", cell, ev.Lease)
			}
		}
	case EventExpire:
		if got, ok := c.live[ev.Lease]; !ok || got != cell {
			return fmt.Errorf("expire of unknown lease %d on cell %d", ev.Lease, cell)
		}
		delete(c.live, ev.Lease)
		c.liveCells[cell]--
	case EventResult:
		switch {
		case !inTable:
			return fmt.Errorf("result cell %d outside the cell table", cell)
		case c.preDone[cell]:
			return fmt.Errorf("result for pre-done cell %d (should be a duplicate)", cell)
		case c.results[cell]:
			return fmt.Errorf("cell %d accepted a second result", cell)
		case ev.Key != c.meta.Keys[cell]:
			return fmt.Errorf("result for cell %d carries key %q, meta says %q", cell, ev.Key, c.meta.Keys[cell])
		case ev.Attempts != c.grants[cell]:
			return fmt.Errorf("result for cell %d reports %d attempts, journal granted %d", cell, ev.Attempts, c.grants[cell])
		}
		c.results[cell] = true
		// Acceptance releases every lease on the cell.
		for id, lc := range c.live {
			if lc == cell {
				delete(c.live, id)
			}
		}
		c.liveCells[cell] = 0
	case EventDuplicate:
		switch {
		case !inTable:
			return fmt.Errorf("duplicate cell %d outside the cell table", cell)
		case !done:
			return fmt.Errorf("duplicate for cell %d before any result", cell)
		}
	case EventTimeout:
		if !c.results[cell] {
			return fmt.Errorf("timeout event for cell %d without its result", cell)
		}
	default:
		return fmt.Errorf("unknown type %q", ev.Type)
	}
	return nil
}
