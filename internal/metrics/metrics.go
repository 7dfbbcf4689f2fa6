// Package metrics is the time-series telemetry layer: a sampling
// recorder that, at a configurable interval, snapshots per-port link
// utilization, queue occupancy, cumulative drops by reason, per-router
// probe-table churn, and route-flap counts into preallocated ring
// buffers, then exports them as versioned, deterministic JSONL
// time series.
//
// The discipline mirrors internal/trace: callers hold a nil *Recorder
// when metrics are off, every hook site gates on that nil, and a
// metrics-off run is byte-identical to a run without the hooks
// compiled in. When metrics are on, sampling only *peeks* at simulator
// state (see stats.DRE.UtilizationPeek) so two same-seed runs produce
// byte-identical series, and all per-sample storage is preallocated at
// freeze time so the steady-state sampling path allocates nothing.
package metrics

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"contra/internal/jsonl"
)

// Version is the JSONL schema version stamped into the meta line.
const Version = 1

// DefaultSampleCap bounds the number of sample ticks retained; older
// ticks are overwritten ring-style and counted as dropped.
const DefaultSampleCap = 4096

// Churn accumulates one router's probe-table dynamics as cumulative
// counters. Routers bump the fields inline (behind a nil check on the
// pointer they hold); the Recorder snapshots deltas at each sample
// tick. Plain exported fields keep the hot-path cost at one predicted
// branch plus an increment.
type Churn struct {
	Added    int64 // forwarding entries created
	Replaced int64 // entries overwritten by a better route
	Expired  int64 // entries that aged out (§5.4 metric expiration)
	Flaps    int64 // best next-hop changes per destination

	// The rest of the probe merge's rules, which the JSONL series does
	// not carry: accepts from the entry's own upstream at a newer
	// version (Newer) or the same one (Refreshed), discards of an older
	// version (Outdated) or of an offer that ranks no better (Lost), and
	// standalone probe copies forwarded.
	Newer, Refreshed, Outdated, Lost, Forwards int64
}

// ChurnTick is one router's churn over one sample tick: the counts the
// JSONL series carries. The ring keeps these alone.
type ChurnTick struct {
	Added, Replaced, Expired, Flaps int64
}

type routerReg struct {
	name  string
	churn *Churn
}

// Recorder collects sample ticks into preallocated ring buffers.
// Register links, drop reasons, and routers before the first sample;
// the first BeginSample freezes the registration and allocates all
// storage up front.
type Recorder struct {
	intervalNs int64
	ringCap    int
	frozen     bool

	linkNames   []string
	dropReasons []string
	routers     []routerReg

	// Ring of sample ticks: times holds the tick timestamps, head is
	// the oldest slot once the ring has wrapped, dropped counts
	// overwritten ticks (same convention as trace.Recorder).
	times   []int64
	head    int
	dropped int64

	// Flat per-tick storage, stride numLinks/numReasons/numRouters.
	util    []float64
	queue   []float64
	ldrops  []int64
	reasons []int64
	churn   []ChurnTick
	prev    []Churn // cumulative snapshot at the previous tick

	cur int // slot being filled between BeginSample and EndSample
	li  int // link cursor within the current tick
}

// NewRecorder returns a Recorder sampling at the given interval (ns).
// The interval is metadata: the caller owns the timer that drives
// BeginSample/EndSample.
func NewRecorder(intervalNs int64) *Recorder {
	return &Recorder{intervalNs: intervalNs, ringCap: DefaultSampleCap}
}

// IntervalNs returns the configured sampling interval.
func (r *Recorder) IntervalNs() int64 { return r.intervalNs }

// SetSampleCap bounds the retained sample ticks. Must be called before
// the first sample.
func (r *Recorder) SetSampleCap(n int) {
	if r.frozen {
		panic("metrics: SetSampleCap after first sample")
	}
	if n < 1 {
		n = 1
	}
	r.ringCap = n
}

// RegisterLink names the next link column (registration order is the
// column order). Must be called before the first sample.
func (r *Recorder) RegisterLink(name string) {
	if r.frozen {
		panic("metrics: RegisterLink after first sample")
	}
	r.linkNames = append(r.linkNames, name)
}

// RegisterDropReasons installs the drop-reason labels, in the order the
// per-tick cumulative counts will be reported.
func (r *Recorder) RegisterDropReasons(labels []string) {
	if r.frozen {
		panic("metrics: RegisterDropReasons after first sample")
	}
	r.dropReasons = append(r.dropReasons[:0], labels...)
}

// RegisterRouter returns the Churn accumulator for a named router.
// Routers may register in any order (fleet maps iterate
// nondeterministically); the recorder sorts by name at freeze time so
// the exported series is deterministic.
func (r *Recorder) RegisterRouter(name string) *Churn {
	if r.frozen {
		panic("metrics: RegisterRouter after first sample")
	}
	c := &Churn{}
	r.routers = append(r.routers, routerReg{name: name, churn: c})
	return c
}

// freeze sorts router registrations and preallocates every buffer so
// steady-state sampling is allocation-free.
func (r *Recorder) freeze() {
	sort.Slice(r.routers, func(i, j int) bool { return r.routers[i].name < r.routers[j].name })
	nl, nr, nc := len(r.linkNames), len(r.dropReasons), len(r.routers)
	r.times = make([]int64, 0, r.ringCap)
	r.util = make([]float64, r.ringCap*nl)
	r.queue = make([]float64, r.ringCap*nl)
	r.ldrops = make([]int64, r.ringCap*nl)
	r.reasons = make([]int64, r.ringCap*nr)
	r.churn = make([]ChurnTick, r.ringCap*nc)
	r.prev = make([]Churn, nc)
	r.frozen = true
}

// BeginSample opens a sample tick at time t. Follow with one Link call
// per registered link (in registration order), one Drops call, then
// EndSample.
func (r *Recorder) BeginSample(t int64) {
	if !r.frozen {
		r.freeze()
	}
	if len(r.times) < r.ringCap {
		r.cur = len(r.times)
		r.times = append(r.times, t)
	} else {
		r.cur = r.head
		r.times[r.head] = t
		r.head++
		if r.head == r.ringCap {
			r.head = 0
		}
		r.dropped++
	}
	r.li = 0
}

// Link records one link's utilization, queued bytes, and cumulative
// drop count for the current tick.
func (r *Recorder) Link(util, queuedBytes float64, drops int64) {
	idx := r.cur*len(r.linkNames) + r.li
	r.util[idx] = util
	r.queue[idx] = queuedBytes
	r.ldrops[idx] = drops
	r.li++
}

// Drops records the cumulative per-reason drop counts for the current
// tick.
func (r *Recorder) Drops(counts []int64) {
	copy(r.reasons[r.cur*len(r.dropReasons):], counts)
}

// EndSample closes the tick: snapshots each registered router's churn
// counters and stores the delta since the previous tick.
func (r *Recorder) EndSample() {
	base := r.cur * len(r.routers)
	for i := range r.routers {
		c := *r.routers[i].churn
		p := r.prev[i]
		r.churn[base+i] = ChurnTick{
			Added:    c.Added - p.Added,
			Replaced: c.Replaced - p.Replaced,
			Expired:  c.Expired - p.Expired,
			Flaps:    c.Flaps - p.Flaps,
		}
		r.prev[i] = c
	}
}

// Samples returns the number of retained sample ticks.
func (r *Recorder) Samples() int { return len(r.times) }

// Dropped returns the number of ticks overwritten by ring wrap.
func (r *Recorder) Dropped() int64 { return r.dropped }

// Links returns the registered link names in column order.
func (r *Recorder) Links() []string { return r.linkNames }

// DropReasons returns the registered drop-reason labels.
func (r *Recorder) DropReasons() []string { return r.dropReasons }

// Routers returns the router names in series order (sorted; only valid
// after the first sample froze the registration).
func (r *Recorder) Routers() []string {
	out := make([]string, len(r.routers))
	for i, reg := range r.routers {
		out[i] = reg.name
	}
	return out
}

// Tick is one retained sample handed to EachSample: per-link parallel
// slices (registration order), cumulative per-reason drop counts, and
// per-router churn deltas (sorted-router order). The slices are views
// into the ring — valid only during the callback.
type Tick struct {
	T       int64
	Util    []float64
	Queue   []float64
	Drops   []int64
	Reasons []int64
	Churn   []ChurnTick
}

// EachSample calls fn for every retained tick, oldest first.
func (r *Recorder) EachSample(fn func(tk Tick)) {
	nl, nr, nc := len(r.linkNames), len(r.dropReasons), len(r.routers)
	emit := func(slot int) {
		fn(Tick{
			T:       r.times[slot],
			Util:    r.util[slot*nl : (slot+1)*nl],
			Queue:   r.queue[slot*nl : (slot+1)*nl],
			Drops:   r.ldrops[slot*nl : (slot+1)*nl],
			Reasons: r.reasons[slot*nr : (slot+1)*nr],
			Churn:   r.churn[slot*nc : (slot+1)*nc],
		})
	}
	for slot := r.head; slot < len(r.times); slot++ {
		emit(slot)
	}
	for slot := 0; slot < r.head; slot++ {
		emit(slot)
	}
}

// JSONL line shapes. Type discriminates, matching internal/trace.
type metaLine struct {
	Type        string   `json:"type"`
	V           int      `json:"v"`
	IntervalNs  int64    `json:"interval_ns"`
	Samples     int      `json:"samples"`
	Dropped     int64    `json:"dropped,omitempty"`
	Links       []string `json:"links"`
	DropReasons []string `json:"drop_reasons"`
	Routers     []string `json:"routers"`
}

type linkLine struct {
	Type  string  `json:"type"`
	T     int64   `json:"t"`
	Link  int     `json:"link"`
	Util  float64 `json:"util"`
	Queue float64 `json:"queue"`
	Drops int64   `json:"drops"`
}

type dropsLine struct {
	Type   string  `json:"type"`
	T      int64   `json:"t"`
	Counts []int64 `json:"counts"`
}

type routerLine struct {
	Type     string `json:"type"`
	T        int64  `json:"t"`
	Router   int    `json:"router"`
	Added    int64  `json:"added"`
	Replaced int64  `json:"replaced"`
	Expired  int64  `json:"expired"`
	Flaps    int64  `json:"flaps"`
}

// WriteJSONL writes the recorded series as one JSON object per line: a
// meta line first (schema version, interval, name tables), then for
// each tick oldest-first one link line per link, one drops line, and
// one router line per router. Output is byte-deterministic for a
// deterministic simulation.
func (r *Recorder) WriteJSONL(w io.Writer) error {
	if !r.frozen {
		r.freeze()
	}
	enc := json.NewEncoder(w)
	meta := metaLine{
		Type:        "meta",
		V:           Version,
		IntervalNs:  r.intervalNs,
		Samples:     len(r.times),
		Dropped:     r.dropped,
		Links:       r.linkNames,
		DropReasons: r.dropReasons,
		Routers:     r.Routers(),
	}
	if err := enc.Encode(meta); err != nil {
		return err
	}
	var err error
	r.EachSample(func(tk Tick) {
		if err != nil {
			return
		}
		for i := range tk.Util {
			if err = enc.Encode(linkLine{
				Type: "link", T: tk.T, Link: i,
				Util: tk.Util[i], Queue: tk.Queue[i], Drops: tk.Drops[i],
			}); err != nil {
				return
			}
		}
		if err = enc.Encode(dropsLine{Type: "drops", T: tk.T, Counts: tk.Reasons}); err != nil {
			return
		}
		for i := range tk.Churn {
			c := tk.Churn[i]
			if err = enc.Encode(routerLine{
				Type: "router", T: tk.T, Router: i,
				Added: c.Added, Replaced: c.Replaced, Expired: c.Expired, Flaps: c.Flaps,
			}); err != nil {
				return
			}
		}
	})
	return err
}

// Check validates a telemetry stream and returns a one-line summary.
// Every line must be exactly what WriteJSONL encodes for its type
// (jsonl.Canonical on the four line structs above) and pass the value
// rules below, and the file must hold, per sample the meta line
// declares, one link line per link, one drops line and one router line
// per router. Telemetry is written whole, so nothing torn is forgiven.
func Check(r io.Reader) (summary string, err error) {
	var c checker
	if _, err := jsonl.Scan(r, jsonl.Strict, c.line); err != nil {
		return "", fmt.Errorf("metrics: %w", err)
	}
	if c.meta == nil {
		return "", fmt.Errorf("metrics: no meta line")
	}
	n, nl, nr := c.meta.Samples, len(c.meta.Links), len(c.meta.Routers)
	switch {
	case c.links != n*nl:
		return "", fmt.Errorf("metrics: %d link lines, meta declares %d samples x %d links", c.links, n, nl)
	case c.drops != n:
		return "", fmt.Errorf("metrics: %d drops lines for %d samples", c.drops, n)
	case c.routers != n*nr:
		return "", fmt.Errorf("metrics: %d router lines, meta declares %d samples x %d routers", c.routers, n, nr)
	}
	return fmt.Sprintf("%d sample(s), %d link(s), %d router(s)", n, nl, nr), nil
}

// checker is Check's state across lines: the meta tables, the line
// counts held against them, and the last timestamp seen.
type checker struct {
	meta                  *metaLine
	links, drops, routers int
	lastT                 int64
}

func (c *checker) tick(kind string, t int64) error {
	if t < 0 || t < c.lastT {
		return fmt.Errorf("%s t negative or out of order", kind)
	}
	c.lastT = t
	return nil
}

func (c *checker) line(_ int, raw []byte) error {
	typ, err := jsonl.Type(raw)
	switch {
	case err != nil:
		return err
	case c.meta == nil && typ != "meta":
		return fmt.Errorf("first line must be meta, got %q", typ)
	case c.meta != nil && typ == "meta":
		return fmt.Errorf("second meta line")
	}
	switch typ {
	case "meta":
		var m metaLine
		if err := jsonl.Canonical(raw, &m); err != nil {
			return err
		}
		switch {
		case m.V != Version:
			return fmt.Errorf("telemetry version %d, this build reads v%d", m.V, Version)
		case m.IntervalNs <= 0:
			return fmt.Errorf("meta needs interval_ns > 0")
		case m.Samples < 0:
			return fmt.Errorf("meta needs samples >= 0")
		case m.Dropped < 0:
			return fmt.Errorf("meta dropped negative")
		}
		c.meta = &m
		return nil
	case "link":
		var l linkLine
		if err := jsonl.Canonical(raw, &l); err != nil {
			return err
		}
		switch {
		case l.Link < 0 || l.Link >= len(c.meta.Links):
			return fmt.Errorf("link index outside the meta link table")
		case l.Util < 0 || l.Util > 1:
			return fmt.Errorf("link util outside [0, 1]")
		case l.Queue < 0:
			return fmt.Errorf("link queue negative")
		case l.Drops < 0:
			return fmt.Errorf("link drops negative")
		}
		c.links++
		return c.tick(typ, l.T)
	case "drops":
		var d dropsLine
		if err := jsonl.Canonical(raw, &d); err != nil {
			return err
		}
		if len(d.Counts) != len(c.meta.DropReasons) {
			return fmt.Errorf("drops counts has %d entries, meta declares %d reasons",
				len(d.Counts), len(c.meta.DropReasons))
		}
		for _, n := range d.Counts {
			if n < 0 {
				return fmt.Errorf("drops count negative")
			}
		}
		c.drops++
		return c.tick(typ, d.T)
	case "router":
		var ro routerLine
		if err := jsonl.Canonical(raw, &ro); err != nil {
			return err
		}
		switch {
		case ro.Router < 0 || ro.Router >= len(c.meta.Routers):
			return fmt.Errorf("router index outside the meta router table")
		case ro.Added < 0 || ro.Replaced < 0 || ro.Expired < 0 || ro.Flaps < 0:
			return fmt.Errorf("router churn counter negative")
		}
		c.routers++
		return c.tick(typ, ro.T)
	}
	return fmt.Errorf("unknown type %q", typ)
}
