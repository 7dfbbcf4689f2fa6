// Package trace is the per-flow observability layer: a configurable-
// level decision-trace recorder the dataplane hot paths feed. At the
// "decisions" level every data-packet forwarding decision is recorded
// (time, flow, switch, chosen port + rank vector, runner-up port +
// rank vector, policy era); at the "flows" level only per-flow
// summaries (path taken, hop count, per-hop queueing, FCT) are kept;
// "off" records nothing, and the callers gate every hook on a nil
// recorder so the off path stays zero-cost and byte-identical.
//
// The package deliberately depends on nothing inside the repo but the
// line codec (internal/jsonl): the simulator, the dataplane and the
// baselines all hand it plain ints and strings, so it can sit below
// every layer that wants to record.
package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"contra/internal/jsonl"
)

// Level selects how much the recorder keeps.
type Level uint8

// Trace levels.
const (
	// Off records nothing. Callers hold a nil *Recorder instead, so
	// the hot path pays a single pointer check.
	Off Level = iota
	// Flows keeps per-flow summaries only: path, hop count, queueing,
	// FCT.
	Flows
	// Decisions additionally records every forwarding decision with
	// its chosen and runner-up (port, rank vector) pair.
	Decisions
)

// ParseLevel resolves a CLI/spec trace-level name. The empty string
// and "off" both mean Off.
func ParseLevel(s string) (Level, error) {
	switch s {
	case "", "off":
		return Off, nil
	case "flows":
		return Flows, nil
	case "decisions":
		return Decisions, nil
	}
	return Off, fmt.Errorf("trace: unknown level %q (want off, flows or decisions)", s)
}

// String returns the level's spec name.
func (l Level) String() string {
	switch l {
	case Flows:
		return "flows"
	case Decisions:
		return "decisions"
	}
	return "off"
}

// Decision is one recorded forwarding decision: what the switch chose
// for the packet and what the best alternative next hop would have
// been at that instant. Field order fixes the JSONL key order.
type Decision struct {
	At     int64  `json:"at_ns"`
	Flow   uint64 `json:"flow"`
	Switch string `json:"switch"`
	// Kind is "source" (fresh BestT-style decision at the flow's first
	// fabric switch) or "transit" (tagged packet resolved mid-fabric).
	Kind string `json:"kind"`
	Port int    `json:"port"`
	// Rank is the chosen entry's policy rank vector (HULA records its
	// scalar path utilization as a one-element vector).
	Rank []float64 `json:"rank"`
	// RunnerPort is the best live alternative on a different egress
	// port, -1 when every live entry shares the chosen port.
	RunnerPort int       `json:"runner_port"`
	RunnerRank []float64 `json:"runner_rank,omitempty"`
	Era        uint8     `json:"era"`
	Pid        uint8     `json:"pid"`
}

// FlowTrace is one flow's summary: identity and size (from the flow
// table), the path its first packet took, delivery accounting, and the
// decision counters the decisions level maintains.
type FlowTrace struct {
	ID      uint64
	Src     string
	Dst     string
	Size    int64
	StartNs int64
	FctNs   int64 // 0 until the flow completes
	Hops    int   // fabric hops of the first packet
	Path    []string
	QueueNs int64 // summed per-hop queueing across delivered data packets
	Pkts    int64 // delivered data packets
	// Decisions counts recorded forwarding decisions for this flow;
	// Divergent counts those where a live runner-up existed on a
	// different egress port — the flow's counterfactual branch points.
	Decisions int64
	Divergent int64

	sealed bool // first packet delivered: path capture complete
}

// Recorder accumulates one scenario's trace. It is not safe for
// concurrent use; the simulator is single-threaded and campaigns give
// every scenario its own recorder.
type Recorder struct {
	level     Level
	decisions []Decision
	ringCap   int // 0 = unbounded
	head      int // ring start when the cap has wrapped
	dropped   int64
	flows     map[uint64]*FlowTrace
}

// NewRecorder builds a recorder for the given level. Off is allowed
// but pointless — callers should keep a nil recorder instead.
func NewRecorder(level Level) *Recorder {
	return &Recorder{level: level, flows: make(map[uint64]*FlowTrace)}
}

// SetDecisionCap bounds the decision store to a ring of the last n
// records (0 restores the unbounded default). With a cap, steady-state
// recording reuses ring slots and their rank slices instead of
// growing.
func (r *Recorder) SetDecisionCap(n int) { r.ringCap = n }

// Level returns the recorder's level.
func (r *Recorder) Level() Level { return r.level }

// DecisionsOn reports whether per-decision recording is active.
func (r *Recorder) DecisionsOn() bool { return r.level == Decisions }

// Dropped returns how many decisions the ring cap discarded.
func (r *Recorder) Dropped() int64 { return r.dropped }

func (r *Recorder) ensure(flow uint64) *FlowTrace {
	ft := r.flows[flow]
	if ft == nil {
		ft = &FlowTrace{ID: flow}
		r.flows[flow] = ft
	}
	return ft
}

// FlowMeta registers a flow's identity before it runs, so summaries
// carry src/dst/size even for flows that never complete.
func (r *Recorder) FlowMeta(flow uint64, src, dst string, size, startNs int64) {
	ft := r.ensure(flow)
	ft.Src, ft.Dst = src, dst
	ft.Size, ft.StartNs = size, startNs
}

// Sent observes a data packet leaving its source host. A fresh
// emission of sequence 0 restarts path capture: a retransmitted first
// packet must not append onto a partially captured path.
func (r *Recorder) Sent(flow uint64, seq int64) {
	if seq != 0 {
		return
	}
	ft := r.ensure(flow)
	if !ft.sealed {
		ft.Path = ft.Path[:0]
	}
}

// Hop observes a data packet arriving at a switch. Only the flow's
// first packet (sequence 0) defines the recorded path.
func (r *Recorder) Hop(flow uint64, seq int64, sw string) {
	if seq != 0 {
		return
	}
	ft := r.ensure(flow)
	if !ft.sealed {
		ft.Path = append(ft.Path, sw)
	}
}

// Delivered observes a data packet reaching its destination host:
// hops is the fabric hop count the packet's TTL witnessed, queueNs the
// queueing delay it accumulated across its path.
func (r *Recorder) Delivered(flow uint64, seq int64, hops int, queueNs int64) {
	ft := r.ensure(flow)
	ft.Pkts++
	ft.QueueNs += queueNs
	if seq == 0 && !ft.sealed {
		ft.Hops = hops
		ft.sealed = true
	}
}

// Done records a flow's completion time.
func (r *Recorder) Done(flow uint64, fctNs int64) {
	r.ensure(flow).FctNs = fctNs
}

// Decision records one forwarding decision. Rank slices are copied;
// callers may pass scratch storage. No-op below the decisions level.
func (r *Recorder) Decision(at int64, flow uint64, sw, kind string, port int, rank []float64, runnerPort int, runnerRank []float64, era, pid uint8) {
	if r.level != Decisions {
		return
	}
	var d *Decision
	if r.ringCap > 0 && len(r.decisions) == r.ringCap {
		d = &r.decisions[r.head]
		r.head++
		if r.head == r.ringCap {
			r.head = 0
		}
		r.dropped++
	} else {
		r.decisions = append(r.decisions, Decision{})
		d = &r.decisions[len(r.decisions)-1]
	}
	d.At, d.Flow, d.Switch, d.Kind = at, flow, sw, kind
	d.Port = port
	d.Rank = append(d.Rank[:0], rank...)
	d.RunnerPort = runnerPort
	d.RunnerRank = append(d.RunnerRank[:0], runnerRank...)
	d.Era, d.Pid = era, pid

	ft := r.ensure(flow)
	ft.Decisions++
	if runnerPort >= 0 && runnerPort != port {
		ft.Divergent++
	}
}

// Totals summarizes the recorder for result encoding: traced flows,
// recorded decisions (including any the ring cap dropped), and how
// many of those had a divergent runner-up.
func (r *Recorder) Totals() (flows, decisions, divergent int64) {
	decisions = int64(len(r.decisions)) + r.dropped
	for _, ft := range r.flows {
		flows++
		divergent += ft.Divergent
	}
	return flows, decisions, divergent
}

// Flow returns one flow's summary, nil when the flow was never seen.
func (r *Recorder) Flow(id uint64) *FlowTrace { return r.flows[id] }

// Flows returns every flow summary sorted by flow id (the emission
// order, and the deterministic order counterfactual selection ranks
// over).
func (r *Recorder) Flows() []*FlowTrace {
	out := make([]*FlowTrace, 0, len(r.flows))
	for _, ft := range r.flows {
		out = append(out, ft)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// decisionLine / flowLine fix the JSONL schema: every line carries a
// "type" discriminator first.
type decisionLine struct {
	Type string `json:"type"`
	Decision
}

type flowLine struct {
	Type      string   `json:"type"`
	Flow      uint64   `json:"flow"`
	Src       string   `json:"src,omitempty"`
	Dst       string   `json:"dst,omitempty"`
	SizeBytes int64    `json:"size_bytes,omitempty"`
	StartNs   int64    `json:"start_ns"`
	FctNs     int64    `json:"fct_ns,omitempty"`
	Hops      int      `json:"hops"`
	Path      []string `json:"path,omitempty"`
	QueueNs   int64    `json:"queue_ns"`
	Pkts      int64    `json:"pkts"`
	Decisions int64    `json:"decisions"`
	Divergent int64    `json:"divergent"`
}

// WriteJSONL emits the trace: decision lines in record order (the
// simulator is deterministic, so record order is reproducible), then
// one flow summary line per flow sorted by id. The output is a pure
// function of the simulated scenario: tracing the same seed twice
// yields byte-identical JSONL.
func (r *Recorder) WriteJSONL(w io.Writer) error {
	enc := json.NewEncoder(w)
	emit := func(i int) error { return enc.Encode(decisionLine{Type: "decision", Decision: r.decisions[i]}) }
	if r.ringCap > 0 && r.dropped > 0 {
		// The ring has wrapped: oldest surviving record first.
		for i := r.head; i < len(r.decisions); i++ {
			if err := emit(i); err != nil {
				return err
			}
		}
		for i := 0; i < r.head; i++ {
			if err := emit(i); err != nil {
				return err
			}
		}
	} else {
		for i := range r.decisions {
			if err := emit(i); err != nil {
				return err
			}
		}
	}
	for _, ft := range r.Flows() {
		if err := enc.Encode(flowLine{
			Type: "flow", Flow: ft.ID, Src: ft.Src, Dst: ft.Dst,
			SizeBytes: ft.Size, StartNs: ft.StartNs, FctNs: ft.FctNs,
			Hops: ft.Hops, Path: ft.Path, QueueNs: ft.QueueNs,
			Pkts: ft.Pkts, Decisions: ft.Decisions, Divergent: ft.Divergent,
		}); err != nil {
			return err
		}
	}
	return nil
}

// Check validates a trace stream and returns a one-line summary. Every
// line must be exactly what WriteJSONL encodes for its type
// (jsonl.Canonical on decisionLine and flowLine, which also bounds era
// and pid to uint8) and pass the value rules below; a trace is written
// whole, so nothing torn is forgiven. No decision lines is fine (a
// flows-level trace); no lines at all means a broken producer.
func Check(r io.Reader) (summary string, err error) {
	decisions, flows := 0, 0
	_, err = jsonl.Scan(r, jsonl.Strict, func(_ int, raw []byte) error {
		typ, err := jsonl.Type(raw)
		if err != nil {
			return err
		}
		switch typ {
		case "decision":
			var d decisionLine
			if err := jsonl.Canonical(raw, &d); err != nil {
				return err
			}
			decisions++
			return d.check()
		case "flow":
			var f flowLine
			if err := jsonl.Canonical(raw, &f); err != nil {
				return err
			}
			flows++
			return f.check()
		}
		return fmt.Errorf("unknown type %q", typ)
	})
	if err != nil {
		return "", fmt.Errorf("trace: %w", err)
	}
	if decisions+flows == 0 {
		return "", fmt.Errorf("trace: no trace lines")
	}
	return fmt.Sprintf("%d decision line(s), %d flow line(s)", decisions, flows), nil
}

func (d *Decision) check() error {
	switch {
	case d.At < 0:
		return fmt.Errorf("decision needs at_ns >= 0")
	case d.Switch == "":
		return fmt.Errorf("decision needs switch")
	case d.Kind != "source" && d.Kind != "transit":
		return fmt.Errorf("decision kind %q not in {source, transit}", d.Kind)
	case d.Port < 0:
		return fmt.Errorf("decision needs port >= 0")
	case len(d.Rank) == 0:
		return fmt.Errorf("decision needs a rank vector")
	case d.RunnerPort < -1:
		return fmt.Errorf("decision needs runner_port >= -1")
	case d.RunnerPort == -1 && len(d.RunnerRank) != 0:
		return fmt.Errorf("runner_rank present without a runner_port")
	case d.RunnerPort >= 0 && len(d.RunnerRank) == 0:
		return fmt.Errorf("runner_port %d without runner_rank", d.RunnerPort)
	}
	return nil
}

func (f *flowLine) check() error {
	switch {
	case f.StartNs < 0:
		return fmt.Errorf("flow line needs start_ns >= 0")
	case f.FctNs < 0:
		return fmt.Errorf("flow fct_ns negative")
	case f.Hops < 0 || f.Pkts < 0 || f.QueueNs < 0:
		return fmt.Errorf("flow counters negative")
	case f.Divergent > f.Decisions:
		return fmt.Errorf("divergent %d exceeds decisions %d", f.Divergent, f.Decisions)
	case f.FctNs > 0 && len(f.Path) == 0:
		return fmt.Errorf("completed flow carries no path")
	case f.Hops > 0 && len(f.Path) > f.Hops+1:
		return fmt.Errorf("path longer than hop count allows")
	}
	return nil
}
