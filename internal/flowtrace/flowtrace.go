// Package flowtrace defines the versioned flow-trace format: a JSONL
// file whose first line is a meta record (format version, workload
// kind, topology, seed, rate knobs, flow count) and whose remaining
// lines are the materialized flows in injection order. A trace captures
// exactly what a scenario offered the network, so replaying it through
// the trace workload kind reproduces the original run byte-for-byte.
//
// The normative format spec lives in docs/trace-format.md. Unlike the
// dist record stream (which tolerates a torn final line, because a
// crashed shard must resume from a prefix), a flow trace is replay
// input: Read is strict — wrong version, malformed lines, or a flow
// count that disagrees with the meta line all fail loudly, because a
// silently truncated trace would replay a different experiment.
package flowtrace

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"

	"contra/internal/cliutil"
	"contra/internal/jsonl"
	"contra/internal/sim"
)

// Version is the trace format version this package reads and writes.
const Version = 1

// Workload kinds a trace can record (mirrors the scenario kinds; a
// cohorts trace replays through the same path as an fct trace).
const (
	KindFCT     = "fct"
	KindCBR     = "cbr"
	KindCohorts = "cohorts"
)

// Meta is the first line of a trace file.
type Meta struct {
	Type string `json:"type"` // always "meta"
	V    int    `json:"v"`    // format version
	Kind string `json:"kind"` // fct | cbr | cohorts
	Topo string `json:"topo"` // topology spec the flows were placed on
	Seed int64  `json:"seed"`

	// Key is the scenario.Key of the recording run — provenance that
	// survives renames and lets campaign tooling match a trace back to
	// the exact cell (and checkpoint entry) that produced it.
	Key string `json:"key,omitempty"`

	// Label knobs, carried so a replayed Result reports the original
	// workload's axes (dist/load for fct, rate_bps for cbr).
	Dist    string  `json:"dist,omitempty"`
	Pattern string  `json:"pattern,omitempty"`
	Load    float64 `json:"load,omitempty"`
	RateBps float64 `json:"rate_bps,omitempty"`

	// DeadlineNs is the absolute drain deadline of an fct/cohorts run;
	// EndNs is the absolute end of a cbr run. Exactly one is set, and
	// replay runs to it so simulated time matches the recording.
	DeadlineNs int64 `json:"deadline_ns,omitempty"`
	EndNs      int64 `json:"end_ns,omitempty"`

	// Flows is the number of flow lines that follow; Read enforces it,
	// so a truncated trace cannot silently replay a smaller experiment.
	Flows int `json:"flows"`
}

// Flow is one per-flow line: endpoints by node name (stable across
// process runs, unlike NodeIDs), size or rate, absolute start time,
// and the class label ("base", "surge1", a cohort name, "cbr") that
// attribution reports group by.
type Flow struct {
	Type    string  `json:"type"` // always "flow"
	ID      uint64  `json:"id"`
	Src     string  `json:"src"`
	Dst     string  `json:"dst"`
	Bytes   int64   `json:"bytes,omitempty"`    // fct/cohorts flows
	RateBps float64 `json:"rate_bps,omitempty"` // cbr flows
	StartNs int64   `json:"start_ns"`
	Class   string  `json:"class,omitempty"`
}

// Trace is a parsed trace: the meta line plus every flow in injection
// order. Order is normative — replay must offer flows exactly as
// recorded, and flow IDs must be preserved (class attribution lives in
// their top 32 bits).
type Trace struct {
	Meta  Meta
	Flows []Flow
}

// WriteJSONL writes the trace in the canonical encoding: one meta
// line, then one line per flow, in order. Encoding is deterministic —
// the same Trace always produces identical bytes.
func (t *Trace) WriteJSONL(w io.Writer) error {
	enc := json.NewEncoder(w)
	m := t.Meta
	m.Type = "meta"
	m.V = Version
	m.Flows = len(t.Flows)
	if err := enc.Encode(&m); err != nil {
		return err
	}
	for i := range t.Flows {
		f := t.Flows[i]
		f.Type = "flow"
		if err := enc.Encode(&f); err != nil {
			return err
		}
	}
	return nil
}

// WriteFile writes the trace to path atomically (0644): path holds the
// previous complete trace, if any, until this one is complete.
func (t *Trace) WriteFile(path string) error {
	return cliutil.WriteFileAtomic(path, t.WriteJSONL)
}

// Read parses a trace stream strictly: the first line must be a
// version-1 meta record with the horizon its kind requires, every
// following line a flow of that kind with a fresh id, and the flow
// count must match the meta's declaration. Any deviation is an error —
// a trace is replay input, and replaying a damaged trace would run a
// different experiment than the one recorded. Read is the format's
// normative validator (docs/trace-format.md): a trace may be written by
// hand or by another tool, so it is held to these rules and not to this
// package's exact bytes.
func Read(r io.Reader) (*Trace, error) {
	var t *Trace
	seen := map[uint64]bool{}
	_, err := jsonl.Scan(r, jsonl.Strict, func(_ int, raw []byte) error {
		if t == nil {
			var m Meta
			if err := json.Unmarshal(raw, &m); err != nil {
				return fmt.Errorf("bad meta line: %v", err)
			}
			if err := m.check(); err != nil {
				return err
			}
			t = &Trace{Meta: m}
			// The declared count sizes the slice only up to a bound: until
			// the lines arrive it is a claim, and a corrupt one must not be
			// able to demand the memory (or overflow the allocation and
			// panic).
			if n := min(m.Flows, 1<<16); n > 0 {
				t.Flows = make([]Flow, 0, n)
			}
			return nil
		}
		var f Flow
		if err := json.Unmarshal(raw, &f); err != nil {
			return err
		}
		if err := f.check(t.Meta.Kind); err != nil {
			return err
		}
		if seen[f.ID] {
			return fmt.Errorf("duplicate flow id %d", f.ID)
		}
		seen[f.ID] = true
		t.Flows = append(t.Flows, f)
		return nil
	})
	switch {
	case err != nil:
		return nil, fmt.Errorf("flowtrace: %w", err)
	case t == nil:
		return nil, fmt.Errorf("flowtrace: empty trace")
	case len(t.Flows) != t.Meta.Flows:
		return nil, fmt.Errorf("flowtrace: trace is torn: meta declares %d flows, file carries %d", t.Meta.Flows, len(t.Flows))
	}
	return t, nil
}

func (m *Meta) check() error {
	switch {
	case m.Type != "meta":
		return fmt.Errorf("first line has type %q, want \"meta\"", m.Type)
	case m.V != Version:
		return fmt.Errorf("unsupported trace version %d (this build reads v%d)", m.V, Version)
	case m.Kind != KindFCT && m.Kind != KindCBR && m.Kind != KindCohorts:
		return fmt.Errorf("unknown workload kind %q in meta", m.Kind)
	case m.Topo == "":
		return fmt.Errorf("meta needs topo")
	case m.Flows < 0:
		return fmt.Errorf("meta needs flows >= 0")
	case m.Load < 0 || m.RateBps < 0:
		return fmt.Errorf("meta rate knobs negative")
	case m.Kind == KindCBR && (m.EndNs <= 0 || m.DeadlineNs != 0):
		return fmt.Errorf("cbr meta needs end_ns > 0 and no deadline_ns")
	case m.Kind != KindCBR && (m.DeadlineNs <= 0 || m.EndNs != 0):
		return fmt.Errorf("%s meta needs deadline_ns > 0 and no end_ns", m.Kind)
	}
	return nil
}

func (f *Flow) check(kind string) error {
	switch {
	case f.Type != "flow":
		return fmt.Errorf("type %q, want \"flow\"", f.Type)
	case f.ID == 0:
		return fmt.Errorf("flow id 0 is reserved")
	case f.Src == "" || f.Dst == "":
		return fmt.Errorf("flow needs src and dst")
	case f.StartNs < 0:
		return fmt.Errorf("flow needs start_ns >= 0")
	case f.Bytes < 0 || f.RateBps < 0:
		return fmt.Errorf("flow size knobs negative")
	case f.Bytes > sim.MaxFlowBytes:
		return fmt.Errorf("flow %d: bytes %d past the simulator's %d-byte flow limit", f.ID, f.Bytes, sim.MaxFlowBytes)
	case kind == KindCBR && f.RateBps <= 0:
		return fmt.Errorf("cbr flow needs rate_bps > 0")
	case kind != KindCBR && f.Bytes <= 0:
		return fmt.Errorf("%s flow needs bytes > 0", kind)
	}
	return nil
}

// Check reads a trace and returns a one-line summary: the validation
// behind `contracamp check flow`.
func Check(r io.Reader) (summary string, err error) {
	t, err := Read(r)
	if err != nil {
		return "", err
	}
	return fmt.Sprintf("v%d %s trace on %s: %d flow(s)", t.Meta.V, t.Meta.Kind, t.Meta.Topo, len(t.Flows)), nil
}

// ReadFile parses a trace file.
func ReadFile(path string) (*Trace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	t, err := Read(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return t, nil
}

// FileStem maps a scenario or campaign-cell name to the file stem every
// per-cell artifact is named by: each byte outside [A-Za-z0-9._-]
// becomes '_'. Cell names embed every campaign axis
// (topo/scheme/load/script/seed), so stems stay collision-free within
// one campaign's artifact dir.
func FileStem(name string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '.', r == '_', r == '-':
			return r
		}
		return '_'
	}, name)
}

// FileName is the canonical trace file name used by recording: the
// cell's FileStem plus the ".flow.jsonl" suffix that marks the format.
// It is identical between a recording campaign and its replay twin,
// which is how a replay cell finds its own trace.
func FileName(name string) string { return FileStem(name) + ".flow.jsonl" }
