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
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"

	"contra/internal/cliutil"
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
// version-1 meta record, every following line a flow, and the flow
// count must match the meta's declaration. Any deviation is an error —
// a trace is replay input, and replaying a damaged trace would run a
// different experiment than the one recorded.
func Read(r io.Reader) (*Trace, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	if !sc.Scan() {
		if err := sc.Err(); err != nil {
			return nil, err
		}
		return nil, fmt.Errorf("flowtrace: empty trace")
	}
	var meta Meta
	if err := json.Unmarshal(sc.Bytes(), &meta); err != nil {
		return nil, fmt.Errorf("flowtrace: bad meta line: %v", err)
	}
	if meta.Type != "meta" {
		return nil, fmt.Errorf("flowtrace: first line has type %q, want \"meta\"", meta.Type)
	}
	if meta.V != Version {
		return nil, fmt.Errorf("flowtrace: unsupported trace version %d (this build reads v%d)", meta.V, Version)
	}
	switch meta.Kind {
	case KindFCT, KindCBR, KindCohorts:
	default:
		return nil, fmt.Errorf("flowtrace: unknown workload kind %q in meta", meta.Kind)
	}
	t := &Trace{Meta: meta}
	// The declared count sizes the slice only up to a bound: until the
	// lines arrive it is a claim, and a corrupt one must not be able to
	// demand the memory (or overflow the allocation and panic).
	if n := min(meta.Flows, 1<<16); n > 0 {
		t.Flows = make([]Flow, 0, n)
	}
	line := 1
	for sc.Scan() {
		line++
		var f Flow
		if err := json.Unmarshal(sc.Bytes(), &f); err != nil {
			return nil, fmt.Errorf("flowtrace: line %d: %v", line, err)
		}
		if f.Type != "flow" {
			return nil, fmt.Errorf("flowtrace: line %d has type %q, want \"flow\"", line, f.Type)
		}
		if f.ID == 0 {
			return nil, fmt.Errorf("flowtrace: line %d: flow id 0 is reserved", line)
		}
		if f.Src == "" || f.Dst == "" {
			return nil, fmt.Errorf("flowtrace: line %d: flow needs src and dst", line)
		}
		if f.Bytes <= 0 && f.RateBps <= 0 {
			return nil, fmt.Errorf("flowtrace: line %d: flow needs bytes or rate_bps", line)
		}
		t.Flows = append(t.Flows, f)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(t.Flows) != meta.Flows {
		return nil, fmt.Errorf("flowtrace: trace is torn: meta declares %d flows, file carries %d", meta.Flows, len(t.Flows))
	}
	return t, nil
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
