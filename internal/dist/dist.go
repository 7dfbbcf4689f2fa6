// Package dist scales campaign execution beyond one process: it
// partitions a campaign.Spec into deterministic shards, streams each
// completed outcome as a JSONL record through a Sink instead of
// accumulating a report in memory, checkpoints completed scenario keys
// to disk so an interrupted sweep resumes without re-running finished
// work, and merges per-shard record files back into output that is
// byte-identical to a single-process run.
//
// The moving parts compose around campaign.Stream:
//
//	shard 0:  contracamp run -spec s.json -shard 0/2 -stream a.jsonl -checkpoint a.ck
//	shard 1:  contracamp run -spec s.json -shard 1/2 -stream b.jsonl -checkpoint b.ck
//	merge:    contracamp merge -out merged.json -csv merged.csv a.jsonl b.jsonl
//
// Determinism contract: scenario execution is a pure function of the
// scenario, shard membership is a pure function of the expansion
// index, and Merge orders records by expansion index — so shard
// count, worker count, completion order, and crash/resume cycles are
// all invisible in the merged output.
package dist

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"sync"

	"contra/internal/jsonl"
	"contra/internal/scenario"
)

// Shard selects every Total-th expanded scenario, starting at Index:
// scenario i belongs to shard (i mod Total). Index is zero-based. The
// zero value (normalized by ParseShard and Owns) means "everything".
type Shard struct {
	Index int
	Total int
}

// ParseShard parses the CLI form "i/N" with 0 <= i < N; the empty
// string means the whole campaign (0/1).
func ParseShard(s string) (Shard, error) {
	if s == "" {
		return Shard{0, 1}, nil
	}
	idx, tot, ok := strings.Cut(s, "/")
	if !ok {
		return Shard{}, fmt.Errorf("dist: shard %q is not of the form i/N", s)
	}
	var sh Shard
	var err error
	if sh.Index, err = strconv.Atoi(idx); err != nil {
		return Shard{}, fmt.Errorf("dist: shard %q is not of the form i/N", s)
	}
	if sh.Total, err = strconv.Atoi(tot); err != nil {
		return Shard{}, fmt.Errorf("dist: shard %q is not of the form i/N", s)
	}
	if sh.Total < 1 || sh.Index < 0 || sh.Index >= sh.Total {
		return Shard{}, fmt.Errorf("dist: shard %q needs 0 <= i < N", s)
	}
	return sh, nil
}

// String renders the CLI form.
func (s Shard) String() string { return fmt.Sprintf("%d/%d", s.Index, s.Total) }

// Owns reports whether expansion index i belongs to this shard. The
// striped (mod) partition interleaves the matrix axes across shards,
// so every shard sees a similar mix of cheap and expensive scenarios
// rather than one shard drawing all the big-topology cells.
func (s Shard) Owns(i int) bool {
	if s.Total <= 1 {
		return true
	}
	return i%s.Total == s.Index
}

// Record is one streamed outcome: the scenario's canonical key and
// expansion index (the merge sort key), the scenario itself (so a
// merged report can rebuild CSV rows and comparison tables without
// the spec), and the result or error.
type Record struct {
	Campaign string             `json:"campaign,omitempty"`
	Key      string             `json:"key"`
	Index    int                `json:"index"`
	Scenario *scenario.Scenario `json:"scenario"`
	Result   *scenario.Result   `json:"result,omitempty"`
	Err      string             `json:"error,omitempty"`
}

// Sink consumes streamed records. Emit is never called concurrently
// (campaign.Stream serializes emission), so implementations need no
// locking for that path; JSONLSink still locks so ad-hoc Go callers
// can share one.
type Sink interface {
	Emit(*Record) error
	Close() error
}

// JSONLSink writes one record per line through a jsonl.Appender: a
// crash tears at most the final line of the file, which ReadRecords and
// the append-mode opener tolerate.
type JSONLSink struct {
	mu sync.Mutex
	a  *jsonl.Appender
}

// NewJSONLSink streams records to w.
func NewJSONLSink(w io.Writer) *JSONLSink {
	return &JSONLSink{a: jsonl.NewAppender(w)}
}

// CreateJSONL opens a record stream file. With resume set, the file is
// opened for append, first truncating any torn trailing line a crashed
// run left behind (the record was incomplete, so its scenario was
// never checkpointed and will re-run); otherwise the file is created
// fresh.
func CreateJSONL(path string, resume bool) (*JSONLSink, error) {
	if !resume {
		f, err := os.Create(path)
		if err != nil {
			return nil, err
		}
		return NewJSONLSink(f), nil
	}
	f, err := openSealed(path)
	if err != nil {
		return nil, err
	}
	return NewJSONLSink(f), nil
}

// openSealed opens (or creates) an append-only line file for resume:
// sealed back to its last complete line, positioned at the start for
// reading. O_APPEND puts every write at the end wherever reads leave
// the offset.
func openSealed(path string) (*os.File, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	if err := jsonl.Seal(f); err != nil {
		f.Close()
		return nil, err
	}
	return f, nil
}

// Emit writes one record line.
func (s *JSONLSink) Emit(rec *Record) error {
	b, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("dist: encode record %s: %v", rec.Key, err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.a.Append(b)
}

// Close closes the underlying writer when it is closable.
func (s *JSONLSink) Close() error { return s.a.Close() }

// ReadRecords decodes a JSONL record stream. A torn final line (no
// trailing newline — the signature of a crashed writer) is dropped;
// corruption anywhere else is an error, not a silent skip. Each line
// decodes once, into the type JSONLSink.Emit encodes.
func ReadRecords(r io.Reader) ([]Record, error) {
	var recs []Record
	_, err := jsonl.Scan(r, jsonl.TornTail, func(_ int, raw []byte) error {
		var rec Record
		if err := json.Unmarshal(raw, &rec); err != nil {
			return err
		}
		recs = append(recs, rec)
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("dist: record %w", err)
	}
	return recs, nil
}

// StreamKeys returns the set of record keys a stream file holds; a
// missing file is an empty set. Resume paths use it to cross-check the
// checkpoint (Checkpoint.Retain): only a key whose record actually
// reached the stream may be skipped.
func StreamKeys(path string) (map[string]bool, error) {
	recs, err := ReadRecordsFile(path)
	if os.IsNotExist(err) {
		return map[string]bool{}, nil
	}
	if err != nil {
		return nil, err
	}
	keys := make(map[string]bool, len(recs))
	for i := range recs {
		keys[recs[i].Key] = true
	}
	return keys, nil
}

// ReadRecordsFile reads a JSONL record stream from disk.
func ReadRecordsFile(path string) ([]Record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	recs, err := ReadRecords(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %v", path, err)
	}
	return recs, nil
}
