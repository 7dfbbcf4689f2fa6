package dist

import (
	"bytes"
	"fmt"
	"strings"
	"sync"

	"contra/internal/jsonl"
)

// Checkpoint is the resume journal of a sharded campaign run: one
// canonical scenario key (scenario.Key) per line, appended after the
// scenario's record reaches the sink. On restart the runner skips
// every checkpointed key, so interrupting a week-long sweep costs at
// most the scenarios that were in flight.
//
// Crash ordering: the record is emitted first, the key marked second.
// A crash between the two leaves the record without its mark; the
// scenario re-runs on resume and Merge deduplicates the identical
// records by key. A torn trailing key line (crash mid-Mark) is
// truncated away on open, and a torn line *inside* the file — a crash
// during a concurrent append, with valid records written after it —
// is skipped rather than fatal: the garbled line's key(s) simply
// re-run, which at-least-once execution already tolerates.
type Checkpoint struct {
	mu      sync.Mutex
	a       *jsonl.Appender
	done    map[string]bool
	garbled int
}

// OpenCheckpoint opens (or creates) a checkpoint file and loads the
// completed key set from its complete lines.
func OpenCheckpoint(path string) (*Checkpoint, error) {
	f, err := openSealed(path)
	if err != nil {
		return nil, err
	}
	c := &Checkpoint{a: jsonl.NewAppender(f), done: make(map[string]bool)}
	_, err = jsonl.Scan(f, jsonl.TornTail, func(_ int, raw []byte) error {
		if validKeyLine(raw) {
			c.done[string(raw)] = true
		} else {
			// A torn line from a crashed concurrent append — possibly
			// fused with the valid line written after it. The fused
			// key(s) cannot be separated reliably, so drop the line;
			// its scenarios re-run and Merge dedups the records.
			c.garbled++
		}
		return nil
	})
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("dist: checkpoint %s: %w", path, err)
	}
	return c, nil
}

// validKeyLine reports whether line has the shape of one canonical
// scenario key: name '#' followed by exactly 16 hex digits at the end
// (scenario.Key's format). A torn fragment, or a fragment fused with
// the line appended after it, fails the check — except when the fusion
// happens to end in a well-formed key, in which case the fused line is
// kept as an inert entry that matches no real key (Done never returns
// true for it) and the affected scenarios re-run.
func validKeyLine(line []byte) bool {
	i := bytes.LastIndexByte(line, '#')
	if i < 1 || len(line)-i-1 != 16 {
		return false
	}
	for _, c := range line[i+1:] {
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// Garbled returns how many unparseable (torn or fused) lines the open
// skipped.
func (c *Checkpoint) Garbled() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.garbled
}

// Retain drops (in memory) every checkpointed key the predicate does
// not vouch for, returning how many were dropped. Resume paths call it
// with "does the stream file hold this key's record": the checkpoint
// and the stream are separate files with no write-ordering guarantee
// between their page-cache flushes, so after a power loss a key can be
// durable while its record is not — the scenario must then re-run
// rather than be skipped with its result lost. The file keeps the
// stale line; re-marking after the re-run is a no-op in the file's
// semantics (the key set is a set).
func (c *Checkpoint) Retain(present func(key string) bool) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	dropped := 0
	for key := range c.done {
		if !present(key) {
			delete(c.done, key)
			dropped++
		}
	}
	return dropped
}

// Done reports whether key has been checkpointed.
func (c *Checkpoint) Done(key string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.done[key]
}

// Len returns the number of checkpointed keys.
func (c *Checkpoint) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.done)
}

// Mark records key as completed, appending it to the file in a single
// write so a crash tears at most this one line.
func (c *Checkpoint) Mark(key string) error {
	if strings.ContainsAny(key, "\n\r") {
		return fmt.Errorf("dist: checkpoint key %q contains a newline", key)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.done[key] {
		return nil
	}
	if err := c.a.Append([]byte(key)); err != nil {
		return err
	}
	c.done[key] = true
	return nil
}

// Close closes the underlying file.
func (c *Checkpoint) Close() error { return c.a.Close() }
