// Package jsonl is the one place that knows how the repo's
// line-oriented artifacts are framed: how a stream is cut into lines
// (Scan), how a line is appended so that a crash tears at most the last
// one (Appender, Seal), and what "exactly what our writer produces"
// means (Canonical). What a line holds stays with the package that owns
// the format: its reader decodes into the writer's own types inside the
// Scan callback and applies its rules there, so a format has one
// description and its reader is its validator (cmd/contracheck is the
// command line over those readers).
//
// A line ends at '\n'; surrounding white space is trimmed; blank lines
// are skipped but counted, so errors name the 1-based line an editor
// shows; a line longer than MaxLine is an error. How a reader treats a
// damaged tail is fixed per format, by how the file comes to exist:
//
//	stream           reader                tolerance
//	flow trace       flowtrace.Read        Strict
//	decision trace   trace.Check           Strict
//	telemetry        metrics.Check         Strict
//	record stream    dist.ReadRecords      TornTail
//	checkpoint       dist.OpenCheckpoint   TornTail, sealed on open
//
// The first three are written whole, to a temp file renamed into place,
// so damage is never the trace of a crash (and a shortened flow trace
// would replay a different experiment). The last two are appended a
// line per Write by a process that may be killed, and are read back
// from whatever prefix reached the disk. A checkpoint is Sealed before
// use; its lines are bare keys, and an inner line that is not one — a
// fragment fused with the append after a crash — is skipped and counted
// (Checkpoint.Garbled), since re-running a cell is always safe.
package jsonl

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// Tolerance is what Scan does with a final line that has no '\n'.
type Tolerance uint8

const (
	// Strict treats every line alike: an error from fn is an error.
	Strict Tolerance = iota
	// TornTail drops an unterminated final line fn rejects — the mark
	// of a writer killed mid-Write — and reports it as torn. One that
	// fn accepts is kept: the tear fell between '}' and '\n'.
	TornTail
)

// MaxLine bounds one line, far past the longest the writers produce (a
// meta line naming every link or campaign cell), so that a stream with
// no newline is not buffered whole.
const MaxLine = 64 << 20

// Scan calls fn for each non-blank line of r with its 1-based line
// number. raw is trimmed and only valid during the call. An error from
// fn stops the scan and comes back as "line N: err"; torn reports that
// tol let an unusable final line go.
func Scan(r io.Reader, tol Tolerance, fn func(line int, raw []byte) error) (torn bool, err error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), MaxLine)
	last := false // the line in hand has no '\n': it is the final one
	sc.Split(func(data []byte, atEOF bool) (int, []byte, error) {
		if i := bytes.IndexByte(data, '\n'); i >= 0 {
			return i + 1, data[:i], nil
		}
		if last = atEOF && len(data) > 0; last {
			return len(data), data, nil
		}
		return 0, nil, nil // read on
	})
	line := 0
	for sc.Scan() {
		line++
		if raw := bytes.TrimSpace(sc.Bytes()); len(raw) > 0 {
			if err := fn(line, raw); err != nil {
				if torn = last && tol == TornTail; !torn {
					return false, fmt.Errorf("line %d: %w", line, err)
				}
			}
		}
	}
	if err := sc.Err(); err != nil { // a read error, or bufio.ErrTooLong past MaxLine
		return false, fmt.Errorf("line %d: %w", line+1, err)
	}
	return torn, nil
}

// Type returns a line's "type" discriminator, "" when it has none.
func Type(raw []byte) (string, error) {
	var head struct {
		Type string `json:"type"`
	}
	if err := json.Unmarshal(raw, &head); err != nil {
		return "", fmt.Errorf("not a JSON object: %v", err)
	}
	return head.Type, nil
}

// Canonical decodes raw into v, a pointer to the struct the format's
// writer encodes, and requires raw to be byte for byte what encoding v
// again gives. That one rule stands in for a list of required keys: a
// missing, misspelt, repeated, reordered or unknown field, a zero where
// the writer omits the key and a number in another spelling all fail
// it, with no field named anywhere but in its struct. It suits formats
// only this repo writes; the flow trace, which others may write, is
// held to its reader's rules instead.
func Canonical(raw []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	again, err := json.Marshal(v)
	if err != nil {
		return err
	}
	if !bytes.Equal(again, raw) {
		i := 0
		for i < len(raw) && i < len(again) && raw[i] == again[i] {
			i++
		}
		return fmt.Errorf("not the writer's encoding of a %T line: byte %d starts %q where the writer puts %q",
			v, i, clip(raw[i:]), clip(again[i:]))
	}
	return nil
}

// clip shortens b for an error message.
func clip(b []byte) []byte { return b[:min(len(b), 32)] }

// Appender appends lines to w, each as one Write of line plus '\n', so
// a crash tears at most the final line — which TornTail and Seal put
// right. The first failed Write is latched: it may have left a fragment
// that the next line would fuse with, so every later Append fails the
// same way. Callers serialize Append.
type Appender struct {
	w   io.Writer
	buf []byte
	err error
}

// NewAppender appends to w.
func NewAppender(w io.Writer) *Appender { return &Appender{w: w} }

// Append writes one line. line must not contain '\n'.
func (a *Appender) Append(line []byte) error {
	if a.err != nil {
		return a.err
	}
	a.buf = append(append(a.buf[:0], line...), '\n')
	_, a.err = a.w.Write(a.buf)
	return a.err
}

// Close closes w when it is an io.Closer and returns the latched write
// error, if any, ahead of the close error.
func (a *Appender) Close() error {
	var cerr error
	if c, ok := a.w.(io.Closer); ok {
		cerr = c.Close()
	}
	if a.err != nil {
		return a.err
	}
	return cerr
}

// Seal truncates f back to its last complete ('\n'-terminated) line,
// dropping the fragment a mid-Write crash left at the end.
func Seal(f *os.File) error {
	info, err := f.Stat()
	if err != nil {
		return err
	}
	if info.Size() == 0 {
		return nil
	}
	// Walk back from the end in chunks until a newline is found.
	const chunk = 64 << 10
	buf := make([]byte, chunk)
	for end := info.Size(); end > 0; {
		n := min(int64(chunk), end)
		if _, err := f.ReadAt(buf[:n], end-n); err != nil {
			return err
		}
		if i := bytes.LastIndexByte(buf[:n], '\n'); i >= 0 {
			return f.Truncate(end - n + int64(i) + 1)
		}
		end -= n
	}
	return f.Truncate(0) // no newline at all: the whole file is one torn line
}
