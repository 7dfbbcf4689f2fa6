package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one harness-side interval around a public call into a layer.
// Parent is the index of the enclosing span in the log (-1 at top
// level); Op groups the spans of one op (0 is set-up and warm-up).
type span struct {
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	Parent  int    `json:"parent"`
	Op      int    `json:"op"`
}

// spanLog keeps spans in memory until the child exits. A nil *spanLog
// records nothing, which is how the untraced pass runs the same code.
// Spans nest by call order, so the harness opens and closes them on
// one goroutine; the lock only guards against a stray concurrent use.
type spanLog struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
	open  []int
	op    int
}

func newSpanLog() *spanLog { return &spanLog{t0: time.Now()} }

// begin opens a span and returns the function that closes it.
func (l *spanLog) begin(name string) func() {
	if l == nil {
		return func() {}
	}
	l.mu.Lock()
	parent := -1
	if n := len(l.open); n > 0 {
		parent = l.open[n-1]
	}
	id := len(l.spans)
	l.spans = append(l.spans, span{Name: name, StartNs: time.Since(l.t0).Nanoseconds(), Parent: parent, Op: l.op})
	l.open = append(l.open, id)
	l.mu.Unlock()
	return func() {
		l.mu.Lock()
		l.spans[id].EndNs = time.Since(l.t0).Nanoseconds()
		for i := len(l.open) - 1; i >= 0; i-- {
			if l.open[i] == id {
				l.open = append(l.open[:i], l.open[i+1:]...)
				break
			}
		}
		l.mu.Unlock()
	}
}

func (l *spanLog) setOp(op int) {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.op = op
	l.mu.Unlock()
}

// selfTimes returns, per op and span name, the summed self time in
// nanoseconds: each span's duration minus the durations of its direct
// children (children of one span never overlap — see spanLog).
func selfTimes(spans []span) map[int]map[string]int64 {
	child := make([]int64, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.EndNs - s.StartNs
		}
	}
	out := map[int]map[string]int64{}
	for i, s := range spans {
		m := out[s.Op]
		if m == nil {
			m = map[string]int64{}
			out[s.Op] = m
		}
		m[s.Name] += s.EndNs - s.StartNs - child[i]
	}
	return out
}

// write flushes the log as JSONL.
func (l *spanLog) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range l.spans {
		if err := enc.Encode(&l.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
