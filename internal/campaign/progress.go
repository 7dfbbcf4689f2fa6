package campaign

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"time"
)

// Meter renders a live campaign progress line: cells completed/total,
// elapsed wall time, an ETA from a moving average of per-cell wall
// times, and the names of the longest-running in-flight cells (the
// stragglers that decide when the campaign actually finishes).
//
// Wire Started and Completed into Options.Started and Options.Progress;
// Stream serializes both under one lock, so the Meter piggybacks on
// completion events instead of running a ticker goroutine of its own.
// Lines are rate-limited to one per Every except the final cell, which
// always prints. Output goes to stderr in the CLIs, so it never touches
// the deterministic result streams.
type Meter struct {
	// Every is the minimum interval between printed lines (default 2s).
	Every time.Duration

	mu       sync.Mutex
	w        io.Writer
	total    int
	done     int
	failed   int
	start    time.Time
	last     time.Time
	inflight map[string]time.Time
	avgNs    float64 // exponential moving average of per-cell wall time
	cells    int     // completions folded into avgNs
	now      func() time.Time
}

// NewMeter returns a Meter writing progress lines to w for a campaign
// of total cells.
func NewMeter(w io.Writer, total int) *Meter {
	return &Meter{
		Every:    2 * time.Second,
		w:        w,
		total:    total,
		inflight: make(map[string]time.Time),
		now:      time.Now,
	}
}

// Started records a cell entering a worker (Options.Started).
func (m *Meter) Started(j *Job) {
	m.mu.Lock()
	defer m.mu.Unlock()
	t := m.now()
	if m.start.IsZero() {
		m.start = t
	}
	m.inflight[j.Scenario.Name] = t
}

// Completed records a finished cell and prints a progress line if one
// is due (Options.Progress).
func (m *Meter) Completed(done, total int, o *Outcome) {
	m.mu.Lock()
	defer m.mu.Unlock()
	t := m.now()
	if begun, ok := m.inflight[o.Scenario.Name]; ok {
		delete(m.inflight, o.Scenario.Name)
		// EMA with alpha 0.25: recent cells dominate, so the ETA adapts
		// when a sweep crosses from cheap cells into expensive ones.
		d := float64(t.Sub(begun))
		if m.cells == 0 {
			m.avgNs = d
		} else {
			m.avgNs += 0.25 * (d - m.avgNs)
		}
		m.cells++
	}
	m.done = done
	m.total = total
	if o.Err != "" {
		m.failed++
	}
	if done == total || m.last.IsZero() || t.Sub(m.last) >= m.every() {
		m.last = t
		fmt.Fprintln(m.w, m.line(t))
	}
}

func (m *Meter) every() time.Duration {
	if m.Every > 0 {
		return m.Every
	}
	return 2 * time.Second
}

// line renders one progress line at time t. Callers hold mu.
func (m *Meter) line(t time.Time) string {
	var b strings.Builder
	fmt.Fprintf(&b, "progress: %d/%d cells", m.done, m.total)
	if m.failed > 0 {
		fmt.Fprintf(&b, " (%d failed)", m.failed)
	}
	fmt.Fprintf(&b, ", elapsed %s", fmtDur(t.Sub(m.start)))
	if remaining := m.total - m.done; remaining > 0 && m.cells > 0 {
		// The pool keeps len(inflight) cells moving at once, so the
		// serial moving-average estimate divides by that parallelism.
		par := len(m.inflight)
		if par < 1 {
			par = 1
		}
		eta := time.Duration(m.avgNs * float64(remaining) / float64(par))
		fmt.Fprintf(&b, ", eta ~%s", fmtDur(eta))
	}
	if s := m.stragglers(t); s != "" {
		fmt.Fprintf(&b, ", running: %s", s)
	}
	return b.String()
}

// stragglers names the longest-running in-flight cells, oldest first,
// capped at three.
func (m *Meter) stragglers(t time.Time) string {
	if len(m.inflight) == 0 {
		return ""
	}
	type cell struct {
		name  string
		begun time.Time
	}
	cells := make([]cell, 0, len(m.inflight))
	for name, begun := range m.inflight {
		cells = append(cells, cell{name, begun})
	}
	sort.Slice(cells, func(i, j int) bool {
		if !cells[i].begun.Equal(cells[j].begun) {
			return cells[i].begun.Before(cells[j].begun)
		}
		return cells[i].name < cells[j].name
	})
	shown := cells
	if len(shown) > 3 {
		shown = shown[:3]
	}
	parts := make([]string, len(shown))
	for i, c := range shown {
		parts[i] = fmt.Sprintf("%s (%s)", c.name, fmtDur(t.Sub(c.begun)))
	}
	if extra := len(cells) - len(shown); extra > 0 {
		parts = append(parts, fmt.Sprintf("+%d more", extra))
	}
	return strings.Join(parts, ", ")
}

// fmtDur renders a duration at progress-line precision: tenths of a
// second under a minute, whole seconds beyond.
func fmtDur(d time.Duration) string {
	if d < 0 {
		d = 0
	}
	if d < time.Minute {
		return d.Round(100 * time.Millisecond).String()
	}
	return d.Round(time.Second).String()
}
