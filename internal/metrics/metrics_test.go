package metrics

import (
	"bytes"
	"strings"
	"testing"
)

var testCounts = []int64{1, 0}

func sampleOnce(r *Recorder, t int64, util float64) {
	r.BeginSample(t)
	for range r.Links() {
		r.Link(util, 1500, 2)
	}
	r.Drops(testCounts)
	r.EndSample()
}

func newTestRecorder() (*Recorder, *Churn, *Churn) {
	r := NewRecorder(500_000)
	r.RegisterLink("a->b")
	r.RegisterLink("b->a")
	r.RegisterDropReasons([]string{"drop_queue", "drop_linkdown"})
	// Register out of name order: freeze must sort.
	cz := r.RegisterRouter("z")
	ca := r.RegisterRouter("a")
	return r, cz, ca
}

func TestRouterOrderSortedAtFreeze(t *testing.T) {
	r, cz, ca := newTestRecorder()
	cz.Added = 3
	ca.Flaps = 1
	sampleOnce(r, 0, 0.5)
	got := r.Routers()
	if got[0] != "a" || got[1] != "z" {
		t.Fatalf("routers not sorted: %v", got)
	}
	var ticks []Tick
	r.EachSample(func(tk Tick) {
		cp := tk
		cp.Churn = append([]ChurnTick(nil), tk.Churn...)
		ticks = append(ticks, cp)
	})
	if len(ticks) != 1 {
		t.Fatalf("samples = %d, want 1", len(ticks))
	}
	if ticks[0].Churn[0].Flaps != 1 || ticks[0].Churn[1].Added != 3 {
		t.Fatalf("churn not in sorted-router order: %+v", ticks[0].Churn)
	}
}

func TestChurnDeltasBetweenTicks(t *testing.T) {
	r, cz, _ := newTestRecorder()
	cz.Added = 2
	sampleOnce(r, 0, 0)
	cz.Added = 7
	cz.Expired = 1
	sampleOnce(r, 500_000, 0)
	var deltas []ChurnTick
	r.EachSample(func(tk Tick) {
		deltas = append(deltas, tk.Churn[1]) // "z" sorts second
	})
	if deltas[0] != (ChurnTick{Added: 2}) {
		t.Fatalf("tick 0 delta = %+v", deltas[0])
	}
	if deltas[1] != (ChurnTick{Added: 5, Expired: 1}) {
		t.Fatalf("tick 1 delta = %+v", deltas[1])
	}
}

func TestRingWrapKeepsNewestTicks(t *testing.T) {
	r, _, _ := newTestRecorder()
	r.SetSampleCap(3)
	for i := 0; i < 5; i++ {
		sampleOnce(r, int64(i), 0)
	}
	if r.Samples() != 3 || r.Dropped() != 2 {
		t.Fatalf("samples=%d dropped=%d, want 3/2", r.Samples(), r.Dropped())
	}
	var ts []int64
	r.EachSample(func(tk Tick) { ts = append(ts, tk.T) })
	want := []int64{2, 3, 4}
	for i := range want {
		if ts[i] != want[i] {
			t.Fatalf("tick times = %v, want %v", ts, want)
		}
	}
}

func TestWriteJSONLDeterministicAndVersioned(t *testing.T) {
	build := func() *Recorder {
		r, cz, ca := newTestRecorder()
		cz.Added, ca.Flaps = 1, 2
		sampleOnce(r, 0, 0.25)
		sampleOnce(r, 500_000, 0.5)
		return r
	}
	var a, b bytes.Buffer
	if err := build().WriteJSONL(&a); err != nil {
		t.Fatal(err)
	}
	if err := build().WriteJSONL(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("same inputs produced different JSONL bytes")
	}
	lines := strings.Split(strings.TrimSpace(a.String()), "\n")
	if !strings.Contains(lines[0], `"type":"meta"`) || !strings.Contains(lines[0], `"v":1`) {
		t.Fatalf("first line is not a versioned meta line: %s", lines[0])
	}
	// 2 ticks x (2 links + 1 drops + 2 routers) + meta.
	if len(lines) != 1+2*5 {
		t.Fatalf("line count = %d, want %d", len(lines), 1+2*5)
	}
}

func TestZeroAllocSampling(t *testing.T) {
	r, cz, _ := newTestRecorder()
	sampleOnce(r, 0, 0) // freeze + allocate
	allocs := testing.AllocsPerRun(100, func() {
		cz.Added++
		sampleOnce(r, 500_000, 0.5)
	})
	if allocs != 0 {
		t.Fatalf("steady-state sampling allocates: %v allocs/op", allocs)
	}
}
