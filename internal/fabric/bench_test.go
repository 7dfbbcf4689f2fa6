package fabric

import (
	"io"
	"testing"
	"time"

	"contra/internal/dist"
)

// benchCoordinator builds a coordinator with one live lease held by
// "w1", on a fake clock so nothing ever expires mid-benchmark.
func benchCoordinator(b *testing.B) (*Coordinator, *Grant) {
	b.Helper()
	clk := newFakeClock()
	c, err := New(coordSpec(), dist.NewJSONLSink(io.Discard), nil, Options{
		LeaseTTL: time.Hour, Clock: clk.Now,
	})
	if err != nil {
		b.Fatal(err)
	}
	g, done := c.Lease("w1")
	if done || g == nil {
		b.Fatal("no grant")
	}
	return c, g
}

// BenchmarkFabricHeartbeat is the steady-state lease path;
// TestHeartbeatAllocatesNothing pins it at zero allocations per op.
func BenchmarkFabricHeartbeat(b *testing.B) {
	c, g := benchCoordinator(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !c.Heartbeat("w1", g.LeaseID) {
			b.Fatal("lease lost")
		}
	}
}

// BenchmarkFabricStatus is the read-only snapshot; it must never touch
// lease state.
func BenchmarkFabricStatus(b *testing.B) {
	c, _ := benchCoordinator(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st := c.Status()
		if st.ActiveLeases != 1 {
			b.Fatal("lease lost")
		}
	}
}
