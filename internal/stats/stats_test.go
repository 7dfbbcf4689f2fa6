package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func almost(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestSummaryBasics(t *testing.T) {
	var s Summary
	if s.Count() != 0 || s.Mean() != 0 || s.Var() != 0 {
		t.Fatalf("zero value not empty: %v", s.String())
	}
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		s.Add(x)
	}
	if s.Count() != 8 {
		t.Fatalf("count = %d, want 8", s.Count())
	}
	if !almost(s.Mean(), 5, 1e-12) {
		t.Fatalf("mean = %v, want 5", s.Mean())
	}
	if s.Min() != 2 || s.Max() != 9 {
		t.Fatalf("min/max = %v/%v, want 2/9", s.Min(), s.Max())
	}
	// Sample variance of that classic dataset is 32/7.
	if !almost(s.Var(), 32.0/7.0, 1e-12) {
		t.Fatalf("var = %v, want %v", s.Var(), 32.0/7.0)
	}
}

func TestSampleQuantiles(t *testing.T) {
	s := NewSample()
	for i := 1; i <= 100; i++ {
		s.Add(float64(i))
	}
	cases := []struct{ q, want float64 }{
		{0, 1}, {1, 100}, {0.5, 50.5}, {0.25, 25.75}, {0.99, 99.01},
	}
	for _, c := range cases {
		if got := s.Quantile(c.q); !almost(got, c.want, 1e-9) {
			t.Errorf("Quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
}

func TestSampleQuantileMonotone(t *testing.T) {
	f := func(xs []float64, qa, qb float64) bool {
		s := NewSample()
		for _, x := range xs {
			if math.IsNaN(x) {
				return true
			}
			s.Add(x)
		}
		qa = math.Abs(math.Mod(qa, 1))
		qb = math.Abs(math.Mod(qb, 1))
		if qa > qb {
			qa, qb = qb, qa
		}
		return s.Quantile(qa) <= s.Quantile(qb)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestReservoirBounded(t *testing.T) {
	s := NewReservoir(64, 42)
	for i := 0; i < 10000; i++ {
		s.Add(float64(i))
	}
	if s.Len() != 64 {
		t.Fatalf("reservoir len = %d, want 64", s.Len())
	}
	if s.Count() != 10000 {
		t.Fatalf("count = %d, want 10000", s.Count())
	}
	// Mean of a uniform ramp should be near the middle.
	if m := s.Mean(); m < 2000 || m > 8000 {
		t.Fatalf("reservoir mean %v implausible for uniform 0..9999", m)
	}
}

func TestReservoirDeterministic(t *testing.T) {
	a, b := NewReservoir(16, 7), NewReservoir(16, 7)
	for i := 0; i < 1000; i++ {
		a.Add(float64(i))
		b.Add(float64(i))
	}
	for q := 0.0; q <= 1.0; q += 0.25 {
		if a.Quantile(q) != b.Quantile(q) {
			t.Fatalf("same seed diverged at q=%v", q)
		}
	}
}

func TestDREConvergesToRate(t *testing.T) {
	// Send 1250 bytes every 1us => 10 Gbps. After many taus the
	// estimator should read close to 10 Gbps.
	d := NewDRE(100e3) // tau = 100us
	var now int64
	for i := 0; i < 100000; i++ {
		d.Add(now, 1250)
		now += 1000
	}
	rate := d.Rate(now)
	wantBps := 1250.0 * 1e9 / 1000 // bytes per second
	if math.Abs(rate-wantBps)/wantBps > 0.05 {
		t.Fatalf("rate = %v B/s, want ~%v B/s", rate, wantBps)
	}
	u := d.Utilization(now, 10e9)
	if math.Abs(u-1.0) > 0.05 {
		t.Fatalf("utilization = %v, want ~1.0", u)
	}
}

func TestDREDecays(t *testing.T) {
	d := NewDRE(1e6)
	d.Add(0, 100000)
	r0 := d.Rate(0)
	r1 := d.Rate(5e6) // 5 taus later
	if r1 >= r0*0.01 {
		t.Fatalf("rate did not decay: %v -> %v", r0, r1)
	}
	if u := d.Utilization(10e6, 1e9); u != 0 && u > 1e-3 {
		t.Fatalf("stale utilization should be ~0, got %v", u)
	}
}

func TestDREUtilizationClamped(t *testing.T) {
	d := NewDRE(1000)
	d.Add(0, 1<<30)
	if u := d.Utilization(0, 1); u != 1 {
		t.Fatalf("clamp high: got %v", u)
	}
	d2 := NewDRE(1000)
	if u := d2.Utilization(0, 1e9); u != 0 {
		t.Fatalf("empty DRE utilization: got %v", u)
	}
}

func TestTimeseries(t *testing.T) {
	ts := NewTimeseries(1000)
	ts.Add(1500, 10)
	ts.Add(1999, 5)
	ts.Add(3500, 7)
	pts := ts.Points()
	if len(pts) != 3 {
		t.Fatalf("bins = %d, want 3 (%+v)", len(pts), pts)
	}
	if pts[0].V != 15 || pts[1].V != 0 || pts[2].V != 7 {
		t.Fatalf("bin totals wrong: %+v", pts)
	}
	// Backfill before start.
	ts.Add(200, 3)
	pts = ts.Points()
	if pts[0].V != 3 {
		t.Fatalf("backfill failed: %+v", pts)
	}
	if r := ts.Rate(1000); !almost(r, 8e9, 1) {
		t.Fatalf("Rate(1000B/1us) = %v, want 8e9 bps", r)
	}
}
