package stats

import (
	"math"
	"math/rand"
	"testing"
)

// An idle port's estimate must decay toward zero: after many time
// constants with no traffic, utilization reads as (effectively) zero
// rather than holding the last busy reading.
func TestDREIdleDecayTowardZero(t *testing.T) {
	d := NewDRE(200_000)
	capBps := 10e9
	d.Add(0, 150_000) // a burst at t=0
	if u := d.Utilization(0, capBps); u == 0 {
		t.Fatal("burst did not register")
	}
	prev := math.Inf(1)
	for _, now := range []int64{200_000, 400_000, 1_000_000, 4_000_000} {
		u := d.Utilization(now, capBps)
		if u >= prev {
			t.Fatalf("utilization not monotonically decaying: %g at t=%d (prev %g)", u, now, prev)
		}
		prev = u
	}
	if u := d.Utilization(10_000_000, capBps); u > 1e-9 {
		t.Fatalf("after 50 tau idle, utilization = %g, want ~0", u)
	}
}

// Sustained line-rate traffic must saturate the estimate at (clamped)
// 1.0: a 10 Gb/s link fed 10 Gb/s worth of bytes every tau/10 settles
// at full utilization.
func TestDRESustainedSaturation(t *testing.T) {
	tau := 200_000.0
	d := NewDRE(tau)
	capBps := 10e9
	bytesPerNs := capBps / 8 / 1e9
	step := int64(tau / 10)
	perStep := int(bytesPerNs * float64(step))
	var now int64
	for i := 0; i < 200; i++ {
		now = int64(i) * step
		d.Add(now, perStep)
	}
	u := d.Utilization(now, capBps)
	if u < 0.99 {
		t.Fatalf("sustained line rate reads %g, want >= 0.99", u)
	}
	if u > 1 {
		t.Fatalf("utilization exceeds clamp: %g", u)
	}
}

// A very long event gap (dt >> tau, far past float underflow of
// exp(-dt/tau)) must read as exactly zero rate, not NaN/Inf, and the
// next Add must start cleanly from zero.
func TestDREDecayAcrossVeryLongGap(t *testing.T) {
	d := NewDRE(200_000)
	d.Add(0, 1_000_000)
	// ~5e12 tau later: exp underflows to exactly 0.
	far := int64(1) << 62
	r := d.Rate(far)
	if r != 0 || math.IsNaN(r) || math.IsInf(r, 0) {
		t.Fatalf("rate after huge gap = %g, want exactly 0", r)
	}
	d.Add(far, 1500)
	got := d.Rate(far)
	want := 1500.0 / d.Tau * 1e9
	if math.Abs(got-want) > 1e-9*want {
		t.Fatalf("rate after restart = %g, want %g", got, want)
	}
}

// Peek reads must match what a mutating read at the same instant would
// return, bitwise, while leaving the estimator state untouched.
func TestDREPeekMatchesAndDoesNotMutate(t *testing.T) {
	capBps := 10e9
	mk := func() *DRE {
		d := NewDRE(200_000)
		d.Add(0, 9_000)
		d.Add(50_000, 3_000)
		return d
	}
	a, b := mk(), mk()
	// Peek twice on a, including between Adds; b never peeks.
	if got, want := a.UtilizationPeek(120_000, capBps), b.Utilization(120_000, capBps); got != want {
		t.Fatalf("peek %v != mutating read %v", got, want)
	}
	a.UtilizationPeek(170_000, capBps)
	a.Add(200_000, 4_500)
	b.Add(200_000, 4_500)
	// A mutating read folded decay at t=120k into b; a's state must be
	// what a peek-free history with the same reads would give. The
	// non-associativity of float exp means b may now legitimately
	// differ from a — the contract is that PEEKS leave no trace, i.e. a
	// equals a fresh peek-free replay.
	c := mk()
	c.Utilization(120_000, capBps)
	c.Add(200_000, 4_500)
	if a.RatePeek(300_000) == 0 {
		t.Fatal("estimator lost state")
	}
	if got, want := a.counter, func() float64 {
		d := mk()
		d.Add(200_000, 4_500)
		return d.counter
	}(); got != want {
		t.Fatalf("peek mutated estimator state: counter %v, want %v", got, want)
	}
	if b.counter != c.counter {
		t.Fatalf("control mismatch: %v vs %v", b.counter, c.counter)
	}
}

// plainDRE is the estimator as it was before the memo and before decay
// skipped an idle counter: one exp() and one multiply per positive gap.
// The memo tests compare against it bit for bit.
type plainDRE struct {
	tau, counter float64
	last         int64
}

func (d *plainDRE) add(now int64, size int) float64 {
	if now > d.last {
		d.counter *= math.Exp(-float64(now-d.last) / d.tau)
		d.last = now
	}
	d.counter += float64(size)
	return d.counter
}

func (d *plainDRE) rate(now int64) float64 {
	c := d.counter
	if now > d.last {
		c *= math.Exp(-float64(now-d.last) / d.tau)
	}
	return c / d.tau * 1e9
}

// TestDecayMemoBitExact drives memoised estimators, a memo-less one and
// the reference with the same random (gap, size) sequences and requires
// identical bits after every step. The gap mix covers what a
// direct-mapped table can get wrong: a few hot gaps (hits), gaps that
// share a slot and evict each other, gaps past the table size, gaps of
// zero (no decay) and the underflow gap of TestDREDecayAcrossVeryLongGap
// (factor exactly 0, after which the counter restarts from zero and the
// idle skip applies).
func TestDecayMemoBitExact(t *testing.T) {
	const tau = 200_000
	memo := NewDecayMemo(tau, 3)
	slots := int64(len(memo.slots))
	if slots != 256 {
		t.Fatalf("memo for 3 estimators has %d slots, want the 256 floor", slots)
	}
	gaps := []int64{
		0, 1, 1200, 1200, 1200, 1231, 12_000, // hot, small
		7, 7 + slots, 7 + 2*slots, 7 + 64*slots, // one slot, evicting each other
		slots, slots + 1, 10 * slots, 1 << 40, // at and past the table size
		1 << 62, // exp underflows to exactly 0
	}
	sizes := []int{64, 1500, 9000, 0}
	for seed := int64(1); seed <= 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		// Two estimators on one memo interleave, so each sees slots the
		// other filled or evicted.
		a, b := memo.NewDRE(), memo.NewDRE()
		bare := NewDRE(tau)
		refA, refB := &plainDRE{tau: tau}, &plainDRE{tau: tau}
		var nowA, nowB int64
		for step := 0; step < 20_000; step++ {
			gap, size := gaps[rng.Intn(len(gaps))], sizes[rng.Intn(len(sizes))]
			if rng.Intn(4) == 0 {
				gap = rng.Int63n(4 * slots) // background of cold gaps
			}
			if gap > math.MaxInt64-nowA || gap > math.MaxInt64-nowB {
				gap = 1
			}
			if rng.Intn(2) == 0 {
				nowA += gap
				a.Add(nowA, size)
				bare.Add(nowA, size)
				want := refA.add(nowA, size)
				if math.Float64bits(a.counter) != math.Float64bits(want) || math.Float64bits(bare.counter) != math.Float64bits(want) {
					t.Fatalf("seed %d step %d gap %d: counter memoised %v, memo-less %v, reference %v", seed, step, gap, a.counter, bare.counter, want)
				}
			} else {
				nowB += gap
				b.Add(nowB, size)
				if want := refB.add(nowB, size); math.Float64bits(b.counter) != math.Float64bits(want) {
					t.Fatalf("seed %d step %d gap %d: counter memoised %v, reference %v", seed, step, gap, b.counter, want)
				}
			}
			// Peeks read through the memo (and may fill it) without
			// touching the estimator, and agree with the reference.
			if ahead := gaps[rng.Intn(len(gaps))]; ahead <= math.MaxInt64-nowA {
				before := a
				got, want := a.RatePeek(nowA+ahead), refA.rate(nowA+ahead)
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("seed %d step %d: RatePeek(+%d) = %v, reference %v", seed, step, ahead, got, want)
				}
				if a != before {
					t.Fatalf("seed %d step %d: RatePeek changed the estimator: %+v, was %+v", seed, step, a, before)
				}
			}
		}
	}
}

// A peek through the memo equals the mutating read at the same instant
// bitwise, whichever of the two fills the slot.
func TestDecayMemoPeekEqualsMutatingRead(t *testing.T) {
	const capBps = 10e9
	for _, peekFirst := range []bool{true, false} {
		memo := NewDecayMemo(200_000, 1)
		a, b := memo.NewDRE(), memo.NewDRE()
		a.Add(0, 9_000)
		b.Add(0, 9_000)
		var peek, read float64
		if peekFirst {
			peek = a.UtilizationPeek(120_000, capBps)
			read = b.Utilization(120_000, capBps)
		} else {
			read = b.Utilization(120_000, capBps)
			peek = a.UtilizationPeek(120_000, capBps)
		}
		if math.Float64bits(peek) != math.Float64bits(read) || peek == 0 {
			t.Fatalf("peekFirst=%v: peek %v, mutating read %v", peekFirst, peek, read)
		}
		if a.last != 0 || a.counter != 9_000 {
			t.Fatalf("peekFirst=%v: peek moved the estimator to (%v, %d)", peekFirst, a.counter, a.last)
		}
	}
}

// The table is sized from the number of estimators that share it, so a
// small fabric pays for a small memo: 4 kB for the 96 channels of a
// fattree:4 cell, and a slot per channel once that exceeds the floor.
func TestDecayMemoSizedFromEstimators(t *testing.T) {
	for _, c := range []struct{ estimators, slots int }{
		{0, 256}, {96, 256}, {256, 256}, {257, 512}, {640, 1024}, {1024, 1024},
	} {
		if got := len(NewDecayMemo(200_000, c.estimators).slots); got != c.slots {
			t.Errorf("%d estimators: %d slots, want %d", c.estimators, got, c.slots)
		}
	}
	if d := NewDecayMemo(-1, 1).NewDRE(); d.Tau != 1 {
		t.Errorf("non-positive tau: Tau = %v, want the same clamp as NewDRE", d.Tau)
	}
}
