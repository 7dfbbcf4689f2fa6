// Package stats provides small, allocation-conscious statistics helpers
// used throughout the Contra simulator and benchmark harness: streaming
// summaries, percentiles of a retained (optionally reservoir-sampled)
// sample, time series, and the discounting rate estimator (DRE) used
// for link-utilization measurement.
package stats

import (
	"fmt"
	"math"
	"sort"

	"contra/internal/slab"
)

// Summary accumulates a stream of float64 observations and reports
// count, mean, variance, min and max without retaining samples.
// The zero value is ready to use.
type Summary struct {
	n        int64
	mean, m2 float64
	min, max float64
}

// Add records one observation.
func (s *Summary) Add(x float64) {
	if s.n == 0 {
		s.min, s.max = x, x
	} else {
		if x < s.min {
			s.min = x
		}
		if x > s.max {
			s.max = x
		}
	}
	s.n++
	d := x - s.mean
	s.mean += d / float64(s.n)
	s.m2 += d * (x - s.mean)
}

// Count returns the number of observations recorded.
func (s *Summary) Count() int64 { return s.n }

// Mean returns the arithmetic mean, or 0 if empty.
func (s *Summary) Mean() float64 { return s.mean }

// Min returns the smallest observation, or 0 if empty.
func (s *Summary) Min() float64 { return s.min }

// Max returns the largest observation, or 0 if empty.
func (s *Summary) Max() float64 { return s.max }

// Var returns the sample variance, or 0 for fewer than two observations.
func (s *Summary) Var() float64 {
	if s.n < 2 {
		return 0
	}
	return s.m2 / float64(s.n-1)
}

// Stddev returns the sample standard deviation.
func (s *Summary) Stddev() float64 { return math.Sqrt(s.Var()) }

// String renders a compact human-readable summary.
func (s *Summary) String() string {
	return fmt.Sprintf("n=%d mean=%.4g min=%.4g max=%.4g sd=%.4g",
		s.n, s.Mean(), s.Min(), s.Max(), s.Stddev())
}

// Sample retains observations (optionally reservoir-sampled) so that
// percentiles can be computed after the fact.
type Sample struct {
	xs     []float64
	sorted bool

	// cap>0 enables reservoir sampling with the given capacity.
	cap  int
	seen int64
	rng  uint64
}

// NewSample returns a Sample retaining every observation.
func NewSample() *Sample { return &Sample{} }

// NewReservoir returns a Sample that keeps a uniform random subset of at
// most capacity observations (Vitter's algorithm R) with a deterministic
// internal PRNG derived from seed.
func NewReservoir(capacity int, seed uint64) *Sample {
	if capacity <= 0 {
		capacity = 1
	}
	return &Sample{cap: capacity, rng: seed ^ 0x9e3779b97f4a7c15}
}

func (s *Sample) next() uint64 {
	// xorshift64*: fast deterministic PRNG, plenty for sampling.
	s.rng ^= s.rng >> 12
	s.rng ^= s.rng << 25
	s.rng ^= s.rng >> 27
	return s.rng * 0x2545f4914f6cdd1d
}

// Add records one observation.
func (s *Sample) Add(x float64) {
	s.sorted = false
	s.seen++
	if s.cap == 0 || len(s.xs) < s.cap {
		s.xs = append(s.xs, x)
		return
	}
	// Reservoir: replace a random slot with probability cap/seen.
	j := s.next() % uint64(s.seen)
	if j < uint64(s.cap) {
		s.xs[j] = x
	}
}

// Count returns the number of observations offered (not retained).
func (s *Sample) Count() int64 { return s.seen }

// Len returns the number of retained observations.
func (s *Sample) Len() int { return len(s.xs) }

func (s *Sample) ensureSorted() {
	if !s.sorted {
		sort.Float64s(s.xs)
		s.sorted = true
	}
}

// Quantile returns the q-th quantile (0<=q<=1) by linear interpolation.
// It returns 0 for an empty sample.
func (s *Sample) Quantile(q float64) float64 {
	if len(s.xs) == 0 {
		return 0
	}
	s.ensureSorted()
	if q <= 0 {
		return s.xs[0]
	}
	if q >= 1 {
		return s.xs[len(s.xs)-1]
	}
	pos := q * float64(len(s.xs)-1)
	lo := int(pos)
	frac := pos - float64(lo)
	if lo+1 >= len(s.xs) {
		return s.xs[len(s.xs)-1]
	}
	return s.xs[lo]*(1-frac) + s.xs[lo+1]*frac
}

// Mean returns the mean of retained observations.
func (s *Sample) Mean() float64 {
	if len(s.xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range s.xs {
		sum += x
	}
	return sum / float64(len(s.xs))
}

// DRE is a discounting rate estimator, the standard data-plane technique
// (used by CONGA and HULA) for measuring link utilization: a byte counter
// that decays exponentially with time constant Tau. Reading the estimator
// at time t yields bytes-per-second smoothed over roughly Tau.
//
// The decay is applied lazily on access, so the estimator costs O(1) per
// packet with no background timers. Times are nanoseconds.
//
// An estimator made by DecayMemo.NewDRE looks its decay factors up in a
// table shared with its network's other estimators instead of calling
// exp() per packet; every reading is bit for bit a plain estimator's.
type DRE struct {
	Tau     float64 // time constant in nanoseconds
	counter float64
	last    int64
	memo    *DecayMemo // shared factor cache; nil computes every factor
}

// NewDRE returns a DRE with the given time constant in nanoseconds.
func NewDRE(tauNs float64) *DRE {
	if tauNs <= 0 {
		tauNs = 1
	}
	return &DRE{Tau: tauNs}
}

// DecayMemo remembers decay factors for the estimators of one network,
// which share a time constant and, links being few kinds and packets
// few sizes, mostly the same handful of gaps between packets. A factor
// depends on the integer gap dt alone, and a miss computes it with the
// expression a memo-less DRE uses, so a memoised estimator reads bit
// for bit what a plain one does: the memo saves the exp() and nothing
// else. It is direct-mapped — a gap that lands on an occupied slot
// evicts it — and not safe for concurrent use, like the DREs it serves.
type DecayMemo struct {
	tau   float64
	slots []decaySlot // len is a power of two
}

// decaySlot is one remembered factor. dt == 0 marks an empty slot:
// decay never asks about a gap that is not positive.
type decaySlot struct {
	dt int64
	f  float64
}

// NewDecayMemo returns a memo for estimators with time constant tauNs,
// sized for the number of them that will share it: a slot each, rounded
// up to a power of two and to at least 256 (4 kB).
func NewDecayMemo(tauNs float64, estimators int) *DecayMemo {
	m := &DecayMemo{}
	m.Reset(tauNs, estimators)
	return m
}

// Reset empties the memo and sizes it as NewDecayMemo does, in the
// memo's own slots when there are enough of them. Estimators made
// before it must not decay again: their time constant may be another.
func (m *DecayMemo) Reset(tauNs float64, estimators int) {
	if tauNs <= 0 {
		tauNs = 1
	}
	n := 256
	for n < estimators {
		n *= 2
	}
	m.tau, m.slots = tauNs, slab.Reuse(m.slots, n)
}

// NewDRE returns an estimator, by value, that takes its time constant
// from the memo and its decay factors through it. Its Tau must stay as
// set: the memo's factors are for that time constant.
func (m *DecayMemo) NewDRE() DRE { return DRE{Tau: m.tau, memo: m} }

// factor returns exp(-dt/tau) for a gap dt > 0, computing it only when
// dt's slot holds another gap's.
func (m *DecayMemo) factor(dt int64) float64 {
	s := &m.slots[uint64(dt)&uint64(len(m.slots)-1)]
	if s.dt != dt {
		s.dt, s.f = dt, math.Exp(-float64(dt)/m.tau)
	}
	return s.f
}

// factor returns exp(-dt/Tau) for a gap dt > 0. Both arms evaluate the
// same expression on the same operands; TestDecayMemoBitExact holds
// them equal.
func (d *DRE) factor(dt int64) float64 {
	if d.memo != nil {
		return d.memo.factor(dt)
	}
	return math.Exp(-float64(dt) / d.Tau)
}

func (d *DRE) decay(now int64) {
	if now <= d.last {
		return
	}
	// 0 × factor is exactly 0: an estimator that has not seen a byte
	// yet needs neither the factor nor the multiply.
	if d.counter != 0 {
		d.counter *= d.factor(now - d.last)
	}
	d.last = now
}

// Add records size bytes transmitted at time now (ns).
func (d *DRE) Add(now int64, size int) {
	d.decay(now)
	d.counter += float64(size)
}

// Rate returns the smoothed transmission rate in bytes/second at time now.
func (d *DRE) Rate(now int64) float64 {
	d.decay(now)
	return d.counter / d.Tau * 1e9
}

// Utilization returns Rate normalized by a link capacity in bits/second,
// clamped to [0, 1].
func (d *DRE) Utilization(now int64, capacityBps float64) float64 {
	if capacityBps <= 0 {
		return 0
	}
	u := d.Rate(now) * 8 / capacityBps
	if u < 0 {
		return 0
	}
	if u > 1 {
		return 1
	}
	return u
}

// RatePeek returns the smoothed rate at time now (bytes/second)
// WITHOUT folding the decay into the estimator's state. Exponential
// decay in floating point is not associative — exp(-a)*exp(-b) is not
// bitwise exp(-(a+b)) — so a mutating read between two Adds perturbs
// every later reading. Observers (the metrics sampler) must use the
// peek variants so sampling cannot change what the routing protocol
// measures. A peek may fill a slot of the shared DecayMemo; a slot's
// content is a pure function of the gap it is for, so no estimator can
// tell.
func (d *DRE) RatePeek(now int64) float64 {
	c := d.counter
	if now > d.last {
		c *= d.factor(now - d.last)
	}
	return c / d.Tau * 1e9
}

// UtilizationPeek is Utilization without mutating the estimator; see
// RatePeek. At equal times it returns bitwise the same value a
// mutating Utilization call would.
func (d *DRE) UtilizationPeek(now int64, capacityBps float64) float64 {
	if capacityBps <= 0 {
		return 0
	}
	u := d.RatePeek(now) * 8 / capacityBps
	if u < 0 {
		return 0
	}
	if u > 1 {
		return 1
	}
	return u
}

// Reset clears the estimator.
func (d *DRE) Reset() { d.counter, d.last = 0, 0 }

// Timeseries accumulates (t, value) observations into fixed-width time
// bins; used for throughput-over-time plots such as Figure 14.
type Timeseries struct {
	BinWidth int64 // ns
	start    int64
	bins     []float64
	set      bool
}

// NewTimeseries creates a Timeseries with the given bin width in ns.
func NewTimeseries(binWidthNs int64) *Timeseries {
	if binWidthNs <= 0 {
		binWidthNs = 1
	}
	return &Timeseries{BinWidth: binWidthNs}
}

// Add accumulates v into the bin containing time t (ns).
func (ts *Timeseries) Add(t int64, v float64) {
	if !ts.set {
		ts.start = t - t%ts.BinWidth
		ts.set = true
	}
	if t < ts.start {
		// Grow backwards: rare; shift bins.
		shift := int((ts.start - t + ts.BinWidth - 1) / ts.BinWidth)
		ts.bins = append(make([]float64, shift), ts.bins...)
		ts.start -= int64(shift) * ts.BinWidth
	}
	idx := int((t - ts.start) / ts.BinWidth)
	for idx >= len(ts.bins) {
		ts.bins = append(ts.bins, 0)
	}
	ts.bins[idx] += v
}

// Point is one time-series bin: the bin's start time and its total.
type Point struct {
	T int64
	V float64
}

// Points returns the accumulated bins in time order.
func (ts *Timeseries) Points() []Point {
	pts := make([]Point, len(ts.bins))
	for i, v := range ts.bins {
		pts[i] = Point{T: ts.start + int64(i)*ts.BinWidth, V: v}
	}
	return pts
}

// Rate converts a bin total of bytes into bits/second given the bin width.
func (ts *Timeseries) Rate(binTotalBytes float64) float64 {
	return binTotalBytes * 8 * 1e9 / float64(ts.BinWidth)
}
