package stats

import (
	"fmt"
	"math"
	"sort"
)

// P2Quantile estimates a single quantile of a stream in O(1) memory
// using the P² algorithm (Jain & Chlamtac, CACM 1985): five markers
// track the minimum, the target quantile, the quantile's half-way
// neighbours, and the maximum, adjusted with piecewise-parabolic
// interpolation as observations arrive. The estimator is fully
// deterministic for a given observation order, so results that flow
// into campaign output stay byte-reproducible.
//
// The zero value is not usable; construct with NewP2Quantile.
type P2Quantile struct {
	p  float64
	q  [5]float64 // marker heights
	n  [5]float64 // marker positions (1-based)
	np [5]float64 // desired marker positions
	dn [5]float64 // desired position increments per observation
	m  int        // observations seen while m < 5 (initialization)
}

// NewP2Quantile returns a streaming estimator for the p-th quantile
// (0 < p < 1).
func NewP2Quantile(p float64) *P2Quantile {
	if p <= 0 || p >= 1 {
		panic(fmt.Sprintf("stats: quantile %v outside (0, 1)", p))
	}
	e := &P2Quantile{p: p}
	e.dn = [5]float64{0, p / 2, p, (1 + p) / 2, 1}
	return e
}

// Count returns the number of observations recorded.
func (e *P2Quantile) Count() int64 {
	if e.m < 5 {
		return int64(e.m)
	}
	return int64(e.n[4])
}

// Add records one observation.
func (e *P2Quantile) Add(x float64) {
	if e.m < 5 {
		e.q[e.m] = x
		e.m++
		if e.m == 5 {
			sort.Float64s(e.q[:])
			for i := 0; i < 5; i++ {
				e.n[i] = float64(i + 1)
				e.np[i] = 1 + 4*e.dn[i]
			}
		}
		return
	}

	// Find the cell k with q[k] <= x < q[k+1], widening the extremes.
	var k int
	switch {
	case x < e.q[0]:
		e.q[0] = x
		k = 0
	case x >= e.q[4]:
		e.q[4] = x
		k = 3
	default:
		k = sort.SearchFloat64s(e.q[:], x)
		if e.q[k] > x {
			k--
		}
		if k > 3 {
			k = 3
		}
	}
	for i := k + 1; i < 5; i++ {
		e.n[i]++
	}
	for i := 0; i < 5; i++ {
		e.np[i] += e.dn[i]
	}

	// Adjust the three interior markers toward their desired positions.
	for i := 1; i <= 3; i++ {
		d := e.np[i] - e.n[i]
		if (d >= 1 && e.n[i+1]-e.n[i] > 1) || (d <= -1 && e.n[i-1]-e.n[i] < -1) {
			s := math.Copysign(1, d)
			qn := e.parabolic(i, s)
			if e.q[i-1] < qn && qn < e.q[i+1] {
				e.q[i] = qn
			} else {
				e.q[i] = e.linear(i, s)
			}
			e.n[i] += s
		}
	}
}

// parabolic is the P² piecewise-parabolic marker height update.
func (e *P2Quantile) parabolic(i int, s float64) float64 {
	return e.q[i] + s/(e.n[i+1]-e.n[i-1])*
		((e.n[i]-e.n[i-1]+s)*(e.q[i+1]-e.q[i])/(e.n[i+1]-e.n[i])+
			(e.n[i+1]-e.n[i]-s)*(e.q[i]-e.q[i-1])/(e.n[i]-e.n[i-1]))
}

// linear is the fallback when the parabolic update would reorder markers.
func (e *P2Quantile) linear(i int, s float64) float64 {
	j := i + int(s)
	return e.q[i] + s*(e.q[j]-e.q[i])/(e.n[j]-e.n[i])
}

// Value returns the current quantile estimate. With fewer than five
// observations it interpolates the exact quantile of what it has seen;
// an empty estimator returns 0.
func (e *P2Quantile) Value() float64 {
	if e.m < 5 {
		if e.m == 0 {
			return 0
		}
		xs := append([]float64(nil), e.q[:e.m]...)
		sort.Float64s(xs)
		pos := e.p * float64(len(xs)-1)
		lo := int(pos)
		frac := pos - float64(lo)
		if lo+1 >= len(xs) {
			return xs[len(xs)-1]
		}
		return xs[lo]*(1-frac) + xs[lo+1]*frac
	}
	return e.q[2]
}

// Quantiles tracks several stream quantiles at once in O(1) memory —
// the default set is the tail-latency trio p50/p95/p99 used by the
// scenario and campaign layers for flow-completion times. Unlike
// Sample it never retains observations, so it is safe on streams of
// arbitrary length (the motivation: multi-seed campaign sweeps whose
// flow counts would otherwise accumulate in per-run Samples).
type Quantiles struct {
	targets []float64
	est     []*P2Quantile
	count   int64
}

// NewQuantiles returns a tracker for the given quantiles; with no
// arguments it tracks 0.5, 0.95 and 0.99.
func NewQuantiles(targets ...float64) *Quantiles {
	if len(targets) == 0 {
		targets = []float64{0.5, 0.95, 0.99}
	}
	q := &Quantiles{targets: append([]float64(nil), targets...)}
	for _, p := range q.targets {
		q.est = append(q.est, NewP2Quantile(p))
	}
	return q
}

// Add records one observation in every tracked estimator.
func (q *Quantiles) Add(x float64) {
	q.count++
	for _, e := range q.est {
		e.Add(x)
	}
}

// Count returns the number of observations recorded.
func (q *Quantiles) Count() int64 { return q.count }

// Targets returns the tracked quantiles in construction order.
func (q *Quantiles) Targets() []float64 { return append([]float64(nil), q.targets...) }

// Quantile returns the estimate for a tracked quantile p, or 0 when p
// is not tracked (exact match on the construction value).
func (q *Quantiles) Quantile(p float64) float64 {
	for i, t := range q.targets {
		if t == p {
			return q.est[i].Value()
		}
	}
	return 0
}
