// Package workload generates the paper's evaluation traffic (§6.1):
// flow sizes drawn from the empirical web-search (DCTCP, Alizadeh et
// al.) and cache (Facebook, Roy et al.) distributions, with Poisson
// arrivals tuned so the offered load matches a target fraction of
// network capacity.
package workload

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"

	"contra/internal/sim"
	"contra/internal/slab"
	"contra/internal/topo"
)

// Distribution is an empirical flow-size CDF sampled by inverse
// transform with log-linear interpolation between knots.
type Distribution struct {
	Name  string
	sizes []float64 // bytes at each knot
	cum   []float64 // cumulative probability at each knot
}

// NewDistribution builds a distribution from (bytes, cumulative
// probability) knots; the last knot must have probability 1.
func NewDistribution(name string, sizesBytes, cum []float64) *Distribution {
	if len(sizesBytes) != len(cum) || len(sizesBytes) == 0 {
		panic("workload: bad distribution knots")
	}
	for i := 1; i < len(cum); i++ {
		if cum[i] < cum[i-1] || sizesBytes[i] < sizesBytes[i-1] {
			panic("workload: knots must be non-decreasing")
		}
	}
	if cum[len(cum)-1] != 1 {
		panic("workload: last knot must have probability 1")
	}
	return &Distribution{Name: name, sizes: sizesBytes, cum: cum}
}

// WebSearch returns the DCTCP web-search flow size distribution: a mix
// of short queries and multi-megabyte background flows. Knots follow
// the published CDF.
func WebSearch() *Distribution {
	kb := 1000.0
	return NewDistribution("websearch",
		[]float64{1 * kb, 6 * kb, 13 * kb, 19 * kb, 33 * kb, 53 * kb, 133 * kb,
			667 * kb, 1333 * kb, 6667 * kb, 20000 * kb},
		[]float64{0, 0.15, 0.3, 0.45, 0.6, 0.7, 0.8, 0.9, 0.95, 0.98, 1})
}

// Cache returns the Facebook cache-follower flow size distribution:
// dominated by sub-kilobyte objects with a long heavy tail.
func Cache() *Distribution {
	kb := 1000.0
	return NewDistribution("cache",
		[]float64{0.07 * kb, 0.15 * kb, 0.3 * kb, 0.6 * kb, 1 * kb, 2 * kb,
			5 * kb, 10 * kb, 100 * kb, 1000 * kb, 10000 * kb},
		[]float64{0.1, 0.25, 0.4, 0.55, 0.7, 0.8, 0.9, 0.95, 0.98, 0.996, 1})
}

// registry maps canonical distribution names to constructors. ByName's
// error message lists these names, so adding a distribution here is the
// whole registration step — the valid-name list can never go stale.
var registry = map[string]func() *Distribution{
	"websearch": WebSearch,
	"cache":     Cache,
}

// aliases maps alternate CLI spellings onto canonical registry names.
var aliases = map[string]string{
	"web-search": "websearch",
	"web":        "websearch",
}

// Names returns the canonical distribution names, sorted (CLI help,
// error messages).
func Names() []string {
	out := make([]string, 0, len(registry))
	for name := range registry {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// ByName resolves a distribution by its CLI name.
func ByName(name string) (*Distribution, error) {
	if err := CheckName(name); err != nil {
		return nil, err
	}
	return registry[canonical(name)](), nil
}

// CheckName returns ByName's error for name without building the
// distribution: nil if ByName resolves it.
func CheckName(name string) error {
	if _, ok := registry[canonical(name)]; !ok {
		return fmt.Errorf("workload: unknown distribution %q (want %s)", name, strings.Join(Names(), " or "))
	}
	return nil
}

// canonical maps an alternate spelling onto its registry name.
func canonical(name string) string {
	if a, ok := aliases[name]; ok {
		return a
	}
	return name
}

// Sample draws one flow size in bytes.
func (d *Distribution) Sample(rng *rand.Rand) int64 {
	u := rng.Float64()
	i := sort.SearchFloat64s(d.cum, u)
	if i == 0 {
		return int64(d.sizes[0])
	}
	if i >= len(d.cum) {
		i = len(d.cum) - 1
	}
	lo, hi := d.sizes[i-1], d.sizes[i]
	cl, ch := d.cum[i-1], d.cum[i]
	if ch == cl || lo <= 0 {
		return int64(hi)
	}
	frac := (u - cl) / (ch - cl)
	// Log-linear interpolation suits the heavy tail.
	v := math.Exp(math.Log(lo) + frac*(math.Log(hi)-math.Log(lo)))
	if v < 1 {
		v = 1
	}
	return int64(v)
}

// Mean returns the distribution's expected flow size in bytes,
// integrated over the interpolated CDF.
func (d *Distribution) Mean() float64 {
	mean := d.sizes[0] * d.cum[0]
	for i := 1; i < len(d.sizes); i++ {
		p := d.cum[i] - d.cum[i-1]
		lo, hi := d.sizes[i-1], d.sizes[i]
		var segMean float64
		if lo <= 0 || hi <= lo {
			segMean = hi
		} else {
			// Mean of the log-linear segment.
			r := math.Log(hi / lo)
			if r < 1e-9 {
				segMean = lo
			} else {
				segMean = lo * (math.Expm1(r)) / r
			}
		}
		mean += p * segMean
	}
	return mean
}

// Traffic patterns: how each flow picks its endpoints.
const (
	// PatternRandom (the default, also "") draws the sender uniformly
	// from Senders and the receiver uniformly from Receivers — the
	// paper's §6.3 setup.
	PatternRandom = "random"
	// PatternIncast converges every flow on a small set of hot
	// receivers (incast_targets of them, default 1): the classic
	// partition-aggregate fan-in that stresses a single edge downlink.
	PatternIncast = "incast"
	// PatternAllToAll lets every host both send and receive: endpoints
	// are drawn uniformly from the union of Senders and Receivers, as
	// in shuffle-stage workloads.
	PatternAllToAll = "all_to_all"
)

// Patterns lists the supported traffic patterns (CLI help, spec
// validation).
func Patterns() []string {
	return []string{PatternRandom, PatternIncast, PatternAllToAll}
}

// ValidPattern reports whether name is a known traffic pattern ("" is
// the random default).
func ValidPattern(name string) bool {
	switch name {
	case "", PatternRandom, PatternIncast, PatternAllToAll:
		return true
	}
	return false
}

// Stream is one arrival process: arrivals at Rate flows per second
// across [StartNs, StartNs+DurationNs), each with a size from Size and
// endpoints from Ends. Seed and FirstID keep streams independent: a
// scenario's base load, each surge and each cohort is its own stream,
// so editing one never moves another's flows (docs/workloads.md).
type Stream struct {
	Rate float64 // peak flows per second

	// Process and Shape pick the interarrival law: poisson (also "")
	// or a gamma/weibull law mean-matched to 1/Rate.
	Process string
	Shape   float64

	// Profile, when set, thins the stream: an arrival elapsedNs into
	// the window is kept with probability Profile(elapsedNs, DurationNs),
	// at the cost of one draw when that is below 1.
	Profile func(elapsedNs, durNs int64) float64

	Size Sampler
	Ends Ends

	StartNs, DurationNs int64
	Seed                int64
	FirstID             uint64 // ID of the first flow; the rest count up
	MaxFlows            int    // 0 = unlimited
}

// sources holds the random sources finished streams handed on. A
// source is about 5 KB, and reseeding one leaves it exactly as a new
// one with that seed, so a stream draws the same flows either way.
var sources slab.Store[rand.Rand]

// LoadRate is the arrival rate that offers load (a fraction of
// capacityBps) with flows drawn from size.
func LoadRate(load, capacityBps float64, size Sampler) float64 {
	return load * capacityBps / 8 / size.Mean()
}

// maxSkipped bounds the arrivals one stream may drop to thinning or to
// same-edge endpoints. A stream past it is not making progress: at a
// rate beyond the clock's resolution t never advances, so a profile
// that is zero at the window's start would otherwise spin forever.
const maxSkipped = 1 << 24

// Generate is the one arrival loop: it draws stream s's flows in
// arrival order. Per arrival the draws are, in order: the gap, the
// profile's thinning draw (only below factor 1), the endpoints with
// their re-picks, and the size. A rate that is not a positive finite
// number, an empty window or empty host pools are errors.
func Generate(g *topo.Graph, s Stream) ([]sim.FlowSpec, error) {
	gap, err := gapSampler(s.Process, s.Shape, s.Rate)
	if err != nil {
		return nil, err
	}
	if s.DurationNs <= 0 {
		return nil, fmt.Errorf("workload: arrival window of %d ns is empty", s.DurationNs)
	}
	if e := &s.Ends; len(e.Pairs) == 0 && (len(e.Senders) == 0 || len(e.Receivers) == 0) {
		return nil, fmt.Errorf("workload: no hosts to draw flow endpoints from")
	}
	rng := sources.Get()
	if rng == nil {
		rng = rand.New(rand.NewSource(s.Seed))
	} else {
		rng.Seed(s.Seed)
	}
	defer sources.Put(rng)
	var flows []sim.FlowSpec
	t, end := float64(s.StartNs), float64(s.StartNs+s.DurationNs)
	for drawn := 0; ; drawn++ {
		if drawn-len(flows) > maxSkipped {
			return nil, fmt.Errorf("workload: %d arrivals thinned or dropped as same-edge at %g flows/s; the stream cannot make progress", maxSkipped, s.Rate)
		}
		t += gap(rng) * 1e9
		if t >= end {
			break
		}
		if s.Profile != nil {
			if f := s.Profile(int64(t)-s.StartNs, s.DurationNs); f < 1 && (f <= 0 || rng.Float64() >= f) {
				continue
			}
		}
		src, dst := s.Ends.pick(g, rng)
		if g.HostEdge(src) == g.HostEdge(dst) {
			continue // degenerate host sets
		}
		flows = append(flows, sim.FlowSpec{ID: s.FirstID + uint64(len(flows)), Src: src, Dst: dst, Size: s.Size.Sample(rng), Start: int64(t)})
		if s.MaxFlows > 0 && len(flows) >= s.MaxFlows {
			break
		}
	}
	return flows, nil
}

// Ends is a stream's endpoint rule. A flow draws a sender and a
// receiver and, while both sit on one edge switch, re-picks one of
// them up to 32 times: the receiver, or the sender when Incast pins
// the receivers. A flow whose ends still share an edge is dropped.
type Ends struct {
	Senders, Receivers []topo.NodeID

	// Pairs, when set, replaces the pools: each flow takes one
	// (sender, receiver) pair whole, with no re-pick. The paper's
	// Abilene experiment uses four such pairs (§6.4).
	Pairs [][2]topo.NodeID

	// Incast marks Receivers as a hot set that re-picks never move.
	Incast bool

	// ByPod, when set, holds each pod's receivers: the receiver is
	// drawn from the sender's pod first (rack_local).
	ByPod map[int][]topo.NodeID
}

// EndsFor maps a traffic pattern (random, incast, all_to_all; "" is
// random) or a cohort placement (uniform, rack_local, incast; "" is
// uniform) onto the endpoint rule over SplitHosts(g). k bounds
// incast's hot receivers (<= 0 means 1).
func EndsFor(g *topo.Graph, rule string, k int) Ends {
	senders, receivers := SplitHosts(g)
	e := Ends{Senders: senders, Receivers: receivers}
	switch rule {
	case PatternIncast: // also PlaceIncast
		e.Receivers, e.Incast = receivers[:min(max(k, 1), len(receivers))], true
	case PatternAllToAll:
		all := append(append([]topo.NodeID(nil), senders...), receivers...)
		e.Senders, e.Receivers = all, all
	case PlaceRackLocal:
		// Pod -1 (no pod structure) is left out, so such senders fall
		// back to the fabric at large.
		e.ByPod = map[int][]topo.NodeID{}
		for _, r := range receivers {
			if pod := g.Node(r).Pod; pod >= 0 {
				e.ByPod[pod] = append(e.ByPod[pod], r)
			}
		}
	}
	return e
}

// pick draws one flow's endpoints.
func (e *Ends) pick(g *topo.Graph, rng *rand.Rand) (src, dst topo.NodeID) {
	if len(e.Pairs) > 0 {
		p := e.Pairs[rng.Intn(len(e.Pairs))]
		return p[0], p[1]
	}
	src = e.Senders[rng.Intn(len(e.Senders))]
	if local := e.ByPod[g.Node(src).Pod]; len(local) > 0 {
		dst = local[rng.Intn(len(local))]
		for tries := 0; g.HostEdge(src) == g.HostEdge(dst) && tries < 32; tries++ {
			dst = local[rng.Intn(len(local))]
		}
		if g.HostEdge(src) != g.HostEdge(dst) {
			return src, dst
		}
		// The pod has no receiver past the sender's edge switch; fall
		// back to the fabric at large.
	}
	dst = e.Receivers[rng.Intn(len(e.Receivers))]
	for tries := 0; g.HostEdge(src) == g.HostEdge(dst) && tries < 32; tries++ {
		if e.Incast {
			src = e.Senders[rng.Intn(len(e.Senders))]
		} else {
			dst = e.Receivers[rng.Intn(len(e.Receivers))]
		}
	}
	return src, dst
}

// SplitHosts deterministically halves a topology's hosts into senders
// and receivers, as in §6.3 ("half of these hosts were configured as
// senders, and the other half receivers").
func SplitHosts(g *topo.Graph) (senders, receivers []topo.NodeID) {
	hosts := g.Hosts()
	senders, receivers = make([]topo.NodeID, 0, (len(hosts)+1)/2), make([]topo.NodeID, 0, len(hosts)/2)
	for i, h := range hosts {
		if i%2 == 0 {
			senders = append(senders, h)
		} else {
			receivers = append(receivers, h)
		}
	}
	return senders, receivers
}
