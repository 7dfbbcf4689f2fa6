package workload

import (
	"fmt"
	"math"
	"math/rand"
	"strings"

	"contra/internal/sim"
	"contra/internal/stats"
	"contra/internal/topo"
)

// The cohort layer composes several named client populations into one
// offered load: each cohort declares its own interarrival process,
// flow-size distribution, temporal profile, and placement policy, and
// the union of their flows drives a single scenario. A new workload
// becomes a spec, not a Go file.

// Interarrival processes.
const (
	// ProcPoisson (the default, also "") draws exponential gaps — the
	// classical memoryless arrival stream.
	ProcPoisson = "poisson"
	// ProcGamma draws Gamma(shape, scale) gaps with the scale chosen so
	// the mean gap matches the cohort rate; shape < 1 clusters arrivals
	// (burstier than Poisson), shape > 1 regularizes them.
	ProcGamma = "gamma"
	// ProcWeibull draws Weibull(shape, scale) gaps, again mean-matched;
	// shape < 1 yields heavy-tailed quiet periods between bursts.
	ProcWeibull = "weibull"
)

// Temporal profiles (applied by thinning the peak-rate arrival stream).
const (
	// ProfileFlat (the default, also "") offers the full rate across the
	// whole cohort window.
	ProfileFlat = "flat"
	// ProfileRamp rises linearly from zero to the full rate across the
	// cohort window.
	ProfileRamp = "ramp"
	// ProfileDiurnal modulates the rate sinusoidally with period
	// period_ns: troughs at 1-depth of the peak, peaks at the full rate.
	ProfileDiurnal = "diurnal"
	// ProfileBurst offers the full rate during the first duty fraction
	// of every period_ns and nothing in between.
	ProfileBurst = "burst"
)

// Placement policies.
const (
	// PlaceUniform (the default, also "") draws endpoints uniformly,
	// like PatternRandom.
	PlaceUniform = "uniform"
	// PlaceRackLocal keeps the receiver in the sender's pod (fattree
	// topologies; falls back to uniform where pods are undefined), still
	// forcing the flow across the fabric.
	PlaceRackLocal = "rack_local"
	// PlaceIncast converges the cohort on a small hot receiver set
	// (incast_targets of them), like PatternIncast.
	PlaceIncast = "incast"
)

// Size distribution kinds beyond the empirical registry.
const (
	SizeLogNormal = "lognormal"
	SizePareto    = "pareto"
	SizeFixed     = "fixed"
)

// SizeSpec declares a cohort's flow-size distribution: an empirical
// registry name (websearch, cache), a parametric family (lognormal,
// pareto, fixed), or a weighted mix of those.
type SizeSpec struct {
	// Dist names the distribution; default websearch. Must be empty
	// when Mix is set.
	Dist string `json:"dist,omitempty"`

	// MeanBytes and Sigma parameterize lognormal: the arithmetic mean
	// flow size and the log-domain sigma (0 degenerates to the mean).
	MeanBytes float64 `json:"mean_bytes,omitempty"`
	Sigma     float64 `json:"sigma,omitempty"`

	// MinBytes and Alpha parameterize pareto: the minimum flow size and
	// the tail index (> 1, so the mean is finite).
	MinBytes float64 `json:"min_bytes,omitempty"`
	Alpha    float64 `json:"alpha,omitempty"`

	// Bytes is the fixed flow size.
	Bytes int64 `json:"bytes,omitempty"`

	// Mix composes component distributions by weight; components cannot
	// themselves be mixes.
	Mix []SizeComponent `json:"mix,omitempty"`
}

// SizeComponent is one weighted entry of a size mix.
type SizeComponent struct {
	SizeSpec
	Weight float64 `json:"weight"`
}

// CohortSpec declares one client cohort.
type CohortSpec struct {
	// Name labels the cohort (required; unique within a workload).
	// Cohort i's flow IDs carry i in their top 32 bits, so class-stats
	// cohort i is this cohort.
	Name string `json:"name"`

	// Process selects the interarrival process: poisson (default),
	// gamma, or weibull. Shape parameterizes gamma/weibull (default 1,
	// which makes either exponential).
	Process string  `json:"process,omitempty"`
	Shape   float64 `json:"shape,omitempty"`

	// Exactly one of RateFPS (absolute flows per second) or Load (a
	// fraction of fabric capacity, converted through the mean flow
	// size) sets the cohort's peak rate. Weight scales it (default 1),
	// and the workload-level load axis scales every cohort together.
	RateFPS float64 `json:"rate_fps,omitempty"`
	Load    float64 `json:"load,omitempty"`
	Weight  float64 `json:"weight,omitempty"`

	// Size is the flow-size distribution (default websearch).
	Size SizeSpec `json:"size,omitempty"`

	// Profile shapes the rate over time: flat (default), ramp, diurnal,
	// or burst. PeriodNs is the diurnal/burst period; Depth is the
	// diurnal trough depth in [0,1] (default 1); Duty is the burst
	// on-fraction in (0,1] (default 0.1).
	Profile  string  `json:"profile,omitempty"`
	PeriodNs int64   `json:"period_ns,omitempty"`
	Depth    float64 `json:"depth,omitempty"`
	Duty     float64 `json:"duty,omitempty"`

	// Placement picks endpoints: uniform (default), rack_local, or
	// incast (IncastTargets hot receivers, <= 0 means 1).
	Placement     string `json:"placement,omitempty"`
	IncastTargets int    `json:"incast_targets,omitempty"`

	// StartNs offsets the cohort window from the workload start;
	// DurationNs bounds it (0 = the rest of the workload window).
	// MaxFlows caps this cohort (0 = the workload default).
	StartNs    int64 `json:"start_ns,omitempty"`
	DurationNs int64 `json:"duration_ns,omitempty"`
	MaxFlows   int   `json:"max_flows,omitempty"`
}

// Processes lists the supported interarrival processes.
func Processes() []string { return []string{ProcPoisson, ProcGamma, ProcWeibull} }

// Profiles lists the supported temporal profiles.
func Profiles() []string { return []string{ProfileFlat, ProfileRamp, ProfileDiurnal, ProfileBurst} }

// Placements lists the supported placement policies.
func Placements() []string { return []string{PlaceUniform, PlaceRackLocal, PlaceIncast} }

// ValidateCohorts rejects malformed cohort lists with one-line errors
// naming the offending cohort and field.
func ValidateCohorts(cs []CohortSpec) error {
	if len(cs) == 0 {
		return fmt.Errorf("workload: cohorts workload declares no cohorts")
	}
	seen := map[string]bool{}
	for i := range cs {
		if err := cs[i].validate(i); err != nil {
			return err
		}
		if seen[cs[i].Name] {
			return fmt.Errorf("workload: cohort %d reuses name %q", i, cs[i].Name)
		}
		seen[cs[i].Name] = true
	}
	return nil
}

// cohortLabel names a cohort, or one component of its size mix, in a
// validation error. It is formatted only when an error is, so a valid
// spec is checked without building a string.
type cohortLabel struct {
	i    int
	name string
	comp int // size mix component, -1 for the cohort's own size
}

func (l cohortLabel) String() string {
	s := fmt.Sprintf("cohort %d (%q)", l.i, l.name)
	if l.comp >= 0 {
		s += fmt.Sprintf(": size mix component %d", l.comp)
	}
	return s
}

func (c *CohortSpec) validate(i int) error {
	if c.Name == "" {
		return fmt.Errorf("workload: cohort %d: name is required", i)
	}
	label := cohortLabel{i: i, name: c.Name, comp: -1}
	switch c.Process {
	case "", ProcPoisson, ProcGamma, ProcWeibull:
	default:
		return fmt.Errorf("workload: %s: unknown process %q (want one of %v)", label, c.Process, Processes())
	}
	if c.Shape < 0 {
		return fmt.Errorf("workload: %s: shape %g is negative", label, c.Shape)
	}
	if (c.Process == "" || c.Process == ProcPoisson) && c.Shape != 0 && c.Shape != 1 {
		return fmt.Errorf("workload: %s: shape %g needs a gamma or weibull process", label, c.Shape)
	}
	if c.RateFPS < 0 {
		return fmt.Errorf("workload: %s: rate_fps %g is negative", label, c.RateFPS)
	}
	if c.Load < 0 {
		return fmt.Errorf("workload: %s: load %g is negative", label, c.Load)
	}
	if c.RateFPS == 0 && c.Load == 0 {
		return fmt.Errorf("workload: %s: needs rate_fps or load", label)
	}
	if c.RateFPS > 0 && c.Load > 0 {
		return fmt.Errorf("workload: %s: sets both rate_fps and load", label)
	}
	if c.Weight < 0 {
		return fmt.Errorf("workload: %s: weight %g is negative", label, c.Weight)
	}
	if err := c.Size.validate(label); err != nil {
		return err
	}
	switch c.Profile {
	case "", ProfileFlat:
	case ProfileRamp:
	case ProfileDiurnal, ProfileBurst:
		if c.PeriodNs <= 0 {
			return fmt.Errorf("workload: %s: %s profile needs period_ns > 0", label, c.Profile)
		}
	default:
		return fmt.Errorf("workload: %s: unknown profile %q (want one of %v)", label, c.Profile, Profiles())
	}
	if c.Depth < 0 || c.Depth > 1 {
		return fmt.Errorf("workload: %s: depth %g outside [0,1]", label, c.Depth)
	}
	if c.Duty < 0 || c.Duty > 1 {
		return fmt.Errorf("workload: %s: duty %g outside [0,1]", label, c.Duty)
	}
	switch c.Placement {
	case "", PlaceUniform, PlaceRackLocal, PlaceIncast:
	default:
		return fmt.Errorf("workload: %s: unknown placement %q (want one of %v)", label, c.Placement, Placements())
	}
	if c.IncastTargets < 0 {
		return fmt.Errorf("workload: %s: incast_targets %d is negative", label, c.IncastTargets)
	}
	if c.StartNs < 0 {
		return fmt.Errorf("workload: %s: start_ns %d is negative", label, c.StartNs)
	}
	if c.DurationNs < 0 {
		return fmt.Errorf("workload: %s: duration_ns %d is negative", label, c.DurationNs)
	}
	if c.MaxFlows < 0 {
		return fmt.Errorf("workload: %s: max_flows %d is negative", label, c.MaxFlows)
	}
	return nil
}

func (s *SizeSpec) validate(label cohortLabel) error {
	if len(s.Mix) > 0 {
		if s.Dist != "" {
			return fmt.Errorf("workload: %s: size sets both dist %q and mix", label, s.Dist)
		}
		var total float64
		for j := range s.Mix {
			comp := &s.Mix[j]
			if len(comp.Mix) > 0 {
				return fmt.Errorf("workload: %s: size mix component %d nests a mix", label, j)
			}
			if comp.Weight < 0 {
				return fmt.Errorf("workload: %s: size mix component %d weight %g is negative", label, j, comp.Weight)
			}
			total += comp.Weight
			sub := label
			sub.comp = j
			if err := comp.SizeSpec.validate(sub); err != nil {
				return err
			}
		}
		if total == 0 {
			return fmt.Errorf("workload: %s: size mix weights sum to zero", label)
		}
		return nil
	}
	for _, f := range []struct {
		name string
		v    float64
	}{{"mean_bytes", s.MeanBytes}, {"min_bytes", s.MinBytes}, {"bytes", float64(s.Bytes)}} {
		if f.v > float64(sim.MaxFlowBytes) {
			return fmt.Errorf("workload: %s: size %s %g is past the simulator's %d-byte flow limit",
				label, f.name, f.v, sim.MaxFlowBytes)
		}
	}
	switch s.Dist {
	case "": // default websearch
	case SizeLogNormal:
		if s.MeanBytes <= 0 {
			return fmt.Errorf("workload: %s: lognormal size needs mean_bytes > 0", label)
		}
		if s.Sigma < 0 {
			return fmt.Errorf("workload: %s: lognormal sigma %g is negative", label, s.Sigma)
		}
	case SizePareto:
		if s.MinBytes <= 0 {
			return fmt.Errorf("workload: %s: pareto size needs min_bytes > 0", label)
		}
		if s.Alpha <= 1 {
			return fmt.Errorf("workload: %s: pareto alpha %g must be > 1 for a finite mean", label, s.Alpha)
		}
	case SizeFixed:
		if s.Bytes <= 0 {
			return fmt.Errorf("workload: %s: fixed size needs bytes > 0", label)
		}
	default:
		if CheckName(s.Dist) != nil {
			return fmt.Errorf("workload: %s: unknown size dist %q (want %s, lognormal, pareto or fixed)",
				label, s.Dist, strings.Join(Names(), ", "))
		}
	}
	return nil
}

// Sampler draws flow sizes in bytes; a SizeSpec resolves to one, and
// so does every *Distribution.
type Sampler interface {
	Sample(rng *rand.Rand) int64
	Mean() float64
}

type logNormalSampler struct{ meanBytes, sigma float64 }

func (s logNormalSampler) Sample(rng *rand.Rand) int64 {
	v := stats.SampleLogNormal(rng, s.meanBytes, s.sigma)
	if v < 1 {
		v = 1
	}
	return int64(v)
}
func (s logNormalSampler) Mean() float64 { return s.meanBytes }

type paretoSampler struct{ minBytes, alpha float64 }

func (s paretoSampler) Sample(rng *rand.Rand) int64 {
	return int64(stats.SamplePareto(rng, s.minBytes, s.alpha))
}
func (s paretoSampler) Mean() float64 { return stats.ParetoMean(s.minBytes, s.alpha) }

type fixedSampler struct{ bytes int64 }

func (s fixedSampler) Sample(*rand.Rand) int64 { return s.bytes }
func (s fixedSampler) Mean() float64           { return float64(s.bytes) }

// mixSampler picks a component by cumulative weight, then samples it.
type mixSampler struct {
	cum   []float64 // normalized cumulative weights
	parts []Sampler
}

func (s mixSampler) Sample(rng *rand.Rand) int64 {
	u := rng.Float64()
	for j, c := range s.cum {
		if u < c {
			return s.parts[j].Sample(rng)
		}
	}
	return s.parts[len(s.parts)-1].Sample(rng)
}

func (s mixSampler) Mean() float64 {
	var m, prev float64
	for j, c := range s.cum {
		m += (c - prev) * s.parts[j].Mean()
		prev = c
	}
	return m
}

// sampler resolves a validated SizeSpec.
func (s *SizeSpec) sampler() Sampler {
	if len(s.Mix) > 0 {
		var total float64
		for j := range s.Mix {
			total += s.Mix[j].Weight
		}
		ms := mixSampler{}
		var cum float64
		for j := range s.Mix {
			cum += s.Mix[j].Weight / total
			ms.cum = append(ms.cum, cum)
			ms.parts = append(ms.parts, s.Mix[j].SizeSpec.sampler())
		}
		return ms
	}
	switch s.Dist {
	case SizeLogNormal:
		return logNormalSampler{s.MeanBytes, s.Sigma}
	case SizePareto:
		return paretoSampler{s.MinBytes, s.Alpha}
	case SizeFixed:
		return fixedSampler{s.Bytes}
	}
	name := s.Dist
	if name == "" {
		name = "websearch"
	}
	d, err := ByName(name)
	if err != nil {
		panic(err) // validate vets the spec first
	}
	return d
}

// CohortConfig drives GenerateCohorts.
type CohortConfig struct {
	Cohorts []CohortSpec

	// CapacityBps normalizes per-cohort Load fractions.
	CapacityBps float64

	// StartNs and DurationNs bound the workload window; cohort windows
	// are relative to it.
	StartNs    int64
	DurationNs int64

	// Seed makes generation deterministic; cohort i derives its own
	// stream from it, so editing one cohort never perturbs another.
	Seed int64

	// LoadScale multiplies every cohort's rate (<= 0 means 1) — the
	// campaign load axis applied to a cohort workload.
	LoadScale float64

	// MaxFlows is the per-cohort cap for cohorts that set none
	// (0 = unlimited).
	MaxFlows int
}

// GenerateCohorts materializes every cohort's flows, concatenated in
// cohort order (arrival order within each cohort). Cohort i is a
// Stream over the SplitHosts halves seeded Seed+1_000_003*(i+1) — a
// fixed odd multiplier spreads cohort indices across seed space — with
// flow IDs from i<<32 + 1, so ID>>32 recovers the cohort index for
// class-stats attribution, mirroring surge numbering.
func GenerateCohorts(g *topo.Graph, cfg CohortConfig) ([]sim.FlowSpec, error) {
	if err := ValidateCohorts(cfg.Cohorts); err != nil {
		return nil, err
	}
	scale := cfg.LoadScale
	if scale <= 0 {
		scale = 1
	}
	var flows []sim.FlowSpec
	for i := range cfg.Cohorts {
		c := &cfg.Cohorts[i]
		size := c.Size.sampler()
		rate := c.RateFPS // peak flows per second
		if rate == 0 {
			rate = LoadRate(c.Load, cfg.CapacityBps, size)
		}
		weight := c.Weight
		if weight == 0 {
			weight = 1
		}
		rate *= weight * scale
		dur := c.DurationNs
		if dur == 0 {
			dur = cfg.DurationNs - c.StartNs
		}
		maxFlows := c.MaxFlows
		if maxFlows == 0 {
			maxFlows = cfg.MaxFlows
		}
		cf, err := Generate(g, Stream{
			Rate: rate, Process: c.Process, Shape: c.Shape, Profile: c.profile,
			Size: size, Ends: EndsFor(g, c.Placement, c.IncastTargets),
			StartNs: cfg.StartNs + c.StartNs, DurationNs: dur,
			Seed: cfg.Seed + 1_000_003*int64(i+1), FirstID: uint64(i)<<32 + 1,
			MaxFlows: maxFlows,
		})
		if err != nil {
			return nil, fmt.Errorf("%w (cohort %d %q)", err, i, c.Name)
		}
		flows = append(flows, cf...)
	}
	if len(flows) == 0 {
		return nil, fmt.Errorf("workload: cohorts produced no flows")
	}
	return flows, nil
}

// gapSampler returns the interarrival draw (seconds) of a process at
// the given peak rate: every process is scaled so the mean gap is
// exactly 1/rate.
func gapSampler(process string, shape, rate float64) (func(*rand.Rand) float64, error) {
	if !(rate > 0) || math.IsInf(rate, 1) {
		return nil, fmt.Errorf("workload: arrival rate %g flows/s is not a positive finite number", rate)
	}
	if shape == 0 {
		shape = 1
	}
	var scale float64
	var draw func(rng *rand.Rand, shape, scale float64) float64
	switch process {
	case ProcGamma:
		scale, draw = 1/(rate*shape), stats.SampleGamma // mean shape*scale = 1/rate
	case ProcWeibull:
		scale, draw = 1/(rate*math.Gamma(1+1/shape)), stats.SampleWeibull // mean-matched
	default:
		return func(rng *rand.Rand) float64 { return rng.ExpFloat64() / rate }, nil
	}
	if !(scale > 0) {
		return nil, fmt.Errorf("workload: %s shape %g at %g flows/s leaves no gap scale", process, shape, rate)
	}
	return func(rng *rand.Rand) float64 { return draw(rng, shape, scale) }, nil
}

// profile is the instantaneous acceptance probability of the cohort's
// temporal profile at elapsed ns into its window.
func (c *CohortSpec) profile(elapsedNs, durNs int64) float64 {
	switch c.Profile {
	case ProfileRamp:
		return float64(elapsedNs) / float64(durNs)
	case ProfileDiurnal:
		depth := c.Depth
		if depth == 0 {
			depth = 1
		}
		u := float64(elapsedNs%c.PeriodNs) / float64(c.PeriodNs)
		return 1 - depth*(0.5+0.5*math.Cos(2*math.Pi*u))
	case ProfileBurst:
		duty := c.Duty
		if duty == 0 {
			duty = 0.1
		}
		u := float64(elapsedNs%c.PeriodNs) / float64(c.PeriodNs)
		if u < duty {
			return 1
		}
		return 0
	}
	return 1
}
