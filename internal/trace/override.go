package trace

import "fmt"

// Counterfactual override modes: what choice replaces the policy's
// source decision for a pinned flow. Overrides apply at the source
// switch only — the source picks the path (tag, pid) and transit
// switches follow the tag, so the replayed path is one some switch
// actually advertised.
const (
	// ModeRunnerUp replays pinned flows over the recorded runner-up:
	// the best live alternative on a different egress port.
	ModeRunnerUp = "runnerup"
	// ModeECMP replays pinned flows with a rank-blind deterministic
	// hash spread over every live candidate, approximating what ECMP
	// would have picked among the policy-compliant next hops.
	ModeECMP = "ecmp"
)

// ParseMode validates a counterfactual override mode name.
func ParseMode(s string) (string, error) {
	switch s {
	case "", ModeRunnerUp:
		return ModeRunnerUp, nil
	case ModeECMP:
		return ModeECMP, nil
	}
	return "", fmt.Errorf("trace: unknown override mode %q (want %s or %s)", s, ModeRunnerUp, ModeECMP)
}

// Overrides names the flows a counterfactual replay pins to an
// alternative forwarding choice, and which alternative. Routers
// consult it per fresh (non-flowlet-pinned) source decision; a nil
// *Overrides means no replay is active.
type Overrides struct {
	mode  string
	flows map[uint64]bool
}

// NewOverrides builds an override set. The mode must have been
// validated with ParseMode.
func NewOverrides(mode string, flows []uint64) *Overrides {
	o := &Overrides{mode: mode, flows: make(map[uint64]bool, len(flows))}
	for _, f := range flows {
		o.flows[f] = true
	}
	return o
}

// Mode returns the override mode.
func (o *Overrides) Mode() string { return o.mode }

// Match reports whether the flow is pinned.
func (o *Overrides) Match(flow uint64) bool { return o.flows[flow] }
