package policy

import (
	"fmt"
	"strings"
)

// This file provides the paper's Figure 3 policy catalog (P1-P9) as
// constructors, parameterized by the switch names they reference.

// ShortestPath is P1: classic shortest path routing (RIP).
func ShortestPath() *Policy {
	return MustParse("minimize(path.len)")
}

// MinUtil is P2: minimum utilization, the HULA policy. The paper's
// scalability experiments call this MU.
func MinUtil() *Policy {
	return MustParse("minimize(path.util)")
}

// WidestShortest is P3: rank by (utilization, length) lexicographically.
func WidestShortest() *Policy {
	return MustParse("minimize((path.util, path.len))")
}

// ShortestWidest is P4: rank by (length, utilization) lexicographically.
func ShortestWidest() *Policy {
	return MustParse("minimize((path.len, path.util))")
}

// Waypoint is P5: traffic must pass through one of the given waypoint
// switches; among compliant paths prefer least utilized. The paper's
// scalability experiments call the three-regex variant WP.
func Waypoint(waypoints ...string) *Policy {
	if len(waypoints) == 0 {
		panic("policy: Waypoint needs at least one waypoint")
	}
	alt := strings.Join(waypoints, " + ")
	return MustParse(fmt.Sprintf("minimize(if .* (%s) .* then path.util else inf)", alt))
}

// LinkPreference is P6: only paths traversing link X→Y are allowed,
// preferring least utilized.
func LinkPreference(x, y string) *Policy {
	return MustParse(fmt.Sprintf("minimize(if .* %s %s .* then path.util else inf)", x, y))
}

// WeightedLink is P7: add a penalty of w to paths crossing link X→Y,
// otherwise shortest paths.
func WeightedLink(x, y string, w float64) *Policy {
	return MustParse(fmt.Sprintf("minimize((if .* %s %s .* then %g else 0) + path.len)", x, y, w))
}

// SourceLocal is P8: traffic sourced at X minimizes utilization; all
// other traffic minimizes latency.
func SourceLocal(x string) *Policy {
	return MustParse(fmt.Sprintf("minimize(if %s .* then path.util else path.lat)", x))
}

// CongestionAware is P9: prefer least-utilized paths while the network
// is lightly loaded (< 80%% utilization), otherwise prefer shortest
// paths to save bandwidth globally. Non-isotonic; the compiler
// decomposes it into two probe types (§3 challenge 3). The paper's
// scalability experiments call this CA.
func CongestionAware() *Policy {
	return MustParse("minimize(if path.util < .8 then (1, 0, path.util) else (2, path.len, path.util))")
}

// Failover expresses Propane-style strict path preferences: the first
// path is used when available, then the second, and so on; traffic is
// dropped if none is available. Paths are given as node name sequences.
func Failover(paths ...[]string) *Policy {
	if len(paths) == 0 {
		panic("policy: Failover needs at least one path")
	}
	var b strings.Builder
	b.WriteString("minimize(")
	for i, p := range paths {
		fmt.Fprintf(&b, "if %s then %d else ", strings.Join(p, " "), i)
	}
	b.WriteString("inf)")
	return MustParse(b.String())
}

// Catalog returns every Figure 3 policy instantiated with placeholder
// switch names from the given alphabet (used by tests and the
// benchmark harness). Policies needing specific switches use the first
// few names.
func Catalog(names []string) map[string]*Policy {
	if len(names) < 2 {
		panic("policy: Catalog needs at least two switch names")
	}
	x, y := names[0], names[1]
	wp := []string{x}
	if len(names) >= 4 {
		wp = []string{names[2], names[3]}
	}
	return map[string]*Policy{
		"P1-shortest-path":    ShortestPath(),
		"P2-min-util":         MinUtil(),
		"P3-widest-shortest":  WidestShortest(),
		"P4-shortest-widest":  ShortestWidest(),
		"P5-waypoint":         Waypoint(wp...),
		"P6-link-preference":  LinkPreference(x, y),
		"P7-weighted-link":    WeightedLink(x, y, 10),
		"P8-source-local":     SourceLocal(x),
		"P9-congestion-aware": CongestionAware(),
	}
}
