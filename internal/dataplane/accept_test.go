package dataplane

import (
	"testing"

	"contra/internal/sim"
)

// counted names the one counter n holds, "" when it holds none and
// "several" when it holds more than one.
func counted(n sim.ProbeCounts) string {
	name := ""
	for _, c := range []struct {
		name string
		v    int64
	}{
		{"New", n.New}, {"Newer", n.Newer}, {"Refresh", n.Refresh}, {"Expired", n.Expired},
		{"Better", n.Better}, {"Outdated", n.Outdated}, {"Lost", n.Lost}, {"Forwards", n.Forwards},
	} {
		switch {
		case c.v == 0:
		case name != "" || c.v != 1:
			return "several"
		default:
			name = c.name
		}
	}
	return name
}

// TestDecideTable writes the accept rule out for every combination of a
// register with or without a route, an advertised version older than,
// equal to or newer than the one held, from the route's own upstream or
// not, and the register expired or not. "" is the strict-improvement
// case: decide neither takes nor drops and counts nothing, and the
// merge's own compare decides.
func TestDecideTable(t *testing.T) {
	const held = 5
	const older, equal, newer = held - 1, held, held + 1
	for _, tc := range []struct {
		present  bool
		ver      uint32
		upstream bool
		expired  bool
		want     string
		take     bool
		drop     bool
	}{
		{false, older, false, false, "New", true, false},
		{false, older, false, true, "New", true, false},
		{false, older, true, false, "New", true, false},
		{false, older, true, true, "New", true, false},
		{false, equal, false, false, "New", true, false},
		{false, equal, false, true, "New", true, false},
		{false, equal, true, false, "New", true, false},
		{false, equal, true, true, "New", true, false},
		{false, newer, false, false, "New", true, false},
		{false, newer, false, true, "New", true, false},
		{false, newer, true, false, "New", true, false},
		{false, newer, true, true, "New", true, false},
		{true, older, false, false, "Outdated", false, true},
		{true, older, false, true, "Outdated", false, true},
		{true, older, true, false, "Outdated", false, true},
		{true, older, true, true, "Outdated", false, true},
		{true, equal, false, false, "", false, false},
		{true, equal, false, true, "Expired", true, false},
		{true, equal, true, false, "Refresh", true, false},
		{true, equal, true, true, "Refresh", true, false},
		{true, newer, false, false, "", false, false},
		{true, newer, false, true, "Expired", true, false},
		{true, newer, true, false, "Newer", true, false},
		{true, newer, true, true, "Newer", true, false},
	} {
		var n sim.ProbeCounts
		take, drop := decide(&n, tc.present, held, tc.ver, tc.upstream, tc.expired)
		if got := counted(n); got != tc.want || take != tc.take || drop != tc.drop {
			t.Errorf("present=%v ver=%d (held %d) upstream=%v expired=%v: counted %q take=%v drop=%v, want %q take=%v drop=%v",
				tc.present, tc.ver, held, tc.upstream, tc.expired, got, take, drop, tc.want, tc.take, tc.drop)
		}
	}
}
