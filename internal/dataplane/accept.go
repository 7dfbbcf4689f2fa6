package dataplane

import (
	"contra/internal/policy"
	"contra/internal/sim"
)

// decide is PROCESSPROBE's accept rule (Figure 7) with §5.1's versions
// and §5.4's expiry, for an advertisement of version ver to a register
// holding a route (present) at version held; upstream says it came from
// the route's own upstream (in-port and tag), expired that the register's
// upstream has gone silent. In order: an empty register takes it (New),
// an older version is dropped (Outdated), the own upstream refreshes at a
// newer version (Newer) or the same one (Refresh), an expired register
// takes any offer (Expired). It counts the deciding case in n. With
// neither take nor drop only a strict improvement may displace the live
// route, which bounds churn: the caller compares and counts Better or Lost.
//
// Refresh is not DSDV's rule, which takes an equal sequence number only
// with a better metric: an equal-version refresh is accepted even when
// its metric worsened, and re-multicast, so one version can circulate
// and keep a cycle of registers fresh (ROADMAP item 1).
func decide(n *sim.ProbeCounts, present bool, held, ver uint32, upstream, expired bool) (take, drop bool) {
	switch {
	case !present:
		n.New++
	case ver < held:
		n.Outdated++
		return false, true
	case upstream && ver > held:
		n.Newer++
	case upstream:
		n.Refresh++
	case expired:
		n.Expired++
	default:
		return false, false
	}
	return true, false
}

// fold is UPDATEMVEC for one metric: the link's utilisation util or
// latency latAdd folded into the advertised value x.
func fold(m policy.Metric, x, util, latAdd float64) float64 {
	switch m {
	case policy.Util:
		if util > x {
			x = util
		}
	case policy.Lat:
		x += latAdd
	case policy.Len:
		x++
	}
	return x
}
