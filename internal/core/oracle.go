package core

import (
	"contra/internal/policy"
	"contra/internal/topo"
)

// LinkMetrics supplies ground-truth per-directed-link metrics to the
// Oracle: utilization of the a→b direction in [0,1]. Latency and hop
// count come from the topology itself.
type LinkMetrics func(from, to topo.NodeID) float64

// Oracle computes the optimal policy-compliant route by brute force, in
// topology space and with nothing of the compiler: it enumerates every
// walk from src to dst of at most maxHops hops over up switch links,
// ranks each with the reference semantics (Policy.RankPath, whose
// regexes match with policy.MatchPath), and returns the best rank with
// the fewest-hop walks achieving it. Walks, not just simple paths,
// because a regular path constraint can make a route revisit a switch
// (a hairpin through a waypoint); a walk never passes through dst before
// its end, since traffic is delivered the first time it reaches its
// destination.
// The compiled protocol must converge to the rank of one of these walks
// under stable metrics — the "Optimal" objective of Figure 1 — provided
// maxHops is long enough to hold the best one.
func (c *Compiled) Oracle(src, dst topo.NodeID, util LinkMetrics, maxHops int) (policy.Rank, []topo.Path) {
	g := c.Topo
	best := policy.Infinite()
	var bestWalks []topo.Path
	walk := topo.Path{src}
	names := []string{g.Node(src).Name}
	var rec func(bottleneck float64, latNs int64)
	rec = func(bottleneck float64, latNs int64) {
		at := walk[len(walk)-1]
		if at == dst {
			r := c.Policy.RankPath(policy.PathInfo{Nodes: names, Util: bottleneck, Lat: float64(latNs) / 1e9})
			switch cmp := r.Cmp(best); {
			case cmp < 0, cmp == 0 && !r.IsInf() && len(walk) < len(bestWalks[0]):
				best = r
				bestWalks = append(bestWalks[:0], append(topo.Path(nil), walk...))
			case cmp == 0 && !r.IsInf() && len(walk) == len(bestWalks[0]):
				bestWalks = append(bestWalks, append(topo.Path(nil), walk...))
			}
			return
		}
		if len(walk) > maxHops {
			return
		}
		for _, next := range g.SwitchNeighbors(at) {
			walk, names = append(walk, next), append(names, g.Node(next).Name)
			rec(max(bottleneck, util(at, next)), latNs+g.LinkBetween(at, next).Delay)
			walk, names = walk[:len(walk)-1], names[:len(names)-1]
		}
	}
	if src != dst {
		rec(0, 0)
	}
	return best, bestWalks
}
