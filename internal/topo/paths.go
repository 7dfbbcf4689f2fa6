package topo

import (
	"math"
	"slices"
	"sort"
)

const infDist = int64(1) << 62

// HopsFrom returns the hop-count distance from src to every switch over
// the switch subgraph (up links only). Unreachable nodes and hosts get
// math.MaxInt32. The vector is computed once per graph state and
// shared: it must not be modified.
func (g *Graph) HopsFrom(src NodeID) []int32 { return g.snapshot().hopsFrom(src) }

// LatencyFrom returns shortest-latency distance (ns) from src to every
// switch over up links (Dijkstra). Unreachable entries are a large
// sentinel.
func (g *Graph) LatencyFrom(src NodeID) []int64 {
	dist := make([]int64, len(g.nodes))
	var h distHeap
	g.latencyFrom(src, dist, &h)
	return dist
}

// latencyFrom is LatencyFrom into a caller-owned distance vector and
// heap, so all-pairs callers reuse both.
func (g *Graph) latencyFrom(src NodeID, dist []int64, h *distHeap) {
	for i := range dist {
		dist[i] = infDist
	}
	dist[src] = 0
	*h = append((*h)[:0], nodeDist{src, 0})
	for len(*h) > 0 {
		it := h.pop()
		if it.d > dist[it.n] {
			continue
		}
		for _, p := range g.Ports(it.n) {
			l := &g.links[p.Link]
			if l.Down || g.nodes[p.Peer].Kind != Switch {
				continue
			}
			nd := it.d + l.Delay
			if nd < dist[p.Peer] {
				dist[p.Peer] = nd
				h.push(nodeDist{p.Peer, nd})
			}
		}
	}
}

type nodeDist struct {
	n NodeID
	d int64
}

// distHeap is a binary min-heap on distance. push and pop sift exactly
// as container/heap does, so entries at equal distance pop in the same
// order as under the boxed heap this replaced; dijkstraPath's choice
// among equal-latency paths, and so SPAIN's path sets, depend on it.
type distHeap []nodeDist

func (h *distHeap) push(x nodeDist) {
	a := append(*h, x)
	*h = a
	for j := len(a) - 1; ; {
		i := (j - 1) / 2 // parent
		if i == j || a[j].d >= a[i].d {
			break
		}
		a[i], a[j] = a[j], a[i]
		j = i
	}
}

func (h *distHeap) pop() nodeDist {
	a := *h
	n := len(a) - 1
	a[0], a[n] = a[n], a[0]
	for i := 0; ; {
		j := 2*i + 1 // left child
		if j >= n {
			break
		}
		if r := j + 1; r < n && a[r].d < a[j].d {
			j = r
		}
		if a[j].d >= a[i].d {
			break
		}
		a[i], a[j] = a[j], a[i]
		i = j
	}
	*h = a[:n]
	return a[n]
}

// ECMPNextHops returns the switch neighbors of switch s that lie on
// some shortest (hop-count) path from s to dst, in ascending NodeID
// order; a neighbor joined to s by several up links appears once per
// link. It is nil when s is dst or cannot reach it.
func (g *Graph) ECMPNextHops(s, dst NodeID) []NodeID {
	return g.AppendECMPNextHops(nil, s, dst)
}

// AppendECMPNextHops appends ECMPNextHops(s, dst) to buf and returns
// the extended slice: a caller querying many destinations reuses one
// buffer, and the query allocates only to grow it.
func (g *Graph) AppendECMPNextHops(buf []NodeID, s, dst NodeID) []NodeID {
	sn := g.snapshot()
	dist := sn.hopsFrom(dst) // distance *to* dst == from dst (undirected)
	if s == dst || dist[s] == math.MaxInt32 {
		return buf
	}
	start := len(buf)
	for _, m := range sn.neighbors(s) {
		if dist[m] == dist[s]-1 {
			buf = append(buf, m)
		}
	}
	slices.Sort(buf[start:])
	return buf
}

// Path is a sequence of switch node IDs from source to destination,
// inclusive.
type Path []NodeID

// Equal reports whether two paths are identical.
func (p Path) Equal(q Path) bool {
	if len(p) != len(q) {
		return false
	}
	for i := range p {
		if p[i] != q[i] {
			return false
		}
	}
	return true
}

// ShortestPath returns one shortest hop-count path from src to dst over
// up switch links, or nil if unreachable. Ties break toward lower node
// IDs, making the result deterministic.
func (g *Graph) ShortestPath(src, dst NodeID) Path {
	if src == dst {
		return Path{src}
	}
	sn := g.snapshot()
	dist := sn.hopsFrom(dst)
	if dist[src] == math.MaxInt32 {
		return nil
	}
	path := Path{src}
	cur := src
	for cur != dst {
		next := NodeID(-1)
		for _, m := range sn.neighbors(cur) {
			if dist[m] == dist[cur]-1 && (next == -1 || m < next) {
				next = m
			}
		}
		if next == -1 {
			return nil
		}
		path = append(path, next)
		cur = next
	}
	return path
}

// pathWeight computes total latency of a path, or -1 if any hop is not
// a live link.
func (g *Graph) pathWeight(p Path) int64 {
	var w int64
	for i := 0; i+1 < len(p); i++ {
		l := g.LinkBetween(p[i], p[i+1])
		if l == nil || l.Down {
			return -1
		}
		w += l.Delay
	}
	return w
}

// dijkstraPath returns the minimum-latency path from src to dst over up
// switch links, avoiding banned links ("a-b" canonical keys) and banned
// nodes. Returns nil if none exists.
func (g *Graph) dijkstraPath(src, dst NodeID, bannedLink map[[2]NodeID]bool, bannedNode map[NodeID]bool) Path {
	dist := make(map[NodeID]int64)
	prev := make(map[NodeID]NodeID)
	dist[src] = 0
	pq := distHeap{{src, 0}}
	for len(pq) > 0 {
		it := pq.pop()
		if d, ok := dist[it.n]; ok && it.d > d {
			continue
		}
		if it.n == dst {
			break
		}
		for _, p := range g.Ports(it.n) {
			l := &g.links[p.Link]
			if l.Down || g.nodes[p.Peer].Kind != Switch {
				continue
			}
			if bannedNode[p.Peer] {
				continue
			}
			key := linkKey(it.n, p.Peer)
			if bannedLink[key] {
				continue
			}
			nd := it.d + l.Delay
			if d, ok := dist[p.Peer]; !ok || nd < d {
				dist[p.Peer] = nd
				prev[p.Peer] = it.n
				pq.push(nodeDist{p.Peer, nd})
			}
		}
	}
	if _, ok := dist[dst]; !ok {
		return nil
	}
	var rev Path
	for cur := dst; ; {
		rev = append(rev, cur)
		if cur == src {
			break
		}
		cur = prev[cur]
	}
	path := make(Path, len(rev))
	for i := range rev {
		path[i] = rev[len(rev)-1-i]
	}
	return path
}

func linkKey(a, b NodeID) [2]NodeID {
	if a > b {
		a, b = b, a
	}
	return [2]NodeID{a, b}
}

// KShortestPaths returns up to k loop-free minimum-latency paths from
// src to dst (Yen's algorithm). Used by the SPAIN baseline to build its
// static path sets.
func (g *Graph) KShortestPaths(src, dst NodeID, k int) []Path {
	if k <= 0 {
		return nil
	}
	first := g.dijkstraPath(src, dst, nil, nil)
	if first == nil {
		return nil
	}
	paths := []Path{first}
	var candidates []Path
	for len(paths) < k {
		last := paths[len(paths)-1]
		for i := 0; i+1 < len(last); i++ {
			spurNode := last[i]
			rootPath := last[:i+1]
			bannedLink := make(map[[2]NodeID]bool)
			bannedNode := make(map[NodeID]bool)
			for _, p := range paths {
				if len(p) > i && Path(p[:i+1]).Equal(rootPath) && len(p) > i+1 {
					bannedLink[linkKey(p[i], p[i+1])] = true
				}
			}
			for _, n := range rootPath[:len(rootPath)-1] {
				bannedNode[n] = true
			}
			spur := g.dijkstraPath(spurNode, dst, bannedLink, bannedNode)
			if spur == nil {
				continue
			}
			total := append(append(Path{}, rootPath[:len(rootPath)-1]...), spur...)
			dup := false
			for _, c := range candidates {
				if c.Equal(total) {
					dup = true
					break
				}
			}
			for _, p := range paths {
				if p.Equal(total) {
					dup = true
					break
				}
			}
			if !dup {
				candidates = append(candidates, total)
			}
		}
		if len(candidates) == 0 {
			break
		}
		sort.Slice(candidates, func(a, b int) bool {
			wa, wb := g.pathWeight(candidates[a]), g.pathWeight(candidates[b])
			if wa != wb {
				return wa < wb
			}
			return len(candidates[a]) < len(candidates[b])
		})
		paths = append(paths, candidates[0])
		candidates = candidates[1:]
	}
	return paths
}

// AllSimplePaths enumerates every loop-free switch path from src to dst
// with at most maxHops links, stopping after limit paths (0 = no
// limit). Exponential: intended for small test topologies and
// brute-force ground truth only.
func (g *Graph) AllSimplePaths(src, dst NodeID, maxHops, limit int) []Path {
	var out []Path
	onPath := make([]bool, len(g.nodes))
	var cur Path
	var rec func(n NodeID)
	rec = func(n NodeID) {
		if limit > 0 && len(out) >= limit {
			return
		}
		cur = append(cur, n)
		onPath[n] = true
		defer func() {
			cur = cur[:len(cur)-1]
			onPath[n] = false
		}()
		if n == dst {
			out = append(out, append(Path{}, cur...))
			return
		}
		if len(cur) > maxHops {
			return
		}
		for _, m := range g.SwitchNeighbors(n) {
			if !onPath[m] {
				rec(m)
			}
		}
	}
	rec(src)
	return out
}

// Names renders a path as node names (for tests and tracing).
func (g *Graph) Names(p Path) []string {
	out := make([]string, len(p))
	for i, n := range p {
		out[i] = g.nodes[n].Name
	}
	return out
}
