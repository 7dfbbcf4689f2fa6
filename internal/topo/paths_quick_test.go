package topo

import (
	"container/heap"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

// Property-based tests for the path algorithms over random connected
// graphs, and a differential test of the cached queries against the
// uncached reference implementations at the bottom of this file.

func quickGraph(seed int64) *Graph {
	n := 5 + int(uint64(seed)%12)
	return RandomConnected(n, 3, seed)
}

func TestQuickShortestPathMatchesBFS(t *testing.T) {
	f := func(seed int64, a, b uint8) bool {
		g := quickGraph(seed)
		sw := g.Switches()
		src := sw[int(a)%len(sw)]
		dst := sw[int(b)%len(sw)]
		if src == dst {
			return true
		}
		p := g.ShortestPath(src, dst)
		d := g.HopsFrom(dst)[src]
		if d == math.MaxInt32 {
			return p == nil
		}
		return p != nil && int32(len(p)-1) == d
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickKShortestSortedAndLoopFree(t *testing.T) {
	f := func(seed int64, a, b uint8) bool {
		g := quickGraph(seed)
		sw := g.Switches()
		src := sw[int(a)%len(sw)]
		dst := sw[int(b)%len(sw)]
		if src == dst {
			return true
		}
		paths := g.KShortestPaths(src, dst, 5)
		prev := int64(-1)
		seenKeys := map[string]bool{}
		for _, p := range paths {
			// Endpoints.
			if p[0] != src || p[len(p)-1] != dst {
				return false
			}
			// Adjacent hops and loop freedom.
			seen := map[NodeID]bool{}
			for i, node := range p {
				if seen[node] {
					return false
				}
				seen[node] = true
				if i > 0 && g.LinkBetween(p[i-1], node) == nil {
					return false
				}
			}
			// Sorted by total latency.
			w := g.pathWeight(p)
			if w < prev {
				return false
			}
			prev = w
			// Distinct.
			key := ""
			for _, n := range p {
				key += g.Node(n).Name + "/"
			}
			if seenKeys[key] {
				return false
			}
			seenKeys[key] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickECMPNextHopsDecreaseDistance(t *testing.T) {
	f := func(seed int64, b uint8) bool {
		g := quickGraph(seed)
		sw := g.Switches()
		dst := sw[int(b)%len(sw)]
		dist := g.HopsFrom(dst)
		for _, s := range sw {
			for _, m := range g.ECMPNextHops(s, dst) {
				if dist[m] != dist[s]-1 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickAllSimplePathsAreSimpleAndCompliant(t *testing.T) {
	f := func(seed int64, a, b uint8) bool {
		g := quickGraph(seed)
		sw := g.Switches()
		src := sw[int(a)%len(sw)]
		dst := sw[int(b)%len(sw)]
		if src == dst {
			return true
		}
		for _, p := range g.AllSimplePaths(src, dst, 5, 100) {
			if p[0] != src || p[len(p)-1] != dst || len(p) > 6 {
				return false
			}
			seen := map[NodeID]bool{}
			for i, n := range p {
				if seen[n] {
					return false
				}
				seen[n] = true
				if i > 0 && g.LinkBetween(p[i-1], n) == nil {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// messyGraph builds a small graph that exercises what the generators
// never produce: switch and host IDs interleaved, parallel links,
// multi-homed and detached hosts, isolated switches and disconnected
// components. Link delays come from delay.
func messyGraph(rng *rand.Rand, delay func(*rand.Rand) int64) *Graph {
	g := New("messy")
	g.AddNode("s0", Switch)
	g.AddNode("s1", Switch)
	for i := 2; i < 4+rng.Intn(10); i++ {
		if rng.Intn(4) == 0 {
			g.AddNode(fmt.Sprintf("h%d", i), Host)
		} else {
			g.AddNode(fmt.Sprintf("s%d", i), Switch)
		}
	}
	for i := rng.Intn(3 * g.NumNodes()); i > 0; i-- {
		addRandomLink(g, rng, delay)
	}
	return g
}

func addRandomLink(g *Graph, rng *rand.Rand, delay func(*rand.Rand) int64) {
	a := NodeID(rng.Intn(g.NumNodes()))
	b := NodeID(rng.Intn(g.NumNodes()))
	if a != b {
		g.AddLink(a, b, 1e9, delay(rng))
	}
}

// randDelay draws a delay from 1–50 ns, so that MaxSwitchRTT almost
// always runs its Dijkstra path; uniformDelay gives every link the
// same one, so that it runs its BFS path.
func randDelay(rng *rand.Rand) int64 { return 1 + rng.Int63n(50) }
func uniformDelay(*rand.Rand) int64  { return 7 }

// TestQuickCachedQueriesMatchReference interleaves random mutations
// (mostly SetDown flips, some AddLink and AddNode) with full query
// sweeps, on a graph and on a clone taken halfway; every sweep runs on
// a snapshot that was warm before the mutation. Each seed runs twice:
// with random link delays and with one delay for every link.
func TestQuickCachedQueriesMatchReference(t *testing.T) {
	f := func(seed int64) bool {
		for _, delay := range []func(*rand.Rand) int64{randDelay, uniformDelay} {
			rng := rand.New(rand.NewSource(seed))
			g := messyGraph(rng, delay)
			graphs := []*Graph{g}
			for step := 0; step < 10; step++ {
				if step == 5 {
					graphs = append(graphs, g.Clone())
				}
				for _, g := range graphs {
					switch r := rng.Intn(10); {
					case r < 7 && g.NumLinks() > 0:
						id := LinkID(rng.Intn(g.NumLinks()))
						g.SetDown(id, !g.Link(id).Down)
					case r < 9:
						addRandomLink(g, rng, delay)
					default:
						g.AddNode(fmt.Sprintf("n%d", g.NumNodes()), Kind(rng.Intn(2)))
					}
					if err := checkQueries(g); err != nil {
						t.Logf("seed %d step %d: %v", seed, step, err)
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// checkQueries compares every cached query on g, for every node and
// node pair, with its reference implementation.
func checkQueries(g *Graph) error {
	if got, want := g.Switches(), refNodes(g, Switch); !slices.Equal(got, want) {
		return fmt.Errorf("Switches = %v, want %v", got, want)
	}
	if got, want := g.Hosts(), refNodes(g, Host); !slices.Equal(got, want) {
		return fmt.Errorf("Hosts = %v, want %v", got, want)
	}
	var names []string
	for _, id := range refNodes(g, Switch) {
		names = append(names, g.Node(id).Name)
	}
	slices.Sort(names)
	if got := g.SortedNames(); !slices.Equal(got, names) {
		return fmt.Errorf("SortedNames = %v, want %v", got, names)
	}
	for i := range g.Nodes() {
		n := NodeID(i)
		if got, want := g.SwitchNeighbors(n), refSwitchNeighbors(g, n); !slices.Equal(got, want) {
			return fmt.Errorf("SwitchNeighbors(%d) = %v, want %v", n, got, want)
		}
		if got, want := g.HopsFrom(n), refHopsFrom(g, n); !slices.Equal(got, want) {
			return fmt.Errorf("HopsFrom(%d) = %v, want %v", n, got, want)
		}
		if got, want := g.LatencyFrom(n), refLatencyFrom(g, n); !slices.Equal(got, want) {
			return fmt.Errorf("LatencyFrom(%d) = %v, want %v", n, got, want)
		}
		for j := range g.Nodes() {
			m := NodeID(j)
			if got, want := g.PortTo(n, m), refPortTo(g, n, m); got != want {
				return fmt.Errorf("PortTo(%d,%d) = %d, want %d", n, m, got, want)
			}
		}
	}
	for _, dst := range g.Switches() {
		want := refECMPNextHops(g, dst)
		for _, s := range g.Switches() {
			if got := g.ECMPNextHops(s, dst); !slices.Equal(got, want[s]) {
				return fmt.Errorf("ECMPNextHops(%d,%d) = %v, want %v", s, dst, got, want[s])
			}
			if got, want := g.ShortestPath(s, dst), refShortestPath(g, s, dst); !got.Equal(want) {
				return fmt.Errorf("ShortestPath(%d,%d) = %v, want %v", s, dst, got, want)
			}
		}
	}
	if got, want := g.MaxSwitchRTT(), refMaxSwitchRTT(g); got != want {
		return fmt.Errorf("MaxSwitchRTT = %d, want %d", got, want)
	}
	return nil
}

// Reference implementations: the query bodies as they were before the
// per-graph snapshot, recomputing from nodes, links and ports on every
// call. They define the answers, element order included.

// refPorts is a node's ports as AddLink appended them, one link at a
// time: its links in ID order, each naming the far end.
func refPorts(g *Graph, n NodeID) []Port {
	var out []Port
	for _, l := range g.links {
		switch n {
		case l.A:
			out = append(out, Port{Link: l.ID, Peer: l.B})
		case l.B:
			out = append(out, Port{Link: l.ID, Peer: l.A})
		}
	}
	return out
}

func refNodes(g *Graph, kind Kind) []NodeID {
	var out []NodeID
	for _, n := range g.nodes {
		if n.Kind == kind {
			out = append(out, n.ID)
		}
	}
	return out
}

func refSwitchNeighbors(g *Graph, n NodeID) []NodeID {
	var out []NodeID
	for _, p := range refPorts(g, n) {
		if g.links[p.Link].Down {
			continue
		}
		if g.nodes[p.Peer].Kind == Switch {
			out = append(out, p.Peer)
		}
	}
	return out
}

// refPortTo is the linear scan: the lowest port wins among parallel
// links, up or down.
func refPortTo(g *Graph, from, to NodeID) int {
	for i, p := range refPorts(g, from) {
		if p.Peer == to {
			return i
		}
	}
	return -1
}

func refHopsFrom(g *Graph, src NodeID) []int32 {
	dist := make([]int32, len(g.nodes))
	for i := range dist {
		dist[i] = math.MaxInt32
	}
	dist[src] = 0
	queue := []NodeID{src}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		for _, m := range refSwitchNeighbors(g, n) {
			if dist[m] == math.MaxInt32 {
				dist[m] = dist[n] + 1
				queue = append(queue, m)
			}
		}
	}
	return dist
}

// refECMPNextHops is the historical all-switch form, indexed by node.
func refECMPNextHops(g *Graph, dst NodeID) [][]NodeID {
	dist := refHopsFrom(g, dst)
	out := make([][]NodeID, len(g.nodes))
	for _, s := range refNodes(g, Switch) {
		if s == dst || dist[s] == math.MaxInt32 {
			continue
		}
		var nh []NodeID
		for _, m := range refSwitchNeighbors(g, s) {
			if dist[m] == dist[s]-1 {
				nh = append(nh, m)
			}
		}
		sort.Slice(nh, func(i, j int) bool { return nh[i] < nh[j] })
		out[s] = nh
	}
	return out
}

func refShortestPath(g *Graph, src, dst NodeID) Path {
	if src == dst {
		return Path{src}
	}
	dist := refHopsFrom(g, dst)
	if dist[src] == math.MaxInt32 {
		return nil
	}
	path := Path{src}
	for cur := src; cur != dst; {
		next := NodeID(-1)
		for _, m := range refSwitchNeighbors(g, cur) {
			if dist[m] == dist[cur]-1 && (next == -1 || m < next) {
				next = m
			}
		}
		path = append(path, next)
		cur = next
	}
	return path
}

func refLatencyFrom(g *Graph, src NodeID) []int64 {
	dist := make([]int64, len(g.nodes))
	for i := range dist {
		dist[i] = infDist
	}
	dist[src] = 0
	pq := &refHeap{{src, 0}}
	for pq.Len() > 0 {
		it := heap.Pop(pq).(nodeDist)
		if it.d > dist[it.n] {
			continue
		}
		for _, p := range refPorts(g, it.n) {
			l := &g.links[p.Link]
			if l.Down || g.nodes[p.Peer].Kind != Switch {
				continue
			}
			if nd := it.d + l.Delay; nd < dist[p.Peer] {
				dist[p.Peer] = nd
				heap.Push(pq, nodeDist{p.Peer, nd})
			}
		}
	}
	return dist
}

func refMaxSwitchRTT(g *Graph) int64 {
	var worst int64
	for _, s := range refNodes(g, Switch) {
		dist := refLatencyFrom(g, s)
		for _, t := range refNodes(g, Switch) {
			if dist[t] > worst && dist[t] < infDist {
				worst = dist[t]
			}
		}
	}
	return 2 * worst
}

// refHeap is the boxed container/heap priority queue distHeap replaced.
type refHeap []nodeDist

func (h refHeap) Len() int            { return len(h) }
func (h refHeap) Less(i, j int) bool  { return h[i].d < h[j].d }
func (h refHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x interface{}) { *h = append(*h, x.(nodeDist)) }
func (h *refHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}
