package topo

import (
	"cmp"
	"math"
	"slices"
	"sync"
	"sync/atomic"
)

// snapshot is everything derived from a Graph at one generation. The
// eager part (node lists, ports, adjacency, reverse-port table) is
// immutable once published; hop vectors and the max RTT are filled on
// first use under mu and never change afterwards. A snapshot is never updated in
// place: a mutator bumps Graph.gen and the next query builds a new one.
type snapshot struct {
	gen      uint64
	switches []NodeID
	hosts    []NodeID

	// CSR adjacency: the switch neighbors of n over up links, in port
	// order, are adj[adjOff[n]:adjOff[n+1]].
	adjOff []int32
	adj    []NodeID

	// Ports and the reverse-port table, CSR over one offset array:
	// n's ports, its links in ID order, are ports[portOff[n]:portOff[n+1]],
	// and the same window of byPeer holds them sorted by (peer, port).
	// Down links are included, as PortTo ignores link state.
	portOff []int32
	ports   []Port
	byPeer  []portRef

	// swDelay is the delay every up switch–switch link shares, or -1
	// when two of them differ; 0 when there is no such link.
	swDelay int64

	mu        sync.Mutex // serializes the lazy fills below; owns queue
	hops      []hopRow   // per source node
	queue     []NodeID   // BFS scratch
	rttDone   atomic.Bool
	rtt       int64
	namesDone atomic.Bool
	names     []string // switch names, sorted
}

// portRef is one reverse-port table entry: the peer reached through
// local port index port.
type portRef struct {
	peer NodeID
	port int32
}

// hopRow is one lazily filled hop vector; dist is written once, before
// done is set.
type hopRow struct {
	done atomic.Bool
	dist []int32
}

// snapshot returns the derived state for the graph's current
// generation, building and publishing it if a mutator ran since the
// last query. Concurrent readers may race to build; one wins the
// publish and all of them end up sharing its snapshot.
func (g *Graph) snapshot() *snapshot {
	old := g.snap.Load()
	if old != nil && old.gen == g.gen {
		return old
	}
	s := g.buildSnapshot()
	if g.snap.CompareAndSwap(old, s) {
		return s
	}
	return g.snap.Load()
}

func (g *Graph) buildSnapshot() *snapshot {
	n := len(g.nodes)
	nsw := 0
	for i := range g.nodes {
		if g.nodes[i].Kind == Switch {
			nsw++
		}
	}
	ids := make([]NodeID, n)
	s := &snapshot{
		gen:      g.gen,
		switches: ids[:0:nsw],
		hosts:    ids[nsw:nsw],
		adjOff:   make([]int32, n+1),
		adj:      make([]NodeID, 0, 2*len(g.links)),
		portOff:  make([]int32, n+1),
		ports:    make([]Port, 2*len(g.links)),
		byPeer:   make([]portRef, 2*len(g.links)),
		hops:     make([]hopRow, n),
		queue:    make([]NodeID, 0, n),
	}
	// Count each node's links into portOff[id+1], then lay the links out
	// in ID order with portOff[id] as node id's cursor: it ends on the
	// row's end, and one shift puts every offset back in place.
	for i := range g.links {
		s.portOff[g.links[i].A+1]++
		s.portOff[g.links[i].B+1]++
	}
	for id := 1; id < n; id++ {
		s.portOff[id+1] += s.portOff[id]
	}
	for i := range g.links {
		l := &g.links[i]
		s.ports[s.portOff[l.A]] = Port{Link: l.ID, Peer: l.B}
		s.portOff[l.A]++
		s.ports[s.portOff[l.B]] = Port{Link: l.ID, Peer: l.A}
		s.portOff[l.B]++
	}
	copy(s.portOff[1:], s.portOff[:n])
	s.portOff[0] = 0
	shared := false // swDelay holds the delay of some up switch–switch link
	for id := range g.nodes {
		isSwitch := g.nodes[id].Kind == Switch
		if isSwitch {
			s.switches = append(s.switches, NodeID(id))
		} else {
			s.hosts = append(s.hosts, NodeID(id))
		}
		lo, hi := s.portOff[id], s.portOff[id+1]
		for i, p := range s.ports[lo:hi] {
			s.byPeer[int(lo)+i] = portRef{peer: p.Peer, port: int32(i)}
			if l := &g.links[p.Link]; !l.Down && g.nodes[p.Peer].Kind == Switch {
				s.adj = append(s.adj, p.Peer)
				switch {
				case !isSwitch:
				case !shared:
					s.swDelay, shared = l.Delay, true
				case l.Delay != s.swDelay:
					s.swDelay = -1
				}
			}
		}
		// Entries were written in port order, so a stable sort on the
		// peer alone leaves the lowest port first among parallel links.
		slices.SortStableFunc(s.byPeer[lo:hi], func(a, b portRef) int {
			return cmp.Compare(a.peer, b.peer)
		})
		s.adjOff[id+1] = int32(len(s.adj))
	}
	return s
}

// portsOf returns n's row of the ports, clipped so that an append by
// the caller cannot write into the next row.
func (s *snapshot) portsOf(n NodeID) []Port {
	lo, hi := s.portOff[n], s.portOff[n+1]
	return s.ports[lo:hi:hi]
}

// neighbors returns n's row of the adjacency, clipped so that an
// append by the caller cannot write into the next row.
func (s *snapshot) neighbors(n NodeID) []NodeID {
	lo, hi := s.adjOff[n], s.adjOff[n+1]
	return s.adj[lo:hi:hi]
}

// portTo binary-searches from's reverse-port row for the lowest port
// reaching to.
func (s *snapshot) portTo(from, to NodeID) int {
	row := s.byPeer[s.portOff[from]:s.portOff[from+1]]
	i, _ := slices.BinarySearchFunc(row, to, func(r portRef, to NodeID) int {
		return cmp.Compare(r.peer, to)
	})
	if i < len(row) && row[i].peer == to {
		return int(row[i].port)
	}
	return -1
}

// fillOnce runs fill under mu unless done is already set, and sets it:
// sync.Once with one mutex for all lazy parts, so that they can share
// scratch.
func (s *snapshot) fillOnce(done *atomic.Bool, fill func()) {
	if done.Load() {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if !done.Load() {
		fill()
		done.Store(true)
	}
}

// sortedNames returns the switch names sorted, sorting them on first
// use; clipped so that an append by the caller copies.
func (s *snapshot) sortedNames(g *Graph) []string {
	s.fillOnce(&s.namesDone, func() {
		s.names = make([]string, len(s.switches))
		for i, id := range s.switches {
			s.names[i] = g.nodes[id].Name
		}
		slices.Sort(s.names)
	})
	return s.names[:len(s.names):len(s.names)]
}

// hopsFrom returns the hop vector of src, running its BFS on first use.
func (s *snapshot) hopsFrom(src NodeID) []int32 {
	r := &s.hops[src]
	s.fillOnce(&r.done, func() { r.dist = s.bfs(src) })
	return r.dist
}

// bfs computes hop distances from src over the adjacency. Caller
// holds mu.
func (s *snapshot) bfs(src NodeID) []int32 {
	dist := make([]int32, len(s.hops))
	for i := range dist {
		dist[i] = math.MaxInt32
	}
	dist[src] = 0
	q := append(s.queue[:0], src) // never outgrows its capacity: a node enters once
	for head := 0; head < len(q); head++ {
		n := q[head]
		for _, m := range s.neighbors(n) {
			if dist[m] == math.MaxInt32 {
				dist[m] = dist[n] + 1
				q = append(q, m)
			}
		}
	}
	return dist
}

// maxSwitchRTT returns the cached all-pairs bound, computing it on
// first use.
func (s *snapshot) maxSwitchRTT(g *Graph) int64 {
	s.fillOnce(&s.rttDone, func() { s.rtt = s.switchRTT(g) })
	return s.rtt
}

// switchRTT is twice the longest shortest-latency path between two
// switches. When every up switch–switch link has the same delay d, a
// path's latency is d times its hops, so that is 2·d·(hop diameter);
// otherwise it runs one Dijkstra per switch with a shared distance
// buffer and heap. Caller holds mu.
func (s *snapshot) switchRTT(g *Graph) int64 {
	if s.swDelay >= 0 {
		return 2 * s.swDelay * int64(s.hopDiameter())
	}
	var worst int64
	dist := make([]int64, len(s.hops))
	var h distHeap
	for _, src := range s.switches {
		g.latencyFrom(src, dist, &h)
		for _, t := range s.switches {
			if dist[t] > worst && dist[t] < infDist {
				worst = dist[t]
			}
		}
	}
	return 2 * worst
}

// hopDiameter returns the largest finite hop distance between two
// switches over the adjacency. It runs the BFS from 64 switches at
// once: bit b of reach[n] says the batch's source b has reached n, and
// front[n] holds the bits that reached n at the current level. Each
// level pushes from the frontier list only, and a node joins the next
// list when that level brings it a source it had not seen, so a batch
// costs at most one BFS per source. Caller holds mu.
func (s *snapshot) hopDiameter() int {
	n := len(s.hops)
	reach := make([]uint64, n)
	front := make([]uint64, n)
	next := make([]uint64, n)
	cur := make([]NodeID, 0, n) // a node enters a level's list once
	nxt := make([]NodeID, 0, n)
	diam := 0
	for lo := 0; lo < len(s.switches); lo += 64 {
		clear(reach) // front is all zero, and cur empty, between batches
		for b, src := range s.switches[lo:min(lo+64, len(s.switches))] {
			reach[src] = 1 << b
			front[src] = 1 << b
			cur = append(cur, src)
		}
		for depth := 1; len(cur) > 0; depth++ {
			nxt = nxt[:0]
			for _, u := range cur {
				bits := front[u]
				front[u] = 0
				for _, v := range s.neighbors(u) {
					if add := bits &^ reach[v]; add != 0 {
						if next[v] == 0 {
							nxt = append(nxt, v)
						}
						next[v] |= add
						reach[v] |= add
					}
				}
			}
			if len(nxt) > 0 {
				diam = max(diam, depth)
			}
			front, next = next, front
			cur, nxt = nxt, cur
		}
	}
	return diam
}
