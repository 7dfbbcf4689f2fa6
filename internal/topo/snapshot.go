package topo

import (
	"cmp"
	"math"
	"slices"
	"sync"
	"sync/atomic"
)

// snapshot is everything derived from a Graph at one generation. The
// eager part (node lists, adjacency, reverse-port table) is immutable
// once published; hop vectors and the max RTT are filled on first use
// under mu and never change afterwards. A snapshot is never updated in
// place: a mutator bumps Graph.gen and the next query builds a new one.
type snapshot struct {
	gen      uint64
	switches []NodeID
	hosts    []NodeID

	// CSR adjacency: the switch neighbors of n over up links, in port
	// order, are adj[adjOff[n]:adjOff[n+1]].
	adjOff []int32
	adj    []NodeID

	// Reverse-port table, CSR: n's ports sorted by (peer, port) are
	// byPeer[portOff[n]:portOff[n+1]]. Down links are included, as
	// PortTo ignores link state.
	portOff []int32
	byPeer  []portRef

	mu      sync.Mutex // serializes the lazy fills below; owns queue
	hops    []hopRow   // per source node
	queue   []NodeID   // BFS scratch
	rttDone atomic.Bool
	rtt     int64
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
	s := &snapshot{
		gen:     g.gen,
		adjOff:  make([]int32, n+1),
		adj:     make([]NodeID, 0, 2*len(g.links)),
		portOff: make([]int32, n+1),
		byPeer:  make([]portRef, 0, 2*len(g.links)),
		hops:    make([]hopRow, n),
		queue:   make([]NodeID, 0, n),
	}
	for id, ps := range g.ports {
		if g.nodes[id].Kind == Switch {
			s.switches = append(s.switches, NodeID(id))
		} else {
			s.hosts = append(s.hosts, NodeID(id))
		}
		for i, p := range ps {
			s.byPeer = append(s.byPeer, portRef{peer: p.Peer, port: int32(i)})
			if !g.links[p.Link].Down && g.nodes[p.Peer].Kind == Switch {
				s.adj = append(s.adj, p.Peer)
			}
		}
		// Entries were appended in port order, so a stable sort on the
		// peer alone leaves the lowest port first among parallel links.
		slices.SortStableFunc(s.byPeer[s.portOff[id]:], func(a, b portRef) int {
			return cmp.Compare(a.peer, b.peer)
		})
		s.adjOff[id+1] = int32(len(s.adj))
		s.portOff[id+1] = int32(len(s.byPeer))
	}
	// Callers get these two as they are; an append must not reach
	// spare capacity shared with the next caller.
	s.switches, s.hosts = slices.Clip(s.switches), slices.Clip(s.hosts)
	return s
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

// maxSwitchRTT returns the cached all-pairs bound, running one Dijkstra
// per switch on first use with a shared distance buffer and heap.
func (s *snapshot) maxSwitchRTT(g *Graph) int64 {
	s.fillOnce(&s.rttDone, func() {
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
		s.rtt = 2 * worst
	})
	return s.rtt
}
