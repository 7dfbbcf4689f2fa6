// Package topo models network topologies: switches, hosts, links with
// bandwidth and propagation delay, plus the generators and path
// algorithms used by the Contra compiler, the simulator, and the
// baseline routing schemes.
package topo

import (
	"fmt"
	"sync/atomic"
)

// NodeID identifies a node within a Graph.
type NodeID int32

// LinkID identifies a link within a Graph.
type LinkID int32

// Kind distinguishes forwarding devices from end hosts.
type Kind uint8

// Node kinds.
const (
	Switch Kind = iota
	Host
)

func (k Kind) String() string {
	if k == Host {
		return "host"
	}
	return "switch"
}

// Role labels a switch's tier in hierarchical (data center) topologies.
// Non-hierarchical topologies leave it as RoleNone.
type Role uint8

// Switch roles in a Clos/Fattree hierarchy.
const (
	RoleNone Role = iota
	RoleEdge      // top-of-rack / leaf
	RoleAgg       // aggregation
	RoleCore      // core / spine
)

func (r Role) String() string {
	switch r {
	case RoleEdge:
		return "edge"
	case RoleAgg:
		return "agg"
	case RoleCore:
		return "core"
	}
	return "none"
}

// Node is a device in the topology.
type Node struct {
	ID   NodeID
	Name string
	Kind Kind
	Role Role
	Pod  int // pod index in Fattree topologies, -1 otherwise
}

// Link is an undirected link; the simulator models each direction
// independently (queues, utilization) but topologically the link is one
// edge. Bandwidth is bits/second and Delay is one-way propagation in
// nanoseconds.
type Link struct {
	ID        LinkID
	A, B      NodeID
	Bandwidth float64
	Delay     int64
	Down      bool
}

// Port is one attachment point of a node: the local port index is the
// position within Graph.Ports(node).
type Port struct {
	Link LinkID
	Peer NodeID
}

// Graph is an in-memory topology. The zero value is empty; use New.
//
// Queries (Switches, Hosts, SortedNames, SwitchNeighbors, PortTo,
// HopsFrom, ECMPNextHops, ShortestPath, MaxSwitchRTT) are answered from a
// snapshot cached per graph state, so any number of goroutines may
// query a shared graph concurrently. Mutation is single-writer and
// must not overlap queries; the only mutators are AddNode,
// AddNodeRole, AddLink and SetDown.
type Graph struct {
	Name   string
	nodes  []Node
	links  []Link
	byName map[string]NodeID

	// gen counts mutations; snap is the derived state of the
	// generation it records and is rebuilt on the first query after
	// gen moves on (see snapshot.go).
	gen  uint64
	snap atomic.Pointer[snapshot]
}

// New returns an empty graph with the given name.
func New(name string) *Graph {
	return &Graph{Name: name, byName: make(map[string]NodeID)}
}

// AddNode adds a node and returns its ID. Names must be unique and
// non-empty.
func (g *Graph) AddNode(name string, kind Kind) NodeID {
	return g.AddNodeRole(name, kind, RoleNone, -1)
}

// AddNodeRole adds a node with an explicit hierarchy role and pod.
func (g *Graph) AddNodeRole(name string, kind Kind, role Role, pod int) NodeID {
	if name == "" {
		panic("topo: empty node name")
	}
	if _, dup := g.byName[name]; dup {
		panic(fmt.Sprintf("topo: duplicate node name %q", name))
	}
	id := NodeID(len(g.nodes))
	g.nodes = append(g.nodes, Node{ID: id, Name: name, Kind: kind, Role: role, Pod: pod})
	g.byName[name] = id
	g.gen++
	return id
}

// AddLink connects a and b with the given bandwidth (bits/s) and one-way
// propagation delay (ns), returning the link ID.
func (g *Graph) AddLink(a, b NodeID, bandwidth float64, delayNs int64) LinkID {
	if a == b {
		panic("topo: self loop")
	}
	if int(a) >= len(g.nodes) || int(b) >= len(g.nodes) || a < 0 || b < 0 {
		panic("topo: AddLink with unknown node")
	}
	id := LinkID(len(g.links))
	g.links = append(g.links, Link{ID: id, A: a, B: b, Bandwidth: bandwidth, Delay: delayNs})
	g.gen++
	return id
}

// NumNodes returns the number of nodes.
func (g *Graph) NumNodes() int { return len(g.nodes) }

// NumLinks returns the number of links.
func (g *Graph) NumLinks() int { return len(g.links) }

// Node returns the node with the given ID.
func (g *Graph) Node(id NodeID) *Node { return &g.nodes[id] }

// Link returns the link with the given ID. The link must not be
// modified through the pointer: SetDown is the only legal way to flip
// Down, because cached query results are invalidated there.
func (g *Graph) Link(id LinkID) *Link { return &g.links[id] }

// Nodes returns all nodes in ID order. The slice must not be modified.
func (g *Graph) Nodes() []Node { return g.nodes }

// Links returns all links in ID order. The slice must not be modified
// (use SetDown to change a link's state).
func (g *Graph) Links() []Link { return g.links }

// Ports returns node n's ports; the local port index is the slice index.
// A node's ports are its links in ID order, so a port added by AddLink
// comes after every port the node already had. The slice is shared and
// must not be modified.
func (g *Graph) Ports(n NodeID) []Port { return g.snapshot().portsOf(n) }

// NodeByName returns the node ID for name.
func (g *Graph) NodeByName(name string) (NodeID, bool) {
	id, ok := g.byName[name]
	return id, ok
}

// MustNode returns the node ID for name or panics.
func (g *Graph) MustNode(name string) NodeID {
	id, ok := g.byName[name]
	if !ok {
		panic(fmt.Sprintf("topo: no node named %q", name))
	}
	return id
}

// PortTo returns the local port index on from that reaches neighbor to,
// or -1 if they are not adjacent. With parallel links it returns the
// lowest port index, whether or not that link is up.
func (g *Graph) PortTo(from, to NodeID) int { return g.snapshot().portTo(from, to) }

// LinkBetween returns the first link joining a and b, or nil.
func (g *Graph) LinkBetween(a, b NodeID) *Link {
	for _, p := range g.Ports(a) {
		if p.Peer == b {
			return &g.links[p.Link]
		}
	}
	return nil
}

// Switches returns the IDs of all switch nodes in ID order. The slice
// is shared and must not be modified.
func (g *Graph) Switches() []NodeID { return g.snapshot().switches }

// Hosts returns the IDs of all host nodes in ID order. The slice is
// shared and must not be modified.
func (g *Graph) Hosts() []NodeID { return g.snapshot().hosts }

// HostEdge returns the switch a host attaches to. Hosts are assumed
// single-homed; it panics otherwise.
func (g *Graph) HostEdge(h NodeID) NodeID {
	ps := g.Ports(h)
	if g.nodes[h].Kind != Host || len(ps) != 1 {
		panic(fmt.Sprintf("topo: node %s is not a single-homed host", g.nodes[h].Name))
	}
	return ps[0].Peer
}

// SetDown marks a link up or down (failure injection). Path algorithms
// skip down links. It is the only legal way to change a link's state:
// writing Link(id).Down directly would leave cached queries stale.
func (g *Graph) SetDown(id LinkID, down bool) {
	if g.links[id].Down != down {
		g.links[id].Down = down
		g.gen++
	}
}

// SwitchNeighbors returns the switch neighbors of n over up links,
// in port order. The slice is shared and must not be modified.
func (g *Graph) SwitchNeighbors(n NodeID) []NodeID { return g.snapshot().neighbors(n) }

// Validate checks structural invariants: every host single-homed to a
// switch, and the switch subgraph connected (over up links).
func (g *Graph) Validate() error {
	sw := g.Switches()
	if len(sw) == 0 {
		return fmt.Errorf("topo %s: no switches", g.Name)
	}
	for _, h := range g.Hosts() {
		ps := g.Ports(h)
		if len(ps) != 1 {
			return fmt.Errorf("topo %s: host %s has %d links, want 1", g.Name, g.nodes[h].Name, len(ps))
		}
		if g.nodes[ps[0].Peer].Kind != Switch {
			return fmt.Errorf("topo %s: host %s attached to non-switch", g.Name, g.nodes[h].Name)
		}
	}
	seen := make([]bool, len(g.nodes))
	stack := []NodeID{sw[0]}
	seen[sw[0]] = true
	count := 1
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, m := range g.SwitchNeighbors(n) {
			if !seen[m] {
				seen[m] = true
				count++
				stack = append(stack, m)
			}
		}
	}
	if count != len(sw) {
		return fmt.Errorf("topo %s: switch graph disconnected (%d of %d reachable)", g.Name, count, len(sw))
	}
	return nil
}

// Clone returns a deep copy of the graph (used to derive failed-link
// variants without mutating the original). The copy starts with no
// cached query state and its own generation count.
func (g *Graph) Clone() *Graph {
	ng := &Graph{
		Name:   g.Name,
		nodes:  append([]Node(nil), g.nodes...),
		links:  append([]Link(nil), g.links...),
		byName: make(map[string]NodeID, len(g.byName)),
	}
	for k, v := range g.byName {
		ng.byName[k] = v
	}
	return ng
}

// String summarizes the graph.
func (g *Graph) String() string {
	return fmt.Sprintf("%s: %d nodes (%d switches, %d hosts), %d links",
		g.Name, len(g.nodes), len(g.Switches()), len(g.Hosts()), len(g.links))
}

// SortedNames returns all switch names sorted; this is the policy
// language's alphabet for this topology. It is computed once per graph
// state; the slice is shared and must not be modified.
func (g *Graph) SortedNames() []string { return g.snapshot().sortedNames(g) }

// MaxSwitchRTT returns an upper bound on the round-trip time in ns
// between any pair of switches, assuming negligible queueing: twice the
// maximum over shortest-latency paths, over up links, between switches
// that reach each other. Contra's probe period must be at least half
// this value (§5.2). Computed once per graph state, by one of two
// paths that give the same answer:
//
//   - When every up switch–switch link has the same delay d (every
//     generated fat-tree, leaf-spine and random graph), a path's latency
//     is d times its hops, and the bound is 2·d·(hop diameter). The
//     diameter comes from a BFS run from 64 switches at a time, one bit
//     per source.
//   - When two such links differ (Abilene, most parsed WANs), one
//     Dijkstra runs from every switch.
func (g *Graph) MaxSwitchRTT() int64 { return g.snapshot().maxSwitchRTT(g) }
