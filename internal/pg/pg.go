// Package pg builds Contra's product graph (§4.1): the product of the
// network topology with one reversed DFA per policy regex. Product
// graph nodes ("virtual nodes") pair a physical switch with a vector of
// automaton states; probes flow along product graph edges from each
// destination's probe-sending state, and packets flow along the same
// edges in reverse, which is what makes forwarding policy-compliant by
// construction (§4.2).
package pg

import (
	"fmt"
	"math/bits"
	"slices"
	"strings"

	"contra/internal/automata"
	"contra/internal/policy"
	"contra/internal/topo"
)

// NodeID identifies a virtual node. It doubles as the global tag value
// carried by probes and packets in this implementation; the per-switch
// minimized tag (Node.LocalTag) is what a hardware target would encode
// in the packet header, and drives the state-size accounting.
type NodeID int32

// Node is a virtual node: a physical switch plus one automaton state
// per policy regex. States and Accept are read-only windows of slabs
// the graph shares across all its nodes.
type Node struct {
	ID       NodeID
	Topo     topo.NodeID
	States   []int32 // automaton state per regex (reversed DFAs)
	Accept   []bool  // per regex: does the path this node represents match?
	LocalTag int32   // minimized per-switch tag index
	Origin   bool    // probe-sending state for its switch (§4.1)
}

// Graph is the product graph, laid out in a few flat arrays: a
// compile allocates per graph, not per virtual node.
type Graph struct {
	Topo   *topo.Graph
	Policy *policy.Policy
	DFAs   []*automata.DFA // reversed, one per Policy.Regexes

	nodes []Node
	// states and accept back every node's States and Accept, len(DFAs)
	// entries a node.
	states []int32
	accept []bool
	// Probe-direction adjacency in compressed sparse rows: v's
	// successors are out[outOff[v]:outOff[v+1]] and its predecessors
	// in[inOff[v]:inOff[v+1]], the latter ascending.
	outOff, inOff []int32
	out, in       []NodeID
	// Switch x's virtual nodes are byTopo[topoOff[x]:topoOff[x+1]], in
	// local tag order; send[x] is x's probe-sending state, or -1.
	topoOff []int32
	byTopo  []NodeID
	send    []NodeID

	maxTagsPerSwitch int
}

// Build constructs the product graph for a topology and policy:
// reversed DFAs, breadth-first product exploration from every
// destination's probe-sending state, usefulness pruning, and local tag
// assignment.
func Build(t *topo.Graph, pol *policy.Policy) (*Graph, error) {
	alphabet := t.SortedNames()
	g := &Graph{Topo: t, Policy: pol, DFAs: make([]*automata.DFA, 0, len(pol.Regexes))}
	for _, r := range pol.Regexes {
		g.DFAs = append(g.DFAs, automata.BuildReversed(r, alphabet))
	}

	// Every DFA is built over the same alphabet, the topology's switch
	// names, so a switch is the same symbol in all of them.
	switches := t.Switches()
	sym := make([]int, t.NumNodes())
	degrees := 0
	for _, x := range switches {
		if len(g.DFAs) > 0 {
			sym[x], _ = g.DFAs[0].Sym(t.Node(x).Name)
		}
		degrees += len(t.SwitchNeighbors(x))
	}
	ex := newExplorer(len(g.DFAs), len(switches), degrees)

	// Probe-sending states: for destination X the automata have
	// consumed the single symbol X. Distinct switches make distinct
	// tuples, so origin i is node i.
	next := make([]int32, len(g.DFAs)) // one buffer for every expansion; intern copies it
	for _, x := range switches {
		for i, d := range g.DFAs {
			next[i] = int32(d.Step(d.Start, sym[x]))
		}
		ex.intern(x, next)
	}

	// BFS along probe edges: from (X, s) to (X', step(s, X')) for each
	// switch neighbor X'. Nodes are numbered in the order they are
	// found, so the queue is the node list itself, and each node's
	// out-edges are appended contiguously when it is expanded.
	w := len(g.DFAs)
	for from := 0; from < len(ex.topo); from++ {
		lo := ex.outOff[from]
		for _, nb := range t.SwitchNeighbors(ex.topo[from]) {
			states := ex.states[from*w : from*w+w] // per neighbor: intern may move ex.states
			for i, d := range g.DFAs {
				next[i] = int32(d.Step(int(states[i]), sym[nb]))
			}
			if to := ex.intern(nb, next); !slices.Contains(ex.out[lo:], to) {
				ex.out = append(ex.out, to)
			}
		}
		ex.outOff = append(ex.outOff, int32(len(ex.out)))
	}

	g.prune(ex, len(switches))
	g.assignTags()
	return g, nil
}

// explorer is the product graph while Build explores it: node i is the
// tuple (topo[i], states[i*w:(i+1)*w]), and once expanded its out-edges
// are out[outOff[i]:outOff[i+1]]. slots indexes the nodes by tuple, open
// addressing with linear probing: a slot holds a node id plus one, 0 for
// empty, and a lookup compares against the stored tuple, so no key is
// ever built.
type explorer struct {
	w      int
	topo   []topo.NodeID
	states []int32
	outOff []int32
	out    []NodeID
	slots  []int32
}

// newExplorer sizes the arrays for nodes virtual nodes and edges
// out-edges; they grow past that as needed.
func newExplorer(w, nodes, edges int) *explorer {
	ex := &explorer{
		w:      w,
		topo:   make([]topo.NodeID, 0, nodes),
		states: make([]int32, 0, nodes*w),
		outOff: make([]int32, 1, nodes+1),
		out:    make([]NodeID, 0, edges),
	}
	ex.slots = make([]int32, max(8, 1<<bits.Len(uint(2*nodes))))
	return ex
}

// hashTuple mixes a tuple's components into a slot hash.
func hashTuple(x topo.NodeID, states []int32) uint32 {
	h := uint32(x) * 0x9e3779b1
	for _, s := range states {
		h = (h ^ uint32(s)) * 0x85ebca6b
		h ^= h >> 13
	}
	return h ^ h>>16
}

// intern returns the node for (x, states), adding it if it is new;
// states is copied.
func (ex *explorer) intern(x topo.NodeID, states []int32) NodeID {
	mask := uint32(len(ex.slots) - 1)
	for i := hashTuple(x, states) & mask; ; i = (i + 1) & mask {
		if ex.slots[i] == 0 {
			id := NodeID(len(ex.topo))
			ex.topo = append(ex.topo, x)
			ex.states = append(ex.states, states...)
			ex.slots[i] = int32(id) + 1
			if 2*len(ex.topo) > len(ex.slots) {
				ex.rehash()
			}
			return id
		}
		id := NodeID(ex.slots[i] - 1)
		if ex.topo[id] == x && slices.Equal(ex.states[int(id)*ex.w:int(id+1)*ex.w], states) {
			return id
		}
	}
}

// rehash doubles the slot table, keeping it at most half full.
func (ex *explorer) rehash() {
	ex.slots = make([]int32, 2*len(ex.slots))
	mask := uint32(len(ex.slots) - 1)
	for id, x := range ex.topo {
		i := hashTuple(x, ex.states[id*ex.w:(id+1)*ex.w]) & mask
		for ex.slots[i] != 0 {
			i = (i + 1) & mask
		}
		ex.slots[i] = int32(id) + 1
	}
}

// transpose returns the in-adjacency of the n-node graph whose
// out-adjacency is (outOff, out). Senders are visited in id order, so
// every in-list is ascending.
func transpose(n int, outOff []int32, out []NodeID) ([]int32, []NodeID) {
	inOff := make([]int32, n+1)
	for _, to := range out {
		inOff[to+1]++
	}
	for v := 0; v < n; v++ {
		inOff[v+1] += inOff[v]
	}
	in := make([]NodeID, len(out))
	// inOff[v] is v's fill cursor, which ends at v+1's start; shift back.
	for from := 0; from < n; from++ {
		for _, to := range out[outOff[from]:outOff[from+1]] {
			in[inOff[to]] = NodeID(from)
			inOff[to]++
		}
	}
	copy(inOff[1:], inOff[:n])
	inOff[0] = 0
	return inOff, in
}

// prune keeps the virtual nodes that can contribute to a finite routing
// decision: a node is useful if the policy can rank a path with its
// acceptance bits below inf (it can serve as a source's decision
// state), or if a probe passing through it can reach such a node.
// Pruning keeps probe fan-out minimal (§4's "avoid sending a large
// number of probes"). It compacts the explored graph, whose first
// origins nodes are the probe-sending states, into g's arrays: kept
// nodes keep their relative order, out-lists theirs, and in-lists are
// ascending.
func (g *Graph) prune(ex *explorer, origins int) {
	n, w := len(ex.topo), ex.w
	inOff, in := transpose(n, ex.outOff, ex.out)
	useful := make([]bool, n)
	stack := make([]NodeID, 0, n)
	accept := make([]bool, w)
	for i := 0; i < n; i++ {
		for k, d := range g.DFAs {
			accept[k] = d.Accept[ex.states[i*w+k]]
		}
		if g.possiblyFinite(accept) {
			useful[i] = true
			stack = append(stack, NodeID(i))
		}
	}
	// A probe is useful at v if it can still become useful downstream
	// (probe direction): propagate usefulness backwards over out-edges.
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, u := range in[inOff[v]:inOff[v+1]] {
			if !useful[u] {
				useful[u] = true
				stack = append(stack, u)
			}
		}
	}

	// Compact.
	remap := make([]NodeID, n)
	m, edges := 0, 0
	for i := range remap {
		remap[i] = -1
		if useful[i] {
			remap[i] = NodeID(m)
			m++
		}
	}
	for _, to := range ex.out {
		if useful[to] {
			edges++ // an upper bound: the sender may be pruned
		}
	}
	g.nodes = make([]Node, m)
	g.states = make([]int32, m*w)
	g.accept = make([]bool, m*w)
	g.outOff = make([]int32, m+1)
	g.out = make([]NodeID, 0, edges)
	for i, v := range remap {
		if v < 0 {
			continue
		}
		states := g.states[int(v)*w : int(v+1)*w : int(v+1)*w]
		accept := g.accept[int(v)*w : int(v+1)*w : int(v+1)*w]
		copy(states, ex.states[i*w:])
		for k, d := range g.DFAs {
			accept[k] = d.Accept[states[k]]
		}
		g.nodes[v] = Node{ID: v, Topo: ex.topo[i], States: states, Accept: accept, Origin: i < origins}
		for _, to := range ex.out[ex.outOff[i]:ex.outOff[i+1]] {
			if remap[to] >= 0 {
				g.out = append(g.out, remap[to])
			}
		}
		g.outOff[v+1] = int32(len(g.out))
	}
	g.inOff, g.in = transpose(m, g.outOff, g.out)
	g.send = make([]NodeID, g.Topo.NumNodes())
	for x := range g.send {
		g.send[x] = -1
	}
	for i := 0; i < origins; i++ {
		g.send[ex.topo[i]] = remap[i]
	}
}

// possiblyFinite reports whether the policy, with the given regex
// match outcomes fixed, can evaluate below inf for some metric values.
func (g *Graph) possiblyFinite(accept []bool) bool {
	return exprPossiblyFinite(g.Policy.Body, accept)
}

func exprPossiblyFinite(e policy.Expr, accept []bool) bool {
	switch x := e.(type) {
	case *policy.Const, *policy.Attr:
		return true
	case *policy.Inf:
		return false
	case *policy.Bin:
		return exprPossiblyFinite(x.L, accept) && exprPossiblyFinite(x.R, accept)
	case *policy.Tuple:
		for _, el := range x.Elems {
			if !exprPossiblyFinite(el, accept) {
				return false
			}
		}
		return true
	case *policy.If:
		val, known := condKnown(x.Cond, accept)
		if !known {
			return exprPossiblyFinite(x.Then, accept) || exprPossiblyFinite(x.Else, accept)
		}
		if val {
			return exprPossiblyFinite(x.Then, accept)
		}
		return exprPossiblyFinite(x.Else, accept)
	}
	return true
}

// condKnown evaluates a condition when it depends only on regex
// matches; metric comparisons are unknown at compile time.
func condKnown(c policy.Cond, accept []bool) (val, known bool) {
	switch x := c.(type) {
	case *policy.Match:
		if x.ID >= 0 && x.ID < len(accept) {
			return accept[x.ID], true
		}
		return false, false
	case *policy.Cmp:
		return false, false
	case *policy.Not:
		v, k := condKnown(x.C, accept)
		return !v, k
	case *policy.And:
		lv, lk := condKnown(x.L, accept)
		rv, rk := condKnown(x.R, accept)
		if lk && !lv || rk && !rv {
			return false, true
		}
		return lv && rv, lk && rk
	case *policy.Or:
		lv, lk := condKnown(x.L, accept)
		rv, rk := condKnown(x.R, accept)
		if lk && lv || rk && rv {
			return true, true
		}
		return lv || rv, lk && rk
	}
	return false, false
}

// assignTags lists each switch's virtual nodes and gives each a
// per-switch local tag, ordered by state vector: a switch's nodes have
// distinct vectors, so the order is total. A hardware target encodes
// ceil(log2(max tags per switch)) bits in the packet header.
func (g *Graph) assignTags() {
	nt := g.Topo.NumNodes()
	g.topoOff = make([]int32, nt+1)
	for i := range g.nodes {
		g.topoOff[g.nodes[i].Topo+1]++
	}
	for x := 0; x < nt; x++ {
		g.topoOff[x+1] += g.topoOff[x]
	}
	g.byTopo = make([]NodeID, len(g.nodes))
	for i := range g.nodes { // topoOff[x] is x's fill cursor, as in transpose
		x := g.nodes[i].Topo
		g.byTopo[g.topoOff[x]] = NodeID(i)
		g.topoOff[x]++
	}
	copy(g.topoOff[1:], g.topoOff[:nt])
	g.topoOff[0] = 0

	byStates := func(a, b NodeID) int { return slices.Compare(g.nodes[a].States, g.nodes[b].States) }
	g.maxTagsPerSwitch = 0
	for x := 0; x < nt; x++ {
		ids := g.byTopo[g.topoOff[x]:g.topoOff[x+1]]
		slices.SortFunc(ids, byStates)
		for i, id := range ids {
			g.nodes[id].LocalTag = int32(i)
		}
		g.maxTagsPerSwitch = max(g.maxTagsPerSwitch, len(ids))
	}
}

// NumNodes returns the number of virtual nodes after pruning.
func (g *Graph) NumNodes() int { return len(g.nodes) }

// NumEdges returns the number of product graph edges after pruning.
func (g *Graph) NumEdges() int { return len(g.out) }

// Node returns a virtual node.
func (g *Graph) Node(id NodeID) *Node { return &g.nodes[id] }

// Out returns v's probe-direction successors. The slice must not be
// modified.
func (g *Graph) Out(v NodeID) []NodeID {
	hi := g.outOff[v+1]
	return g.out[g.outOff[v]:hi:hi]
}

// In returns v's probe-direction predecessors, ascending. The slice
// must not be modified.
func (g *Graph) In(v NodeID) []NodeID {
	hi := g.inOff[v+1]
	return g.in[g.inOff[v]:hi:hi]
}

// VirtualNodes returns the virtual nodes of a physical switch in local
// tag order, none for a host or an unknown id. The slice must not be
// modified.
func (g *Graph) VirtualNodes(x topo.NodeID) []NodeID {
	if uint(x) >= uint(len(g.send)) {
		return nil
	}
	hi := g.topoOff[x+1]
	return g.byTopo[g.topoOff[x]:hi:hi]
}

// SendState returns the probe-sending state for destination x, if x is
// a valid destination under the policy.
func (g *Graph) SendState(x topo.NodeID) (NodeID, bool) {
	if uint(x) >= uint(len(g.send)) || g.send[x] < 0 {
		return 0, false
	}
	return g.send[x], true
}

// Transition returns the product graph successor of v at neighbor
// switch nb, if the edge survived pruning. This is NEXTPGNODE from
// Figure 7, resolved from the receiving side.
func (g *Graph) Transition(v NodeID, nb topo.NodeID) (NodeID, bool) {
	for _, u := range g.Out(v) {
		if g.nodes[u].Topo == nb {
			return u, true
		}
	}
	return 0, false
}

// MaxTagsPerSwitch returns the largest number of virtual nodes on any
// single switch: the quantity that sizes the packet tag field.
func (g *Graph) MaxTagsPerSwitch() int { return g.maxTagsPerSwitch }

// TagBits returns the packet header bits needed for the minimized tag.
func (g *Graph) TagBits() int {
	bits := 0
	for 1<<bits < g.maxTagsPerSwitch {
		bits++
	}
	return bits
}

// Accepts reports whether virtual node v's path matches regex id.
func (g *Graph) Accepts(v NodeID, regexID int) bool {
	return g.nodes[v].Accept[regexID]
}

// ProbeWalk simulates a probe traveling the reverse of the traffic
// path (destination first): it returns the virtual node reached, or
// false if the walk leaves the product graph. Used by tests to verify
// that every policy-compliant physical path is represented.
func (g *Graph) ProbeWalk(reversePath []topo.NodeID) (NodeID, bool) {
	if len(reversePath) == 0 {
		return 0, false
	}
	v, ok := g.SendState(reversePath[0])
	if !ok {
		return 0, false
	}
	for _, x := range reversePath[1:] {
		v, ok = g.Transition(v, x)
		if !ok {
			return 0, false
		}
	}
	return v, true
}

// String summarizes the product graph.
func (g *Graph) String() string {
	switches := 0
	for x := range g.send {
		if g.topoOff[x+1] > g.topoOff[x] {
			switches++
		}
	}
	return fmt.Sprintf("product graph: %d virtual nodes over %d switches, %d regexes, max %d tags/switch (%d tag bits)",
		len(g.nodes), switches, len(g.DFAs), g.maxTagsPerSwitch, g.TagBits())
}

// Dump renders every virtual node and edge for debugging.
func (g *Graph) Dump() string {
	var b strings.Builder
	b.WriteString(g.String())
	b.WriteByte('\n')
	for i := range g.nodes {
		n := &g.nodes[i]
		mark := " "
		if n.Origin {
			mark = "!"
		}
		fmt.Fprintf(&b, "%s %s%d %v accept=%v ->", mark, g.Topo.Node(n.Topo).Name, n.LocalTag, n.States, n.Accept)
		for _, u := range g.Out(NodeID(i)) {
			un := &g.nodes[u]
			fmt.Fprintf(&b, " %s%d", g.Topo.Node(un.Topo).Name, un.LocalTag)
		}
		b.WriteByte('\n')
	}
	return b.String()
}
