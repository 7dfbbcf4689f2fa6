// Package pg builds Contra's product graph (§4.1): the product of the
// network topology with one reversed DFA per policy regex. Product
// graph nodes ("virtual nodes") pair a physical switch with a vector of
// automaton states; probes flow along product graph edges from each
// destination's probe-sending state, and packets flow along the same
// edges in reverse, which is what makes forwarding policy-compliant by
// construction (§4.2).
package pg

import (
	"encoding/binary"
	"fmt"
	"sort"
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
// per policy regex.
type Node struct {
	ID       NodeID
	Topo     topo.NodeID
	States   []int32 // automaton state per regex (reversed DFAs)
	Accept   []bool  // per regex: does the path this node represents match?
	LocalTag int32   // minimized per-switch tag index
	Origin   bool    // probe-sending state for its switch (§4.1)
}

// Graph is the product graph.
type Graph struct {
	Topo   *topo.Graph
	Policy *policy.Policy
	DFAs   []*automata.DFA // reversed, one per Policy.Regexes

	nodes  []Node
	out    [][]NodeID // probe-direction adjacency
	in     [][]NodeID
	byTopo map[topo.NodeID][]NodeID
	send   map[topo.NodeID]NodeID

	maxTagsPerSwitch int
}

// Build constructs the product graph for a topology and policy:
// reversed DFAs, breadth-first product exploration from every
// destination's probe-sending state, usefulness pruning, and local tag
// assignment.
func Build(t *topo.Graph, pol *policy.Policy) (*Graph, error) {
	alphabet := t.SortedNames()
	g := &Graph{
		Topo:   t,
		Policy: pol,
		byTopo: make(map[topo.NodeID][]NodeID),
		send:   make(map[topo.NodeID]NodeID),
	}
	for _, r := range pol.Regexes {
		g.DFAs = append(g.DFAs, automata.BuildReversed(r, alphabet))
	}
	ix := newStateIndex(len(g.DFAs))

	// Every DFA is built over the same alphabet, the topology's switch
	// names, so a switch is the same symbol in all of them.
	switches := t.Switches()
	sym := make([]int, t.NumNodes())
	if len(g.DFAs) > 0 {
		for _, x := range switches {
			sym[x], _ = g.DFAs[0].Sym(t.Node(x).Name)
		}
	}

	// Probe-sending states: for destination X the automata have
	// consumed the single symbol X.
	next := make([]int32, len(g.DFAs)) // one buffer for every expansion; intern copies it
	var queue []NodeID
	for _, x := range switches {
		for i, d := range g.DFAs {
			next[i] = int32(d.Step(d.Start, sym[x]))
		}
		id, _ := g.intern(ix, x, next)
		g.nodes[id].Origin = true
		g.send[x] = id
		queue = append(queue, id)
	}

	// BFS along probe edges: from (X, s) to (X', step(s, X')) for each
	// switch neighbor X'.
	for head := 0; head < len(queue); head++ {
		from := queue[head]
		states := g.nodes[from].States
		for _, nb := range t.SwitchNeighbors(g.nodes[from].Topo) {
			for i, d := range g.DFAs {
				next[i] = int32(d.Step(int(states[i]), sym[nb]))
			}
			to, fresh := g.intern(ix, nb, next)
			if fresh {
				queue = append(queue, to)
			}
			g.addEdge(from, to)
		}
	}

	g.prune()
	g.assignTags()
	return g, nil
}

// stateIndex finds the virtual node of a (switch, automaton states)
// tuple during exploration. The key is the tuple itself in a fixed
// width, four bytes per component, so distinct tuples have distinct
// keys; buf is reused across lookups, which do not allocate.
type stateIndex struct {
	ids map[string]NodeID
	buf []byte
}

func newStateIndex(regexes int) *stateIndex {
	return &stateIndex{ids: make(map[string]NodeID), buf: make([]byte, 0, 4*(1+regexes))}
}

// key returns the tuple's key in ix.buf, valid until the next call.
func (ix *stateIndex) key(x topo.NodeID, states []int32) []byte {
	b := binary.LittleEndian.AppendUint32(ix.buf[:0], uint32(x))
	for _, s := range states {
		b = binary.LittleEndian.AppendUint32(b, uint32(s))
	}
	ix.buf = b
	return b
}

// intern returns the virtual node for (x, states), adding it if it is
// new; states is copied.
func (g *Graph) intern(ix *stateIndex, x topo.NodeID, states []int32) (id NodeID, fresh bool) {
	key := ix.key(x, states)
	if id, ok := ix.ids[string(key)]; ok {
		return id, false
	}
	id = NodeID(len(g.nodes))
	accept := make([]bool, len(g.DFAs))
	for i, d := range g.DFAs {
		accept[i] = d.Accept[states[i]]
	}
	g.nodes = append(g.nodes, Node{
		ID:     id,
		Topo:   x,
		States: append([]int32(nil), states...),
		Accept: accept,
	})
	g.out = append(g.out, nil)
	g.in = append(g.in, nil)
	ix.ids[string(key)] = id
	g.byTopo[x] = append(g.byTopo[x], id)
	return id, true
}

func (g *Graph) addEdge(from, to NodeID) {
	for _, e := range g.out[from] {
		if e == to {
			return
		}
	}
	g.out[from] = append(g.out[from], to)
	g.in[to] = append(g.in[to], from)
}

// prune removes virtual nodes that can never contribute to a finite
// routing decision: a node is useful if the policy can rank a path
// with its acceptance bits below inf (it can serve as a source's
// decision state), or if a probe passing through it can reach such a
// node. Pruning keeps probe fan-out minimal (§4's "avoid sending a
// large number of probes").
func (g *Graph) prune() {
	useful := make([]bool, len(g.nodes))
	var stack []NodeID
	for i := range g.nodes {
		if g.possiblyFinite(g.nodes[i].Accept) {
			useful[i] = true
			stack = append(stack, NodeID(i))
		}
	}
	// A probe is useful at v if it can still become useful downstream
	// (probe direction): propagate usefulness backwards over out-edges.
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, u := range g.in[v] {
			if !useful[u] {
				useful[u] = true
				stack = append(stack, u)
			}
		}
	}

	// Compact.
	remap := make([]NodeID, len(g.nodes))
	for i := range remap {
		remap[i] = -1
	}
	var nodes []Node
	for i := range g.nodes {
		if useful[i] {
			remap[i] = NodeID(len(nodes))
			n := g.nodes[i]
			n.ID = remap[i]
			nodes = append(nodes, n)
		}
	}
	out := make([][]NodeID, len(nodes))
	in := make([][]NodeID, len(nodes))
	for i := range g.nodes {
		if remap[i] < 0 {
			continue
		}
		for _, to := range g.out[i] {
			if remap[to] >= 0 {
				out[remap[i]] = append(out[remap[i]], remap[to])
				in[remap[to]] = append(in[remap[to]], remap[i])
			}
		}
	}
	g.nodes, g.out, g.in = nodes, out, in
	g.byTopo = make(map[topo.NodeID][]NodeID)
	oldSend := g.send
	g.send = make(map[topo.NodeID]NodeID)
	for i := range g.nodes {
		n := &g.nodes[i]
		g.byTopo[n.Topo] = append(g.byTopo[n.Topo], n.ID)
	}
	for x, v := range oldSend {
		if remap[v] >= 0 {
			g.send[x] = remap[v]
		}
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

// assignTags gives each virtual node a per-switch local tag, ordered
// deterministically by state vector. A hardware target encodes
// ceil(log2(max tags per switch)) bits in the packet header.
func (g *Graph) assignTags() {
	g.maxTagsPerSwitch = 0
	for _, ids := range g.byTopo {
		sort.Slice(ids, func(a, b int) bool {
			return stateLess(g.nodes[ids[a]].States, g.nodes[ids[b]].States)
		})
		for i, id := range ids {
			g.nodes[id].LocalTag = int32(i)
		}
		if len(ids) > g.maxTagsPerSwitch {
			g.maxTagsPerSwitch = len(ids)
		}
	}
}

func stateLess(a, b []int32) bool {
	for i := range a {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return false
}

// NumNodes returns the number of virtual nodes after pruning.
func (g *Graph) NumNodes() int { return len(g.nodes) }

// Node returns a virtual node.
func (g *Graph) Node(id NodeID) *Node { return &g.nodes[id] }

// Out returns v's probe-direction successors.
func (g *Graph) Out(v NodeID) []NodeID { return g.out[v] }

// In returns v's probe-direction predecessors.
func (g *Graph) In(v NodeID) []NodeID { return g.in[v] }

// VirtualNodes returns the virtual nodes of a physical switch.
func (g *Graph) VirtualNodes(x topo.NodeID) []NodeID { return g.byTopo[x] }

// SendState returns the probe-sending state for destination x, if x is
// a valid destination under the policy.
func (g *Graph) SendState(x topo.NodeID) (NodeID, bool) {
	v, ok := g.send[x]
	return v, ok
}

// Transition returns the product graph successor of v at neighbor
// switch nb, if the edge survived pruning. This is NEXTPGNODE from
// Figure 7, resolved from the receiving side.
func (g *Graph) Transition(v NodeID, nb topo.NodeID) (NodeID, bool) {
	for _, u := range g.out[v] {
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
	return fmt.Sprintf("product graph: %d virtual nodes over %d switches, %d regexes, max %d tags/switch (%d tag bits)",
		len(g.nodes), len(g.byTopo), len(g.DFAs), g.maxTagsPerSwitch, g.TagBits())
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
		for _, u := range g.out[i] {
			un := &g.nodes[u]
			fmt.Fprintf(&b, " %s%d", g.Topo.Node(un.Topo).Name, un.LocalTag)
		}
		b.WriteByte('\n')
	}
	return b.String()
}
