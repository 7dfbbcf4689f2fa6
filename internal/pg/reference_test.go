package pg

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"

	"contra/internal/automata"
	"contra/internal/policy"
	"contra/internal/topo"
)

// The product graph as Build laid it out before it went flat, kept as
// the reference the differential tests compare against: one Node with
// its own state and acceptance slices per virtual node, adjacency as one
// slice per node, the virtual nodes of a switch and the probe-sending
// states in maps. referenceBuildMaps is that Build; referenceBuild is
// the exploration before it, with printed keys.
type refGraph struct {
	Topo   *topo.Graph
	Policy *policy.Policy
	DFAs   []*automata.DFA

	nodes  []Node
	out    [][]NodeID
	in     [][]NodeID
	byTopo map[topo.NodeID][]NodeID
	send   map[topo.NodeID]NodeID

	maxTagsPerSwitch int
}

func referenceBuildMaps(t *topo.Graph, pol *policy.Policy) *refGraph {
	alphabet := t.SortedNames()
	g := &refGraph{
		Topo:   t,
		Policy: pol,
		byTopo: make(map[topo.NodeID][]NodeID),
		send:   make(map[topo.NodeID]NodeID),
	}
	for _, r := range pol.Regexes {
		g.DFAs = append(g.DFAs, automata.BuildReversed(r, alphabet))
	}
	ix := newRefStateIndex(len(g.DFAs))

	switches := t.Switches()
	sym := make([]int, t.NumNodes())
	if len(g.DFAs) > 0 {
		for _, x := range switches {
			sym[x], _ = g.DFAs[0].Sym(t.Node(x).Name)
		}
	}

	next := make([]int32, len(g.DFAs))
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
	return g
}

// refStateIndex keys a (switch, automaton states) tuple by the tuple
// itself in a fixed width, four bytes per component.
type refStateIndex struct {
	ids map[string]NodeID
	buf []byte
}

func newRefStateIndex(regexes int) *refStateIndex {
	return &refStateIndex{ids: make(map[string]NodeID), buf: make([]byte, 0, 4*(1+regexes))}
}

func (ix *refStateIndex) key(x topo.NodeID, states []int32) []byte {
	b := binary.LittleEndian.AppendUint32(ix.buf[:0], uint32(x))
	for _, s := range states {
		b = binary.LittleEndian.AppendUint32(b, uint32(s))
	}
	ix.buf = b
	return b
}

func (g *refGraph) intern(ix *refStateIndex, x topo.NodeID, states []int32) (id NodeID, fresh bool) {
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

func (g *refGraph) addEdge(from, to NodeID) {
	for _, e := range g.out[from] {
		if e == to {
			return
		}
	}
	g.out[from] = append(g.out[from], to)
	g.in[to] = append(g.in[to], from)
}

func (g *refGraph) prune() {
	useful := make([]bool, len(g.nodes))
	var stack []NodeID
	for i := range g.nodes {
		if exprPossiblyFinite(g.Policy.Body, g.nodes[i].Accept) {
			useful[i] = true
			stack = append(stack, NodeID(i))
		}
	}
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

func (g *refGraph) assignTags() {
	g.maxTagsPerSwitch = 0
	for _, ids := range g.byTopo {
		sort.Slice(ids, func(a, b int) bool {
			return refStateLess(g.nodes[ids[a]].States, g.nodes[ids[b]].States)
		})
		for i, id := range ids {
			g.nodes[id].LocalTag = int32(i)
		}
		if len(ids) > g.maxTagsPerSwitch {
			g.maxTagsPerSwitch = len(ids)
		}
	}
}

func refStateLess(a, b []int32) bool {
	for i := range a {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return false
}

func (g *refGraph) tagBits() int {
	bits := 0
	for 1<<bits < g.maxTagsPerSwitch {
		bits++
	}
	return bits
}

func (g *refGraph) String() string {
	return fmt.Sprintf("product graph: %d virtual nodes over %d switches, %d regexes, max %d tags/switch (%d tag bits)",
		len(g.nodes), len(g.byTopo), len(g.DFAs), g.maxTagsPerSwitch, g.tagBits())
}

func (g *refGraph) Dump() string {
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

// referenceStateKey is the key exploration used before it was made a
// fixed-width binary tuple: the components printed in decimal.
func referenceStateKey(x topo.NodeID, states []int32) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%d", x)
	for _, s := range states {
		fmt.Fprintf(&b, ":%d", s)
	}
	return b.String()
}

// referenceStepName advances d by a switch name, which is always in
// the alphabet here: the DFAs are built over the topology's names.
func referenceStepName(d *automata.DFA, state int, name string) int {
	sym, _ := d.Sym(name)
	return d.Step(state, sym)
}

// referenceBuild is the exploration before referenceBuildMaps': printed
// keys, automata stepped by switch name, a fresh state vector per
// expansion. Pruning and tag assignment are shared.
func referenceBuild(t *topo.Graph, pol *policy.Policy) *refGraph {
	g := &refGraph{
		Topo:   t,
		Policy: pol,
		byTopo: make(map[topo.NodeID][]NodeID),
		send:   make(map[topo.NodeID]NodeID),
	}
	for _, r := range pol.Regexes {
		g.DFAs = append(g.DFAs, automata.BuildReversed(r, t.SortedNames()))
	}
	index := make(map[string]NodeID)
	intern := func(x topo.NodeID, states []int32) NodeID {
		key := referenceStateKey(x, states)
		if id, ok := index[key]; ok {
			return id
		}
		id := NodeID(len(g.nodes))
		accept := make([]bool, len(g.DFAs))
		for i, d := range g.DFAs {
			accept[i] = d.Accept[states[i]]
		}
		g.nodes = append(g.nodes, Node{ID: id, Topo: x, States: append([]int32(nil), states...), Accept: accept})
		g.out = append(g.out, nil)
		g.in = append(g.in, nil)
		index[key] = id
		g.byTopo[x] = append(g.byTopo[x], id)
		return id
	}

	var queue []NodeID
	for _, x := range t.Switches() {
		states := make([]int32, len(g.DFAs))
		for i, d := range g.DFAs {
			states[i] = int32(referenceStepName(d, d.Start, t.Node(x).Name))
		}
		id := intern(x, states)
		g.nodes[id].Origin = true
		g.send[x] = id
		queue = append(queue, id)
	}
	for len(queue) > 0 {
		from := queue[0]
		queue = queue[1:]
		v := g.nodes[from]
		for _, nb := range t.SwitchNeighbors(v.Topo) {
			next := make([]int32, len(g.DFAs))
			for i, d := range g.DFAs {
				next[i] = int32(referenceStepName(d, int(v.States[i]), t.Node(nb).Name))
			}
			before := len(g.nodes)
			to := intern(nb, next)
			if len(g.nodes) > before {
				queue = append(queue, to)
			}
			g.addEdge(from, to)
		}
	}
	g.prune()
	g.assignTags()
	return g
}

// standardPolicies are the §6.2 scalability policies (MU, WP, CA), with
// the waypoint picks of contra.StandardPolicies.
func standardPolicies(g *topo.Graph) []string {
	names := g.SortedNames()
	k := len(names) / 2
	return []string{
		"minimize(path.util)",
		fmt.Sprintf("minimize(if .* (%s + %s + %s) .* then path.util else inf)", names[k], names[k/2], names[len(names)-1]),
		"minimize(if path.util < .8 then (1, 0, path.util) else (2, path.len, path.util))",
	}
}

// sameGraph fails t unless got, read through its exported methods only,
// is the product graph want holds: every node's fields, its out- and
// in-lists in order, every topology node's virtual nodes in order, every
// probe-sending state, the tag width and the Dump bytes.
func sameGraph(t *testing.T, what string, got *Graph, want *refGraph) {
	t.Helper()
	fail := func(format string, args ...any) {
		t.Helper()
		t.Fatalf("%s: %s\ngot  %swant %s", what, fmt.Sprintf(format, args...), got.Dump(), want.Dump())
	}
	if got.NumNodes() != len(want.nodes) {
		fail("%d virtual nodes, reference %d", got.NumNodes(), len(want.nodes))
	}
	for i := range want.nodes {
		v, w := NodeID(i), &want.nodes[i]
		n := got.Node(v)
		if n.ID != w.ID || n.Topo != w.Topo || n.LocalTag != w.LocalTag || n.Origin != w.Origin ||
			!slices.Equal(n.States, w.States) || !slices.Equal(n.Accept, w.Accept) {
			fail("node %d is %+v, reference %+v", v, *n, *w)
		}
		if !slices.Equal(got.Out(v), want.out[v]) {
			fail("node %d out-list %v, reference %v", v, got.Out(v), want.out[v])
		}
		if !slices.Equal(got.In(v), want.in[v]) {
			fail("node %d in-list %v, reference %v", v, got.In(v), want.in[v])
		}
	}
	for x := topo.NodeID(0); int(x) < want.Topo.NumNodes(); x++ {
		if !slices.Equal(got.VirtualNodes(x), want.byTopo[x]) {
			fail("%s's virtual nodes %v, reference %v", want.Topo.Node(x).Name, got.VirtualNodes(x), want.byTopo[x])
		}
		gv, gok := got.SendState(x)
		wv, wok := want.send[x]
		if gv != wv || gok != wok {
			fail("%s's send state (%d, %v), reference (%d, %v)", want.Topo.Node(x).Name, gv, gok, wv, wok)
		}
	}
	if got.MaxTagsPerSwitch() != want.maxTagsPerSwitch {
		fail("%d tags per switch, reference %d", got.MaxTagsPerSwitch(), want.maxTagsPerSwitch)
	}
	if got.Dump() != want.Dump() {
		fail("Dump differs")
	}
}

// TestBuildMatchesReference builds random graphs with links down under
// regex policies, the standard policies on two fat-trees and the
// paper's topologies under their policies, and holds Build to the
// reference layout through the public API; the printed-key exploration
// must agree with the reference field for field.
func TestBuildMatchesReference(t *testing.T) {
	type cell struct {
		g    *topo.Graph
		srcs []string
	}
	var cells []cell
	rng := rand.New(rand.NewSource(16))
	for trial := 0; trial < 12; trial++ {
		g := topo.RandomConnected(6+rng.Intn(30), 2.5, int64(trial))
		for id := range g.Links() {
			if rng.Intn(6) == 0 {
				g.SetDown(topo.LinkID(id), true)
			}
		}
		names := g.SortedNames()
		pick := func() string { return names[rng.Intn(len(names))] }
		cells = append(cells, cell{g, []string{
			"minimize(path.util)",
			"minimize(if .* (" + pick() + " + " + pick() + " + " + pick() + ") .* then path.util else inf)",
			"minimize(if " + pick() + " .* then path.util else path.lat)",
			"minimize(if .* " + pick() + " .* then 0 else if " + pick() + " .* " + pick() + " then path.util else path.len)",
		}})
	}
	for _, g := range []*topo.Graph{topo.Fattree(4, 0), topo.Fattree(6, 0), topo.PaperDataCenter(), topo.Abilene()} {
		cells = append(cells, cell{g, standardPolicies(g)})
	}
	for _, g := range []*topo.Graph{topo.Fig4Square(), topo.Fig5Diamond(), topo.Fig6(), topo.Fig8Zigzag()} {
		cells = append(cells, cell{g, append(standardPolicies(g),
			"minimize(if A B D then 0 else if B .* D then path.util else inf)",
			"minimize(if S C E F D + S A E B D then path.util else inf)",
			"minimize(if .* B A .* then inf else path.util)",
		)})
	}

	for _, c := range cells {
		names := c.g.SortedNames()
		for _, src := range c.srcs {
			pol, err := policy.Parse(src, policy.ParseOptions{Symbols: names})
			if err != nil {
				continue // a figure policy naming switches this topology lacks
			}
			got, err := Build(c.g, pol)
			if err != nil {
				t.Fatalf("build %q: %v", src, err)
			}
			want := referenceBuildMaps(c.g, pol)
			what := fmt.Sprintf("%s, %q", c.g.Name, src)
			sameGraph(t, what, got, want)
			if printed := referenceBuild(c.g, pol); !reflect.DeepEqual(printed, want) {
				t.Fatalf("%s: the printed-key exploration differs from the reference", what)
			}
		}
	}
}

// TestStateKeysDistinct checks, on the largest compile_sweep cell, that
// the explorer's index tells apart exactly the tuples the printed key
// did: every virtual node, and its near misses one switch or one
// automaton state away, interned twice over a table that rehashes on the
// way, get one node per printed key.
func TestStateKeysDistinct(t *testing.T) {
	g := topo.Fattree(18, 0)
	names := g.SortedNames()
	k := len(names) / 2
	pgr := build(t, g, fmt.Sprintf("minimize(if .* (%s + %s + %s) .* then path.util else inf)",
		names[k], names[k/2], names[len(names)-1]))

	ex := newExplorer(len(pgr.DFAs), 1, 0)
	byRef := make(map[string]NodeID) // printed key -> interned node
	check := func(x topo.NodeID, states []int32) {
		id, ref := ex.intern(x, states), referenceStateKey(x, states)
		prev, seen := byRef[ref]
		switch {
		case seen && prev != id:
			t.Fatalf("tuple %s interned as %d and %d", ref, prev, id)
		case !seen && int(id) != len(byRef):
			t.Fatalf("new tuple %s interned as existing node %d", ref, id)
		}
		byRef[ref] = id
	}
	for pass := 0; pass < 2; pass++ {
		for v := 0; v < pgr.NumNodes(); v++ {
			n := pgr.Node(NodeID(v))
			check(n.Topo, n.States)
			check(n.Topo+1, n.States)
			check(n.Topo+256, n.States)
			for i := range n.States {
				near := append([]int32(nil), n.States...)
				near[i]++
				check(n.Topo, near)
				near[i] += 255
				check(n.Topo, near)
			}
		}
	}
	if len(byRef) != len(ex.topo) || len(byRef) < pgr.NumNodes() || len(ex.slots) < 2*len(ex.topo) {
		t.Fatalf("%d printed keys, %d interned nodes in %d slots, over %d virtual nodes",
			len(byRef), len(ex.topo), len(ex.slots), pgr.NumNodes())
	}
}
