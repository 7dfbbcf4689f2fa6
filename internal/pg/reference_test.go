package pg

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"contra/internal/automata"
	"contra/internal/policy"
	"contra/internal/topo"
)

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

// referenceBuild is Build with the exploration it had before: printed
// keys, automata stepped by switch name, a fresh state vector per
// expansion. Pruning and tag assignment are shared.
func referenceBuild(t *topo.Graph, pol *policy.Policy) *Graph {
	g := &Graph{
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

func TestBuildMatchesReference(t *testing.T) {
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
		for _, src := range []string{
			"minimize(path.util)",
			"minimize(if .* (" + pick() + " + " + pick() + " + " + pick() + ") .* then path.util else inf)",
			"minimize(if " + pick() + " .* then path.util else path.lat)",
			"minimize(if .* " + pick() + " .* then 0 else if " + pick() + " .* " + pick() + " then path.util else path.len)",
		} {
			pol, err := policy.Parse(src, policy.ParseOptions{Symbols: names})
			if err != nil {
				t.Fatalf("parse %q: %v", src, err)
			}
			got, err := Build(g, pol)
			if err != nil {
				t.Fatalf("build %q: %v", src, err)
			}
			want := referenceBuild(g, pol)
			if !reflect.DeepEqual(got.nodes, want.nodes) ||
				!reflect.DeepEqual(got.out, want.out) || !reflect.DeepEqual(got.in, want.in) ||
				!reflect.DeepEqual(got.send, want.send) || !reflect.DeepEqual(got.byTopo, want.byTopo) ||
				got.maxTagsPerSwitch != want.maxTagsPerSwitch {
				t.Fatalf("trial %d, %q: product graph differs from the reference\ngot  %swant %s",
					trial, src, got.Dump(), want.Dump())
			}
		}
	}
}

// TestStateKeysDistinct checks, on the largest compile_sweep cell, that
// the binary key tells apart exactly the tuples the printed key did:
// every virtual node, and its near misses one switch or one automaton
// state away.
func TestStateKeysDistinct(t *testing.T) {
	g := topo.Fattree(18, 0)
	names := g.SortedNames()
	k := len(names) / 2
	pgr := build(t, g, fmt.Sprintf("minimize(if .* (%s + %s + %s) .* then path.util else inf)",
		names[k], names[k/2], names[len(names)-1]))

	ix := newStateIndex(len(pgr.DFAs))
	byKey := make(map[string]string) // binary key -> printed key
	byRef := make(map[string]string) // and back
	check := func(x topo.NodeID, states []int32) {
		key, ref := string(ix.key(x, states)), referenceStateKey(x, states)
		if len(key) != 4*(1+len(states)) {
			t.Fatalf("key of %s is %d bytes, want fixed width %d", ref, len(key), 4*(1+len(states)))
		}
		if prev, ok := byKey[key]; ok && prev != ref {
			t.Fatalf("tuples %s and %s share a key", prev, ref)
		}
		if prev, ok := byRef[ref]; ok && prev != key {
			t.Fatalf("tuple %s has two keys", ref)
		}
		byKey[key], byRef[ref] = ref, key
	}
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
	if len(byKey) != len(byRef) || len(byKey) < pgr.NumNodes() {
		t.Fatalf("%d binary keys for %d printed keys over %d virtual nodes", len(byKey), len(byRef), pgr.NumNodes())
	}
}
