// Package automata converts the policy language's regular path
// expressions into deterministic finite automata over a topology's
// switch alphabet. The Contra compiler builds one DFA per distinct
// regex — reversed, because probes travel opposite to traffic — and
// forms their product with the topology (§4.1 of the paper).
package automata

import (
	"fmt"
	"slices"
	"strconv"
	"strings"

	"contra/internal/policy"
)

// DFA is a deterministic automaton over a fixed, finite alphabet of
// switch names. It is always complete: every (state, symbol) pair has
// a transition, with non-matching paths falling into a dead ("garbage")
// state.
type DFA struct {
	Alphabet []string // symbol index -> switch name
	Start    int
	Accept   []bool    // per state
	Trans    [][]int32 // Trans[state][symbol] -> state
	Live     []bool    // Live[state]: an accepting state is reachable

	symIndex map[string]int
}

// NumStates returns the number of DFA states.
func (d *DFA) NumStates() int { return len(d.Trans) }

// Sym returns the symbol index of a switch name.
func (d *DFA) Sym(name string) (int, bool) {
	i, ok := d.symIndex[name]
	return i, ok
}

// Step advances the automaton.
func (d *DFA) Step(state int, sym int) int { return int(d.Trans[state][sym]) }

// Match runs the automaton over a path of switch names.
func (d *DFA) Match(path []string) bool {
	s := d.Start
	for _, name := range path {
		i, ok := d.symIndex[name]
		if !ok {
			return false
		}
		s = int(d.Trans[s][i])
	}
	return d.Accept[s]
}

// String renders a compact description for debugging.
func (d *DFA) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "DFA %d states, start %d, alphabet %v\n", len(d.Trans), d.Start, d.Alphabet)
	for s := range d.Trans {
		mark := " "
		if d.Accept[s] {
			mark = "*"
		}
		live := " "
		if !d.Live[s] {
			live = "†"
		}
		fmt.Fprintf(&b, "%s%s%2d:", mark, live, s)
		for a, t := range d.Trans[s] {
			fmt.Fprintf(&b, " %s→%d", d.Alphabet[a], t)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// Build compiles a regular path expression into a minimal complete DFA
// over the given alphabet. Symbols mentioned by the regex that are not
// in the alphabet make the corresponding branches unmatchable (they are
// simply absent from the topology).
//
// Construction and minimization step each state once per symbol class,
// not once per symbol: every symbol the regex names is a class of its
// own and all the others share one, so a 1 280-switch alphabet under a
// three-waypoint regex costs four steps per state, not 1 280.
func Build(r policy.Regex, alphabet []string) *DFA {
	n := buildNFA(r, alphabet)
	d := subsetConstruct(n, alphabet)
	d = minimize(d, n.reps)
	d.computeLive(n.reps)
	return d
}

// BuildReversed compiles the reversal of r, which is what probe
// propagation needs (§4.1: probes travel destination→sources).
func BuildReversed(r policy.Regex, alphabet []string) *DFA {
	return Build(policy.Reverse(r), alphabet)
}

// ---- Thompson NFA over symbol indices ----

type nfa struct {
	// trans[state] = per-symbol target sets; dotTrans for '.'.
	symTrans []map[int][]int // state -> symbol -> targets
	dotTrans [][]int         // state -> targets on any symbol
	eps      [][]int
	start    int
	accept   int

	// The alphabet's symbol classes. Each symbol that some RSym names
	// is a class of its own; every other symbol is in one shared class,
	// since no NFA transition tells two of them apart. reps[c] is class
	// c's smallest symbol, ascending in c; classOf maps a symbol to its
	// class.
	reps    []int
	classOf []int

	seen []bool // closure's scratch, all false between calls
}

func (n *nfa) addState() int {
	n.symTrans = append(n.symTrans, nil)
	n.dotTrans = append(n.dotTrans, nil)
	n.eps = append(n.eps, nil)
	return len(n.symTrans) - 1
}

func (n *nfa) addSym(from, sym, to int) {
	if n.symTrans[from] == nil {
		n.symTrans[from] = make(map[int][]int)
	}
	n.symTrans[from][sym] = append(n.symTrans[from][sym], to)
}

func buildNFA(r policy.Regex, alphabet []string) *nfa {
	idx := make(map[string]int, len(alphabet))
	for i, s := range alphabet {
		idx[s] = i
	}
	n := &nfa{}
	n.start = n.addState()
	n.accept = n.fragment(r, n.start, idx)
	n.seen = make([]bool, len(n.eps))

	named := make([]bool, len(alphabet))
	for _, m := range n.symTrans {
		for sym := range m {
			named[sym] = true
		}
	}
	n.classOf = make([]int, len(alphabet))
	shared := -1
	for sym := range alphabet {
		switch {
		case named[sym]:
			n.classOf[sym] = len(n.reps)
			n.reps = append(n.reps, sym)
		case shared < 0:
			shared = len(n.reps)
			n.reps = append(n.reps, sym)
			fallthrough
		default:
			n.classOf[sym] = shared
		}
	}
	return n
}

// fragment wires the NFA fragment for r from state `from`, returning
// the fragment's accepting state.
func (n *nfa) fragment(r policy.Regex, from int, idx map[string]int) int {
	switch x := r.(type) {
	case *policy.RSym:
		to := n.addState()
		if sym, ok := idx[x.Name]; ok {
			n.addSym(from, sym, to)
		}
		// Symbol not in alphabet: no transition; fragment unmatchable.
		return to
	case *policy.RDot:
		to := n.addState()
		n.dotTrans[from] = append(n.dotTrans[from], to)
		return to
	case *policy.RCat:
		mid := n.fragment(x.L, from, idx)
		return n.fragment(x.R, mid, idx)
	case *policy.RAlt:
		l := n.fragment(x.L, from, idx)
		r2 := n.fragment(x.R, from, idx)
		to := n.addState()
		n.eps[l] = append(n.eps[l], to)
		n.eps[r2] = append(n.eps[r2], to)
		return to
	case *policy.RStar:
		hub := n.addState()
		n.eps[from] = append(n.eps[from], hub)
		end := n.fragment(x.X, hub, idx)
		n.eps[end] = append(n.eps[end], hub)
		return hub
	}
	panic("automata: unknown regex node")
}

// closure writes the ε-closure of set, duplicates in set allowed, to
// dst[:0] in ascending order and returns it; dst must not share memory
// with set.
func (n *nfa) closure(dst, set []int) []int {
	dst = dst[:0]
	for _, s := range set {
		if !n.seen[s] {
			n.seen[s] = true
			dst = append(dst, s)
		}
	}
	for i := 0; i < len(dst); i++ {
		for _, t := range n.eps[dst[i]] {
			if !n.seen[t] {
				n.seen[t] = true
				dst = append(dst, t)
			}
		}
	}
	for _, s := range dst {
		n.seen[s] = false
	}
	slices.Sort(dst)
	return dst
}

// ---- subset construction ----

// appendSetKey appends the decimal, comma-separated form of set.
func appendSetKey(b []byte, set []int) []byte {
	for i, s := range set {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(s), 10)
	}
	return b
}

// subsetConstruct numbers DFA states in the order a breadth-first
// expansion over every symbol, in symbol order, first meets them.
// Expanding once per class, classes in order of their smallest symbol,
// meets them in that same order: the symbols a class's representative
// stands for all lead where it leads.
func subsetConstruct(n *nfa, alphabet []string) *DFA {
	d := &DFA{Alphabet: append([]string(nil), alphabet...)}
	d.symIndex = make(map[string]int, len(alphabet))
	for i, s := range alphabet {
		d.symIndex[s] = i
	}

	var (
		sets   [][]int
		index  = make(map[string]int32)
		key    []byte // set key being looked up, reused
		next   []int  // successor set before closure, reused
		cl     []int  // its closure, reused
		target = make([]int32, len(n.reps))
	)
	intern := func(set []int) int32 {
		key = appendSetKey(key[:0], set)
		if id, ok := index[string(key)]; ok {
			return id
		}
		id := int32(len(sets))
		index[string(key)] = id
		sets = append(sets, slices.Clone(set))
		d.Accept = append(d.Accept, slices.Contains(set, n.accept))
		return id
	}

	d.Start = int(intern(n.closure(nil, []int{n.start})))
	for cur := 0; cur < len(sets); cur++ {
		for c, a := range n.reps {
			next = next[:0]
			for _, s := range sets[cur] {
				next = append(next, n.dotTrans[s]...)
				next = append(next, n.symTrans[s][a]...)
			}
			cl = n.closure(cl, next)
			target[c] = intern(cl)
		}
		row := make([]int32, len(alphabet))
		for sym := range row {
			row[sym] = target[n.classOf[sym]]
		}
		d.Trans = append(d.Trans, row)
	}
	return d
}

// ---- Moore minimization ----

// minimize merges equivalent states; reps holds one symbol per class,
// which is all a signature needs, since the symbols of a class move
// every state alike.
func minimize(d *DFA, reps []int) *DFA {
	n := len(d.Trans)
	nsym := len(d.Alphabet)
	part := make([]int, n) // state -> partition id
	for s := 0; s < n; s++ {
		if d.Accept[s] {
			part[s] = 1
		}
	}
	numParts := 2
	// Handle all-accepting or none-accepting uniformly.
	newPart := make([]int, n)
	index := make(map[string]int)
	var key []byte
	for {
		// Signature: (part, parts of successors).
		clear(index)
		next := 0
		for s := 0; s < n; s++ {
			key = strconv.AppendInt(key[:0], int64(part[s]), 10)
			for _, a := range reps {
				key = append(key, ',')
				key = strconv.AppendInt(key, int64(part[d.Trans[s][a]]), 10)
			}
			id, ok := index[string(key)]
			if !ok {
				id = next
				next++
				index[string(key)] = id
			}
			newPart[s] = id
		}
		part, newPart = newPart, part
		if next == numParts {
			break
		}
		numParts = next
	}

	nd := &DFA{
		Alphabet: d.Alphabet,
		symIndex: d.symIndex,
		Start:    part[d.Start],
		Accept:   make([]bool, numParts),
		Trans:    make([][]int32, numParts),
	}
	for s := 0; s < n; s++ {
		p := part[s]
		if nd.Trans[p] == nil {
			nd.Trans[p] = make([]int32, nsym)
			for sym := 0; sym < nsym; sym++ {
				nd.Trans[p][sym] = int32(part[d.Trans[s][sym]])
			}
			nd.Accept[p] = d.Accept[s]
		}
	}
	return nd
}

// computeLive marks states from which some accepting state is
// reachable. Dead (non-live) states are the paper's "garbage" states:
// probes reaching an all-dead state vector are dropped. A state's
// successors are its targets on reps, one symbol per class.
func (d *DFA) computeLive(reps []int) {
	n := len(d.Trans)
	rev := make([][]int32, n)
	for s := 0; s < n; s++ {
		for _, a := range reps {
			t := d.Trans[s][a]
			rev[t] = append(rev[t], int32(s))
		}
	}
	live := make([]bool, n)
	var stack []int32
	for s := 0; s < n; s++ {
		if d.Accept[s] {
			live[s] = true
			stack = append(stack, int32(s))
		}
	}
	for len(stack) > 0 {
		s := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, p := range rev[s] {
			if !live[p] {
				live[p] = true
				stack = append(stack, p)
			}
		}
	}
	d.Live = live
}
