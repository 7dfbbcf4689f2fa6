package automata

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"

	"contra/internal/policy"
	"contra/internal/topo"
)

// The subset construction and minimization this package had before
// they stepped over symbol classes, kept as the reference Build is
// compared against: one ε-closure (a map and a sort) and one printed
// set key per DFA state × alphabet symbol, Moore signatures and
// liveness edges over every symbol.

func referenceBuild(r policy.Regex, alphabet []string) *DFA {
	n := buildNFA(r, alphabet)
	d := referenceSubsetConstruct(n, alphabet)
	d = referenceMinimize(d)
	d.referenceComputeLive()
	return d
}

func (n *nfa) referenceClosure(set []int) []int {
	seen := make(map[int]bool, len(set))
	stack := append([]int(nil), set...)
	for _, s := range set {
		seen[s] = true
	}
	for len(stack) > 0 {
		s := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, t := range n.eps[s] {
			if !seen[t] {
				seen[t] = true
				stack = append(stack, t)
			}
		}
	}
	out := make([]int, 0, len(seen))
	for s := range seen {
		out = append(out, s)
	}
	sort.Ints(out)
	return out
}

func referenceSetKey(set []int) string {
	var b strings.Builder
	for i, s := range set {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%d", s)
	}
	return b.String()
}

func referenceSubsetConstruct(n *nfa, alphabet []string) *DFA {
	d := &DFA{Alphabet: append([]string(nil), alphabet...)}
	d.symIndex = make(map[string]int, len(alphabet))
	for i, s := range alphabet {
		d.symIndex[s] = i
	}
	nsym := len(alphabet)

	startSet := n.referenceClosure([]int{n.start})
	index := map[string]int{referenceSetKey(startSet): 0}
	sets := [][]int{startSet}
	d.Trans = append(d.Trans, make([]int32, nsym))
	var queue = []int{0}

	accepts := func(set []int) bool {
		for _, s := range set {
			if s == n.accept {
				return true
			}
		}
		return false
	}
	d.Accept = append(d.Accept, accepts(startSet))

	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		set := sets[cur]
		for sym := 0; sym < nsym; sym++ {
			var next []int
			for _, s := range set {
				next = append(next, n.dotTrans[s]...)
				if n.symTrans[s] != nil {
					next = append(next, n.symTrans[s][sym]...)
				}
			}
			nset := n.referenceClosure(referenceDedupInts(next))
			key := referenceSetKey(nset)
			to, ok := index[key]
			if !ok {
				to = len(sets)
				index[key] = to
				sets = append(sets, nset)
				d.Trans = append(d.Trans, make([]int32, nsym))
				d.Accept = append(d.Accept, accepts(nset))
				queue = append(queue, to)
			}
			d.Trans[cur][sym] = int32(to)
		}
	}
	d.Start = 0
	return d
}

func referenceDedupInts(xs []int) []int {
	if len(xs) == 0 {
		return xs
	}
	sort.Ints(xs)
	out := xs[:1]
	for _, x := range xs[1:] {
		if x != out[len(out)-1] {
			out = append(out, x)
		}
	}
	return out
}

func referenceMinimize(d *DFA) *DFA {
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
	for {
		// Signature: (part, parts of successors).
		type sigKey string
		sigOf := func(s int) sigKey {
			var b strings.Builder
			fmt.Fprintf(&b, "%d", part[s])
			for sym := 0; sym < nsym; sym++ {
				fmt.Fprintf(&b, ",%d", part[d.Trans[s][sym]])
			}
			return sigKey(b.String())
		}
		index := make(map[sigKey]int)
		newPart := make([]int, n)
		next := 0
		for s := 0; s < n; s++ {
			k := sigOf(s)
			id, ok := index[k]
			if !ok {
				id = next
				next++
				index[k] = id
			}
			newPart[s] = id
		}
		if next == numParts {
			part = newPart
			break
		}
		part, numParts = newPart, next
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

func (d *DFA) referenceComputeLive() {
	n := len(d.Trans)
	rev := make([][]int32, n)
	for s := 0; s < n; s++ {
		for _, t := range d.Trans[s] {
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

// checkMatchesReference fails t unless Build and BuildReversed of r
// equal the reference construction field for field, state numbering
// and the unexported symbol index included.
func checkMatchesReference(t *testing.T, r policy.Regex, alphabet []string) {
	t.Helper()
	for _, re := range []policy.Regex{r, policy.Reverse(r)} {
		got, want := Build(re, alphabet), referenceBuild(re, alphabet)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("regex %s over %d symbols: Build differs from the reference\ngot  %s\nwant %s",
				re, len(alphabet), got, want)
		}
	}
}

// fattreeNames is the alphabet pg.Build uses on a k-ary fat-tree: 405
// names at k = 18, 1 280 at k = 32.
func fattreeNames(k int) []string { return topo.Fattree(k, 0).SortedNames() }

func TestBuildMatchesReference(t *testing.T) {
	big := map[string][]string{"405": fattreeNames(18), "1280": fattreeNames(32)}
	// The random regexes of TestRandomizedEquivalenceAfterMinimization,
	// over its alphabet.
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 60; trial++ {
		checkMatchesReference(t, randomRegex(rng, 3, alphabet), alphabet)
	}
	// The same shapes over a fat-tree's names, a few named symbols
	// among hundreds of symbols alike, some absent from the alphabet.
	for _, size := range []string{"405", "1280"} {
		names := big[size]
		rng := rand.New(rand.NewSource(6))
		picks := []string{names[0], names[1], names[len(names)/2], names[len(names)-1], "zz-absent"}
		for trial := 0; trial < 12; trial++ {
			checkMatchesReference(t, randomRegex(rng, 3, picks), names)
		}
	}

	k, k2, last := big["405"][202], big["405"][101], big["405"][404]
	cases := []struct {
		src      string
		alphabet []string
	}{
		// The §6.2 waypoint policy's regex on its 405-switch fabric.
		{fmt.Sprintf(".* (%s + %s + %s) .*", k, k2, last), big["405"]},
		{fmt.Sprintf(".* %s .*", last), big["1280"]},
		// Symbols absent from the alphabet, alone and beside present ones.
		{"Z", alphabet},
		{".* Z .*", alphabet},
		{"(A + Z) B", alphabet},
		{"A Z* B", alphabet},
		// The same symbol named twice.
		{"A A", alphabet},
		{"A + A", alphabet},
		{".* A .* A .*", alphabet},
		{"(A + B) (A + B)", []string{"A", "B"}},
		// Dots only: every symbol in the one shared class.
		{".", alphabet},
		{". .", alphabet},
		{".*", alphabet},
		{"(. .)*", alphabet},
		{". .*", fattreeNames(4)},
		// Stars of alternations.
		{"(A + B)*", alphabet},
		{"(A B + C)* D", alphabet},
		{"((A + .) (B + W))*", alphabet},
		// An alphabet every symbol of which the regex names: no shared
		// class; and an empty alphabet.
		{"(A + B + C + D + W)*", alphabet},
		{"A .*", nil},
	}
	for _, tc := range cases {
		checkMatchesReference(t, regexOf(t, tc.src), tc.alphabet)
	}
}

// maxFuzzNFAStates bounds the regexes FuzzBuild checks: the subset
// construction is exponential in the NFA's size (".* A" followed by n
// dots has 2^n states), and the reference walks every symbol of each.
const maxFuzzNFAStates = 20

// FuzzBuild compiles every regex of every policy the parser accepts and
// requires Build to equal the reference construction.
func FuzzBuild(f *testing.F) {
	names := []string{"A", "B", "C", "D", "E"} // E: named by no seed
	srcs := fuzzParseCorpus(f)
	cat := policy.Catalog(names[:4])
	keys := make([]string, 0, len(cat))
	for k := range cat {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		srcs = append(srcs, cat[k].Src)
	}
	srcs = append(srcs,
		"minimize(if .* (C + B + D) .* then path.util else inf)",
		"minimize(if A B D then 0 else if B .* D then path.util else inf)",
		"minimize(if (A + B)* C and not .* Z .* then path.len else path.util)",
		"minimize(if .* A A .* then 1 else if (. .)* then 2 else 3)")
	for _, src := range srcs {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		p, err := policy.Parse(src)
		if err != nil {
			return
		}
		for _, r := range p.Regexes {
			if len(buildNFA(r, names).eps) > maxFuzzNFAStates ||
				len(buildNFA(policy.Reverse(r), names).eps) > maxFuzzNFAStates {
				continue
			}
			checkMatchesReference(t, r, names)
		}
	})
}

// fuzzParseCorpus reads the policy parser's committed fuzz corpus.
func fuzzParseCorpus(f *testing.F) []string {
	dir := filepath.Join("..", "policy", "testdata", "fuzz", "FuzzParse")
	entries, err := os.ReadDir(dir)
	if err != nil {
		f.Fatalf("policy fuzz corpus: %v", err)
	}
	var srcs []string
	for _, e := range entries {
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			f.Fatal(err)
		}
		for _, line := range strings.Split(string(b), "\n") {
			if q, ok := strings.CutPrefix(line, "string("); ok {
				s, err := strconv.Unquote(strings.TrimSuffix(q, ")"))
				if err != nil {
					f.Fatalf("%s: %v", e.Name(), err)
				}
				srcs = append(srcs, s)
			}
		}
	}
	if len(srcs) == 0 {
		f.Fatalf("no seed in %s", dir)
	}
	return srcs
}

// BenchmarkBuildReversedFattree18WP builds the §6.2 waypoint regex's
// reversed DFA over a 405-switch fat-tree's names, as pg.Build does for
// the scalability experiments' WP policy.
func BenchmarkBuildReversedFattree18WP(b *testing.B) {
	names := fattreeNames(18)
	k := len(names) / 2
	p := policy.MustParse(fmt.Sprintf("minimize(if .* (%s + %s + %s) .* then path.util else inf)",
		names[k], names[k/2], names[len(names)-1]), policy.ParseOptions{Symbols: names})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dfaSink = BuildReversed(p.Regexes[0], names)
	}
}

var dfaSink *DFA
