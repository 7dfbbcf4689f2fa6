package automata

import (
	"math/rand"
	"testing"

	"contra/internal/policy"
)

var alphabet = []string{"A", "B", "C", "D", "W"}

func regexOf(t *testing.T, src string) policy.Regex {
	t.Helper()
	p, err := policy.Parse("minimize(if " + src + " then 0 else 1)")
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	return p.Regexes[0]
}

func TestDFAMatchesReference(t *testing.T) {
	// The DFA must agree with the reference NFA matcher on random
	// paths, for a spread of regex shapes.
	regexes := []string{
		"A B D",
		"A .*",
		".* W .*",
		"(A + B) D",
		"A (B C)* D",
		". . .",
		".* A B .*",
		"A* B*",
		".* (A + B) .* (C + D) .*",
		"A B D + A C D",
	}
	rng := rand.New(rand.NewSource(3))
	for _, src := range regexes {
		re := regexOf(t, src)
		d := Build(re, alphabet)
		for i := 0; i < 500; i++ {
			n := rng.Intn(6)
			path := make([]string, n)
			for j := range path {
				path[j] = alphabet[rng.Intn(len(alphabet))]
			}
			want := policy.MatchPath(re, path)
			if got := d.Match(path); got != want {
				t.Fatalf("regex %q path %v: DFA=%v reference=%v\n%s", src, path, got, want, d)
			}
		}
	}
}

func TestReversedDFA(t *testing.T) {
	// BuildReversed(r) must accept exactly the reversals of paths
	// accepted by Build(r).
	rng := rand.New(rand.NewSource(4))
	for _, src := range []string{"A B D", ".* W .*", "A .* D", "(A+B) C*"} {
		re := regexOf(t, src)
		fwd := Build(re, alphabet)
		rev := BuildReversed(re, alphabet)
		for i := 0; i < 300; i++ {
			n := rng.Intn(5)
			path := make([]string, n)
			rpath := make([]string, n)
			for j := range path {
				path[j] = alphabet[rng.Intn(len(alphabet))]
				rpath[n-1-j] = path[j]
			}
			if fwd.Match(path) != rev.Match(rpath) {
				t.Fatalf("regex %q: fwd(%v) != rev(reverse)", src, path)
			}
		}
	}
}

func TestMinimization(t *testing.T) {
	// (A + B) (A + B) and ". ." restricted to {A,B} are equivalent;
	// both should minimize to the same number of states.
	a := Build(regexOf(t, "(A + B) (A + B)"), []string{"A", "B"})
	b := Build(regexOf(t, ". ."), []string{"A", "B"})
	if a.NumStates() != b.NumStates() {
		t.Fatalf("equivalent DFAs with different sizes: %d vs %d", a.NumStates(), b.NumStates())
	}
	// Minimal DFA for ". ." over a 2-symbol alphabet: states for
	// lengths 0,1,2 plus dead = 4.
	if b.NumStates() != 4 {
		t.Fatalf("'. .' states = %d, want 4\n%s", b.NumStates(), b)
	}
}

func TestDotStarIsOneState(t *testing.T) {
	d := Build(regexOf(t, ".*"), alphabet)
	if d.NumStates() != 1 {
		t.Fatalf(".* states = %d, want 1\n%s", d.NumStates(), d)
	}
	if !d.Accept[d.Start] || !d.Live[d.Start] {
		t.Fatal(".* must accept everything")
	}
}

func TestLiveStates(t *testing.T) {
	d := Build(regexOf(t, "A B"), alphabet)
	step := func(s int, name string) int {
		sym, ok := d.Sym(name)
		if !ok {
			t.Fatalf("%s is not in the alphabet", name)
		}
		return d.Step(s, sym)
	}
	// After seeing a non-A symbol first, we are dead.
	s := step(d.Start, "C")
	if d.Live[s] {
		t.Fatalf("state after C should be dead\n%s", d)
	}
	s = step(d.Start, "A")
	if !d.Live[s] {
		t.Fatal("state after A should be live")
	}
	s = step(s, "B")
	if !d.Accept[s] {
		t.Fatal("AB should accept")
	}
	// Extending past the accept kills it.
	s = step(s, "B")
	if d.Live[s] {
		t.Fatal("ABB should be dead")
	}
}

func TestSymbolsOutsideAlphabet(t *testing.T) {
	// Regex mentions W, which is not in this topology's alphabet: the
	// branch is simply unmatchable.
	d := Build(regexOf(t, ".* W .*"), []string{"A", "B"})
	if d.Match([]string{"A", "B"}) {
		t.Fatal("W branch should be unmatchable")
	}
	// Every state should be dead.
	for s := range d.Live {
		if d.Live[s] {
			t.Fatalf("state %d live in unmatchable DFA", s)
		}
	}
}

func TestEmptyPathMatch(t *testing.T) {
	d := Build(regexOf(t, "A*"), alphabet)
	if !d.Match(nil) {
		t.Fatal("A* should match the empty path")
	}
	d2 := Build(regexOf(t, "A"), alphabet)
	if d2.Match(nil) {
		t.Fatal("A should not match the empty path")
	}
}

func TestDFACompleteness(t *testing.T) {
	// Every state must have a transition for every symbol (complete
	// DFA), and all targets in range.
	for _, src := range []string{"A B D", ".* W .*", "A (B C)* D"} {
		d := Build(regexOf(t, src), alphabet)
		for s := range d.Trans {
			if len(d.Trans[s]) != len(alphabet) {
				t.Fatalf("%q state %d has %d transitions", src, s, len(d.Trans[s]))
			}
			for _, to := range d.Trans[s] {
				if int(to) < 0 || int(to) >= d.NumStates() {
					t.Fatalf("%q transition out of range", src)
				}
			}
		}
	}
}

// randomRegex draws a regex of the given depth over names, dots
// included.
func randomRegex(rng *rand.Rand, depth int, names []string) policy.Regex {
	if depth == 0 || rng.Intn(3) == 0 {
		if rng.Intn(4) == 0 {
			return &policy.RDot{}
		}
		return &policy.RSym{Name: names[rng.Intn(len(names))]}
	}
	switch rng.Intn(3) {
	case 0:
		return &policy.RCat{L: randomRegex(rng, depth-1, names), R: randomRegex(rng, depth-1, names)}
	case 1:
		return &policy.RAlt{L: randomRegex(rng, depth-1, names), R: randomRegex(rng, depth-1, names)}
	default:
		return &policy.RStar{X: randomRegex(rng, depth-1, names)}
	}
}

func TestRandomizedEquivalenceAfterMinimization(t *testing.T) {
	// Property: for random regexes, the minimized DFA agrees with the
	// reference matcher everywhere (sampled).
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 60; trial++ {
		re := randomRegex(rng, 3, alphabet)
		d := Build(re, alphabet)
		for i := 0; i < 100; i++ {
			n := rng.Intn(5)
			path := make([]string, n)
			for j := range path {
				path[j] = alphabet[rng.Intn(len(alphabet))]
			}
			if d.Match(path) != policy.MatchPath(re, path) {
				t.Fatalf("mismatch: regex %s path %v", re.String(), path)
			}
		}
	}
}
