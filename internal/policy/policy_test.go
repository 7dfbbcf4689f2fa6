package policy

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestParseCatalogPolicies(t *testing.T) {
	for name, p := range Catalog([]string{"A", "B", "F1", "F2"}) {
		if p == nil {
			t.Fatalf("%s: nil policy", name)
		}
		// Round trip: printing and reparsing preserves semantics on a
		// couple of sample paths.
		q, err := Parse(p.String())
		if err != nil {
			t.Fatalf("%s: reparse of %q: %v", name, p.String(), err)
		}
		for _, path := range [][]string{{"A", "B"}, {"A", "F1", "B"}, {"B", "A"}} {
			info := PathInfo{Nodes: path, Util: 0.5, Lat: 0.001}
			if r1, r2 := p.RankPath(info), q.RankPath(info); !r1.Equal(r2) {
				t.Errorf("%s: rank changed after reparse on %v: %v vs %v", name, path, r1, r2)
			}
		}
	}
}

func TestParsePaperExamples(t *testing.T) {
	// Examples from §2 of the paper, lightly adapted to ASCII.
	srcs := []string{
		"minimize(if A .* then path.util else path.lat)",
		"minimize(if .* W .* then 0 else inf)",
		"minimize(if A B D then 0 else if A C D then 1 else inf)",
		"minimize(if A .* B .* D then (0, path.len, path.util) else if A .* C .* D then (1, path.len, path.util) else inf)",
		"minimize(if path.util < .8 then (1, 0, path.util) else (2, path.len, path.util))",
		"minimize((if .* A B .* then 10 else 0) + (if .* C D .* then 20 else 0) + path.len)",
		"minimize(if S .* D then path.util else inf)",
		"minimize(if .* B A .* then inf else path.util)",
		"minimize(if S C E F D + S A E B D then path.util else inf)",
	}
	for _, src := range srcs {
		if _, err := Parse(src); err != nil {
			t.Errorf("Parse(%q): %v", src, err)
		}
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"path.util",                           // missing minimize
		"minimize()",                          // empty
		"minimize(path.util",                  // unbalanced
		"minimize(path.frob)",                 // unknown attr
		"minimize(if A then 1)",               // missing else
		"minimize(1 = 2)",                     // single equals
		"minimize((path.util, path.len) + 1)", // tuple in scalar position
		"minimize(if (path.util, 1) < 2 then 0 else 1)", // tuple in comparison
		"minimize(1) extra",                             // trailing tokens
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", src)
		}
	}
}

func TestSymbolSplitting(t *testing.T) {
	opts := ParseOptions{Symbols: []string{"X", "Y", "A", "B"}}
	p, err := Parse("minimize(if .*XY.* then path.util else inf)", opts)
	if err != nil {
		t.Fatal(err)
	}
	// The regex should treat XY as concatenation X Y.
	if got := p.Regexes[0].String(); !strings.Contains(got, "X Y") {
		t.Fatalf("split failed: %s", got)
	}
	if !MatchPath(p.Regexes[0], []string{"A", "X", "Y", "B"}) {
		t.Fatal("should match path through link X-Y")
	}
	if MatchPath(p.Regexes[0], []string{"A", "Y", "X", "B"}) {
		t.Fatal("should not match reversed link")
	}
	// Unknown identifier that cannot be split is an error.
	if _, err := Parse("minimize(if .*QZ.* then 0 else 1)", opts); err == nil {
		t.Fatal("unknown symbol should fail with alphabet")
	}
	// Without an alphabet any identifier is accepted whole.
	p2, err := Parse("minimize(if .*XY.* then 0 else 1)")
	if err != nil {
		t.Fatal(err)
	}
	if p2.Regexes[0].String() != ". * X Y . *" && !MatchPath(p2.Regexes[0], []string{"XY"}) {
		t.Fatal("without alphabet, XY should be a single symbol")
	}
}

func TestRankCmp(t *testing.T) {
	cases := []struct {
		a, b Rank
		want int
	}{
		{Finite(1), Finite(2), -1},
		{Finite(2), Finite(1), 1},
		{Finite(1), Finite(1), 0},
		{Finite(1, 5), Finite(2, 0), -1},
		{Finite(1, 5), Finite(1, 6), -1},
		{Finite(3), Finite(3, 0), 0},  // zero padding
		{Finite(3), Finite(3, 1), -1}, // shorter == padded smaller
		{Finite(3, 1), Finite(3), 1},
		{Infinite(), Infinite(), 0},
		{Finite(1e18), Infinite(), -1},
		{Infinite(), Finite(-1e18), 1},
	}
	for _, c := range cases {
		if got := c.a.Cmp(c.b); got != c.want {
			t.Errorf("%v.Cmp(%v) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestRankCmpTotalOrderProperties(t *testing.T) {
	gen := func(r *rand.Rand) Rank {
		if r.Intn(8) == 0 {
			return Infinite()
		}
		n := r.Intn(4)
		v := make([]float64, n)
		for i := range v {
			v[i] = float64(r.Intn(5))
		}
		return Rank{V: v}
	}
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 5000; i++ {
		a, b, c := gen(r), gen(r), gen(r)
		// Antisymmetry.
		if a.Cmp(b) != -b.Cmp(a) {
			t.Fatalf("antisymmetry failed: %v %v", a, b)
		}
		// Transitivity of <=.
		if a.Cmp(b) <= 0 && b.Cmp(c) <= 0 && a.Cmp(c) > 0 {
			t.Fatalf("transitivity failed: %v %v %v", a, b, c)
		}
		// Reflexivity.
		if a.Cmp(a) != 0 {
			t.Fatalf("reflexivity failed: %v", a)
		}
	}
}

func TestEvalPolicies(t *testing.T) {
	util, lat := 0.4, 0.002
	path := PathInfo{Nodes: []string{"A", "B", "D"}, Util: util, Lat: lat} // 2 hops

	cases := []struct {
		src  string
		want Rank
	}{
		{"minimize(path.len)", Finite(2)},
		{"minimize(path.util)", Finite(util)},
		{"minimize(path.lat)", Finite(lat)},
		{"minimize((path.util, path.len))", Finite(util, 2)},
		{"minimize(if A B D then 0 else inf)", Finite(0)},
		{"minimize(if A C D then 0 else inf)", Infinite()},
		{"minimize(if .* B .* then path.util else inf)", Finite(util)},
		{"minimize(if path.util < .8 then (1, 0, path.util) else (2, path.len, path.util))", Finite(1, 0, util)},
		{"minimize((if .* A B .* then 10 else 0) + path.len)", Finite(12)},
		{"minimize((if .* B A .* then 10 else 0) + path.len)", Finite(2)},
		{"minimize(2 * path.len + 1)", Finite(5)},
		{"minimize(if not (A B D) then 0 else 1)", Finite(1)},
		{"minimize(if A B D and path.util < .5 then 0 else 1)", Finite(0)},
		{"minimize(if A B D or A C D then 0 else 1)", Finite(0)},
		{"minimize(if path.util >= .4 then 0 else 1)", Finite(0)},
		{"minimize(if path.len == 2 then 7 else 8)", Finite(7)},
		{"minimize(if path.len != 2 then 7 else 8)", Finite(8)},
		{"minimize(-path.len)", Finite(-2)},
	}
	for _, c := range cases {
		p, err := Parse(c.src)
		if err != nil {
			t.Errorf("Parse(%q): %v", c.src, err)
			continue
		}
		if got := p.RankPath(path); !got.Equal(c.want) {
			t.Errorf("%q on ABD = %v, want %v", c.src, got, c.want)
		}
	}
}

func TestEvalHighUtilSwitchesBranch(t *testing.T) {
	p := CongestionAware()
	hot := PathInfo{Nodes: []string{"A", "B", "C", "D"}, Util: 0.9}
	if got := p.RankPath(hot); !got.Equal(Finite(2, 3, 0.9)) {
		t.Fatalf("hot path rank = %v, want (2,3,0.9)", got)
	}
}

func TestTupleWithInfComponent(t *testing.T) {
	p := MustParse("minimize((if A B then 0 else inf, path.len))")
	bad := PathInfo{Nodes: []string{"B", "A"}}
	if got := p.RankPath(bad); !got.IsInf() {
		t.Fatalf("tuple containing inf should be inf, got %v", got)
	}
	good := PathInfo{Nodes: []string{"A", "B"}}
	if got := p.RankPath(good); !got.Equal(Finite(0, 1)) {
		t.Fatalf("got %v, want (0,1)", got)
	}
}

func TestMatchPath(t *testing.T) {
	cases := []struct {
		regex string
		path  []string
		want  bool
	}{
		{"A B D", []string{"A", "B", "D"}, true},
		{"A B D", []string{"A", "B"}, false},
		{"A .*", []string{"A"}, true},
		{"A .*", []string{"A", "X", "Y"}, true},
		{"A .*", []string{"B", "A"}, false},
		{".* W .*", []string{"A", "W", "B"}, true},
		{".* W .*", []string{"W"}, true},
		{".* W .*", []string{"A", "B"}, false},
		{"(A + B) D", []string{"A", "D"}, true},
		{"(A + B) D", []string{"B", "D"}, true},
		{"(A + B) D", []string{"C", "D"}, false},
		{"A (B C)* D", []string{"A", "D"}, true},
		{"A (B C)* D", []string{"A", "B", "C", "D"}, true},
		{"A (B C)* D", []string{"A", "B", "C", "B", "C", "D"}, true},
		{"A (B C)* D", []string{"A", "B", "D"}, false},
		{".", []string{"X"}, true},
		{".", []string{"X", "Y"}, false},
		{"A**", []string{"A", "A", "A"}, true},
		{"A**", nil, true},
	}
	for _, c := range cases {
		p, err := Parse("minimize(if " + c.regex + " then 0 else 1)")
		if err != nil {
			t.Errorf("regex %q: %v", c.regex, err)
			continue
		}
		if got := MatchPath(p.Regexes[0], c.path); got != c.want {
			t.Errorf("MatchPath(%q, %v) = %v, want %v", c.regex, c.path, got, c.want)
		}
	}
}

func TestReverseProperty(t *testing.T) {
	// MatchPath(Reverse(r), reverse(path)) == MatchPath(r, path).
	regexes := []string{
		"A B D", "A .*", ".* W .*", "(A + B) D", "A (B C)* D", ". . .",
		".* A B .*", "A* B*",
	}
	syms := []string{"A", "B", "C", "D", "W"}
	r := rand.New(rand.NewSource(2))
	for _, src := range regexes {
		p := MustParse("minimize(if " + src + " then 0 else 1)")
		re := p.Regexes[0]
		rev := Reverse(re)
		for i := 0; i < 300; i++ {
			n := r.Intn(5)
			path := make([]string, n)
			for j := range path {
				path[j] = syms[r.Intn(len(syms))]
			}
			rpath := make([]string, n)
			for j := range path {
				rpath[n-1-j] = path[j]
			}
			if MatchPath(re, path) != MatchPath(rev, rpath) {
				t.Fatalf("reverse mismatch: regex %q path %v", src, path)
			}
		}
	}
}

func TestReverseInvolution(t *testing.T) {
	f := func(seed int64) bool {
		r := randomRegex(rand.New(rand.NewSource(seed)), 4)
		return Reverse(Reverse(r)).String() == r.String()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func randomRegex(r *rand.Rand, depth int) Regex {
	if depth == 0 || r.Intn(3) == 0 {
		if r.Intn(4) == 0 {
			return &RDot{}
		}
		return &RSym{Name: string(rune('A' + r.Intn(4)))}
	}
	switch r.Intn(3) {
	case 0:
		return &RCat{L: randomRegex(r, depth-1), R: randomRegex(r, depth-1)}
	case 1:
		return &RAlt{L: randomRegex(r, depth-1), R: randomRegex(r, depth-1)}
	default:
		return &RStar{X: randomRegex(r, depth-1)}
	}
}

func TestPolicyMetadata(t *testing.T) {
	p := MustParse("minimize(if A .* then path.util else path.lat)")
	if len(p.Regexes) != 1 {
		t.Fatalf("regexes = %d, want 1", len(p.Regexes))
	}
	if len(p.Attrs) != 2 || p.Attrs[0] != Util || p.Attrs[1] != Lat {
		t.Fatalf("attrs = %v, want [util lat]", p.Attrs)
	}
	if !p.UsesAttr(Util) || p.UsesAttr(Len) {
		t.Fatal("UsesAttr wrong")
	}
	if p.Width != 1 {
		t.Fatalf("width = %d, want 1", p.Width)
	}
	ca := CongestionAware()
	if ca.Width != 3 {
		t.Fatalf("CA width = %d, want 3", ca.Width)
	}
	// Duplicate regexes are interned once.
	p2 := MustParse("minimize(if A .* then 1 else if A .* then 2 else 3)")
	if len(p2.Regexes) != 1 {
		t.Fatalf("duplicate regex not interned: %d", len(p2.Regexes))
	}
}

func TestMetricCombine(t *testing.T) {
	if got := Util.Combine(0.3, 0.5); got != 0.5 {
		t.Fatalf("util combine = %v, want 0.5 (max)", got)
	}
	if got := Util.Combine(0.5, 0.3); got != 0.5 {
		t.Fatalf("util combine = %v, want 0.5 (max)", got)
	}
	if got := Lat.Combine(1.5, 2.5); got != 4.0 {
		t.Fatalf("lat combine = %v, want 4.0 (sum)", got)
	}
	if got := Len.Combine(3, 1); got != 4 {
		t.Fatalf("len combine = %v, want 4 (sum)", got)
	}
}

func TestFailoverPolicy(t *testing.T) {
	paths := [][]string{{"A", "B", "D"}, {"A", "C", "D"}, {"A", "B", "C", "D"}}
	for n := 2; n <= len(paths); n++ {
		p := Failover(paths[:n]...)
		for i, nodes := range paths {
			got := p.RankPath(PathInfo{Nodes: nodes})
			if i < n && !got.Equal(Finite(float64(i))) {
				t.Errorf("%d paths: preference %d ranks %v, want %d", n, i, got, i)
			}
			if i >= n && !got.IsInf() {
				t.Errorf("%d paths: unlisted %v ranks %v, want inf", n, nodes, got)
			}
		}
		if got := p.RankPath(PathInfo{Nodes: []string{"A", "D"}}); !got.IsInf() {
			t.Errorf("%d paths: other = %v, want inf", n, got)
		}
	}
}

func TestLexerNumbers(t *testing.T) {
	toks, err := lex("0.5 .8 42 1e9 2.5e-3")
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{0.5, 0.8, 42, 1e9, 2.5e-3}
	var got []float64
	for _, tk := range toks {
		if tk.kind == tokNumber {
			got = append(got, tk.num)
		}
	}
	if len(got) != len(want) {
		t.Fatalf("numbers = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("number %d = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestUnicodeInfinity(t *testing.T) {
	p, err := Parse("minimize(if A .* then 0 else ∞)")
	if err != nil {
		t.Fatal(err)
	}
	if got := p.RankPath(PathInfo{Nodes: []string{"B"}}); !got.IsInf() {
		t.Fatalf("got %v, want inf", got)
	}
}
