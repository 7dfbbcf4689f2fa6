package policy

import (
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// layoutEnv is the reference evaluator's view of what a Program reads:
// a metric vector under a layout, and match bits by regex ID.
type layoutEnv struct {
	layout []Metric
	mv     []float64
	accept []bool
}

func (e layoutEnv) Attr(m Metric) float64 {
	for i, a := range e.layout {
		if a == m {
			return e.mv[i]
		}
	}
	return 0
}

func (e layoutEnv) Match(id int) bool { return id < len(e.accept) && e.accept[id] }

// awkward are the metric values arithmetic and comparisons treat
// specially; random draws mix them with ordinary ones.
var awkward = []float64{0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1), 0.8, 1, 1e308, -3}

// checkProgram holds p's lowered form to Policy.Eval, bit for bit, over
// random environments: the policy's own layout and one that lacks its
// first attribute (which then reads 0), with and without match bits.
func checkProgram(t *testing.T, p *Policy, rng *rand.Rand) {
	t.Helper()
	layouts := [][]Metric{p.Attrs}
	if len(p.Attrs) > 0 {
		layouts = append(layouts, p.Attrs[1:])
	}
	for _, layout := range layouts {
		prog := Lower(p.Body, layout)
		buf := make([]float64, 0, prog.Width())
		for round := 0; round < 64; round++ {
			env := layoutEnv{layout: layout, mv: make([]float64, len(layout))}
			for i := range env.mv {
				env.mv[i] = float64(rng.Intn(8)) / 4
				if rng.Intn(3) == 0 {
					env.mv[i] = awkward[rng.Intn(len(awkward))]
				}
			}
			if rng.Intn(4) > 0 { // else nil: no regex matches
				env.accept = make([]bool, len(p.Regexes))
				for i := range env.accept {
					env.accept[i] = rng.Intn(2) == 0
				}
			}
			want := p.Eval(env)
			got := prog.Run(env.mv, env.accept, buf)
			same := got.Inf == want.Inf && len(got.V) == len(want.V)
			for i := 0; same && i < len(got.V); i++ {
				same = math.Float64bits(got.V[i]) == math.Float64bits(want.V[i])
			}
			if !same {
				t.Fatalf("%s, layout %v, mv %v, accept %v: program = %v, Eval = %v", p, layout, env.mv, env.accept, got, want)
			}
			if len(got.V) > prog.Width() {
				t.Fatalf("%s: a run emitted %d components, Width() says at most %d", p, len(got.V), prog.Width())
			}
		}
	}
}

// repoPolicies collects every policy source the repository ships: the
// Figure 3 catalog, each "minimize(...)" string under examples/ and
// bench/, and each input of FuzzParse's committed corpus.
func repoPolicies(t *testing.T) []string {
	t.Helper()
	var srcs []string
	for _, p := range Catalog([]string{"A", "B", "C", "D"}) {
		srcs = append(srcs, p.Src)
	}
	quoted := regexp.MustCompile(`"minimize\((?:[^"\\]|\\.)*"`)
	for _, root := range []string{"../../examples", "../../bench"} {
		err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
			if err != nil || d.IsDir() || !(strings.HasSuffix(path, ".json") || strings.HasSuffix(path, ".go")) {
				return err
			}
			data, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			for _, q := range quoted.FindAll(data, -1) {
				if s, err := strconv.Unquote(string(q)); err == nil {
					srcs = append(srcs, s)
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	corpus, err := filepath.Glob("testdata/fuzz/FuzzParse/*")
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range corpus {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		_, arg, _ := strings.Cut(string(data), "\nstring(")
		if s, err := strconv.Unquote(strings.TrimSuffix(strings.TrimSpace(arg), ")")); err == nil {
			srcs = append(srcs, s)
		}
	}
	return srcs
}

// TestProgramMatchesEval is the fence around the data plane's only
// rank evaluator: for every policy the repository ships, and for the
// shapes none of them has, the lowered program and the reference
// tree-walker agree on every bit of every rank.
func TestProgramMatchesEval(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	parsed := 0
	for _, src := range append(repoPolicies(t),
		"minimize(if path.len > 3 then inf else path.util)",
		"minimize((path.util, if path.lat < 1 then inf else 2, path.len))",
		"minimize(if A .* then (if path.util < .5 then (if B .* then 1 else path.len) else inf) else (2, path.lat * path.lat - 1))",
		"minimize(if not (path.util >= .5 or A B) and path.len != 2 then path.lat + path.lat * 3 else (path.len - path.util, 7))",
		"minimize((if path.util == 0 then inf else 1) + path.len)",
	) {
		p, err := Parse(src)
		if err != nil {
			continue // a corpus input the parser rejects
		}
		parsed++
		checkProgram(t, p, rng)
	}
	if parsed < 20 {
		t.Fatalf("only %d policy sources found and parsed; the walk over examples/ and bench/ is broken", parsed)
	}

	// Shapes resolve rejects but Eval gives a meaning to: a tuple (or a
	// conditional yielding one) where a scalar is read.
	util, ln, lat := &Attr{M: Util}, &Attr{M: Len}, &Attr{M: Lat}
	pair := &Tuple{Elems: []Expr{ln, util}}
	withInf := &Tuple{Elems: []Expr{lat, &Inf{}}}
	for _, body := range []Expr{
		&Bin{Op: Add, L: pair, R: &Const{X: 1}},
		&Bin{Op: Mul, L: util, R: withInf},
		&If{Cond: &Cmp{Op: LT, L: pair, R: &Tuple{Elems: []Expr{lat, ln}}}, Then: pair, Else: &Const{X: 9}},
		&If{Cond: &Cmp{Op: GE, L: withInf, R: util}, Then: ln, Else: &Inf{}},
		&Tuple{Elems: []Expr{&Bin{Op: Sub, L: &If{Cond: &Cmp{Op: EQ, L: util, R: util}, Then: pair, Else: withInf}, R: lat}, pair}},
	} {
		checkProgram(t, &Policy{Body: body, Attrs: []Metric{Util, Lat, Len}}, rng)
	}
}

// TestProgramProjection pins which orders BetterRank may compare slot
// by slot: attributes and tuples of them, nothing that computes.
func TestProgramProjection(t *testing.T) {
	for src, want := range map[string][]uint8{
		"minimize(path.util)":                                   {0},
		"minimize((path.len, path.util))":                       {1, 0},
		"minimize((path.len, (path.lat, path.len)))":            {1, 0, 1},
		"minimize(path.len + 0)":                                nil,
		"minimize((path.len, 1))":                               nil,
		"minimize(if path.len < 2 then path.len else path.len)": nil,
	} {
		p := MustParse(src)
		slots, ok := Lower(p.Body, p.Attrs).Projection()
		if ok != (want != nil) || string(slots) != string(want) {
			t.Errorf("%s: Projection() = %v, %v; want %v", src, slots, ok, want)
		}
	}
}

// TestProgramRunAllocatesNothing pins the property the probe path
// depends on, for a conditional tuple policy and for one nested deeper
// than any shipped policy.
func TestProgramRunAllocatesNothing(t *testing.T) {
	for _, p := range []*Policy{
		CongestionAware(),
		MustParse("minimize(if A .* and path.util < .9 then (path.len * 2 + path.lat * (1 + path.util), path.util) else inf)"),
	} {
		prog := Lower(p.Body, p.Attrs)
		mv := []float64{0.4, 0.001, 3}[:len(p.Attrs)]
		accept := []bool{true}
		buf := make([]float64, 0, prog.Width())
		if allocs := testing.AllocsPerRun(100, func() { prog.Run(mv, accept, buf) }); allocs != 0 {
			t.Errorf("%s: a run allocates %.1f times, want 0", p, allocs)
		}
	}
}
