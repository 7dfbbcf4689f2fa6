package analysis

import (
	"math"
	"math/rand"
	"testing"

	"contra/internal/policy"
)

// TestEvaluatorMatchesResult checks the Evaluator's rank programs
// against the reference Result methods for every pid and a spread of
// metric vectors, including the regex-accept recombination path.
func TestEvaluatorMatchesResult(t *testing.T) {
	srcs := []string{
		"minimize(path.util)",
		"minimize((path.len, path.util))",
		"minimize(if path.util > 0.5 then (1, path.util) else (0, path.len))",
	}
	vectors := [][MaxMV]float64{
		{},
		{0.3, 2, 0.001},
		{0.9, 7, 0.05},
	}
	for _, src := range srcs {
		pol, err := policy.Parse(src, policy.ParseOptions{})
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		res, err := Analyze(pol)
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		ev := res.NewEvaluator()
		for _, mv := range vectors {
			for pid := 0; pid < res.NumPids(); pid++ {
				want := res.EvalRank(pid, mv[:len(res.MV)])
				got := ev.EvalRank(pid, mv[:len(res.MV)])
				if !got.Equal(want) {
					t.Errorf("%s pid %d mv %v: Evaluator rank %v, Result rank %v", src, pid, mv, got, want)
				}
			}
			accept := []bool{true}
			want := res.EvalPolicy(mv[:len(res.MV)], func(id int) bool { return accept[id] })
			got := ev.EvalPolicy(mv[:len(res.MV)], accept)
			if !got.Equal(want) {
				t.Errorf("%s mv %v: Evaluator policy %v, Result policy %v", src, mv, got, want)
			}
		}
	}
}

// TestBetterRankMatchesRankCompare holds BetterRank — slot by slot on a
// projection, two program runs otherwise — to the definition it
// replaces, Eval(a).Better(Eval(b)), for every pid of every catalog
// policy and a non-projection order, over vectors that include NaN,
// both zeros and infinities.
func TestBetterRankMatchesRankCompare(t *testing.T) {
	srcs := []string{
		"minimize((path.len * 2 + path.util, path.lat))",
		"minimize(if path.util < .5 then (path.len, path.lat) else (path.lat, path.len))",
	}
	for _, p := range policy.Catalog([]string{"A", "B", "C", "D"}) {
		srcs = append(srcs, p.Src)
	}
	awkward := []float64{0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1), 1}
	rng := rand.New(rand.NewSource(1))
	draw := func(n int) (mv [MaxMV]float64) {
		for i := 0; i < n; i++ {
			mv[i] = float64(rng.Intn(4)) / 2
			if rng.Intn(4) == 0 {
				mv[i] = awkward[rng.Intn(len(awkward))]
			}
		}
		return mv
	}
	projections := 0
	for _, src := range srcs {
		res := analyze(t, src)
		ev := res.NewEvaluator()
		for pid := 0; pid < res.NumPids(); pid++ {
			if _, ok := res.rankProgs[pid].Projection(); ok {
				projections++
			}
			for round := 0; round < 200; round++ {
				a, b := draw(len(res.MV)), draw(len(res.MV))
				want := res.EvalRank(pid, a[:len(res.MV)]).Better(res.EvalRank(pid, b[:len(res.MV)]))
				if got := ev.BetterRank(pid, a[:len(res.MV)], b[:len(res.MV)]); got != want {
					t.Fatalf("%s pid %d: BetterRank(%v, %v) = %v, rank compare says %v", src, pid, a, b, got, want)
				}
			}
		}
	}
	if projections == 0 || projections == len(srcs) {
		t.Fatalf("%d projection orders: both BetterRank paths must be exercised", projections)
	}
}

// TestEvaluatorNoAlloc pins the property the probe fan-out relies on:
// steady-state rank evaluation does not touch the heap.
func TestEvaluatorNoAlloc(t *testing.T) {
	// A conditional policy whose one propagation order computes, so
	// BetterRank takes the two-run path.
	res := analyze(t, "minimize(if A .* then (path.len * 2 + path.util, path.lat) else inf)")
	ev := res.NewEvaluator()
	a, b := [MaxMV]float64{0.4, 0.001, 3}, [MaxMV]float64{0.5, 0.002, 2}
	accept := []bool{true}
	allocs := testing.AllocsPerRun(100, func() {
		ev.EvalRank(0, a[:len(res.MV)])
		ev.BetterRank(0, a[:len(res.MV)], b[:len(res.MV)])
		ev.EvalPolicy(b[:len(res.MV)], accept)
	})
	if allocs != 0 {
		t.Fatalf("rank evaluation allocates %.1f times per round, want 0", allocs)
	}
}

// TestEvaluatorInterleavesPolicyAndRank pins the shared-scratch
// contract: an EvalPolicy with accept bits followed by an EvalRank
// (which must see no match bits at all) and then another EvalPolicy with
// the opposite bits must each equal the reference Result methods, in
// any order.
func TestEvaluatorInterleavesPolicyAndRank(t *testing.T) {
	res := analyze(t, "minimize(if A .* then (path.util, path.lat) else (1000, path.lat))")
	ev := res.NewEvaluator()
	vectors := [][MaxMV]float64{{0.25, 0.007}, {0.9, 0.05}, {}}
	for round := 0; round < 3; round++ {
		for _, mv := range vectors {
			for _, bit := range []bool{true, false} {
				accept := []bool{bit}
				want := res.EvalPolicy(mv[:len(res.MV)], func(id int) bool { return accept[id] })
				if got := ev.EvalPolicy(mv[:len(res.MV)], accept); !got.Equal(want) {
					t.Fatalf("mv %v accept %v: Evaluator policy %v, Result policy %v", mv, bit, got, want)
				}
				for pid := 0; pid < res.NumPids(); pid++ {
					want := res.EvalRank(pid, mv[:len(res.MV)])
					if got := ev.EvalRank(pid, mv[:len(res.MV)]); !got.Equal(want) {
						t.Fatalf("mv %v pid %d after accept %v: Evaluator rank %v, Result rank %v", mv, pid, bit, got, want)
					}
				}
			}
		}
	}
	// A nil accept slice means "no regex matches", as it always did.
	mv := vectors[0]
	want := res.EvalPolicy(mv[:len(res.MV)], func(int) bool { return false })
	ev.EvalPolicy(mv[:len(res.MV)], []bool{true})
	if got := ev.EvalPolicy(mv[:len(res.MV)], nil); !got.Equal(want) {
		t.Fatalf("nil accept: Evaluator policy %v, want %v", got, want)
	}
}

// TestEvaluatorsShareNoScratch: the evaluators of one NewEvaluators
// slab are independent. A rank one of them returned (it aliases that
// evaluator's scratch) survives every other evaluator's runs.
func TestEvaluatorsShareNoScratch(t *testing.T) {
	res := analyze(t, "minimize(if A .* then (path.len * 2 + path.util, path.lat) else inf)")
	evs := res.NewEvaluators(3)
	a, b := [MaxMV]float64{0.4, 0.001, 3}, [MaxMV]float64{0.5, 0.002, 2}
	want := res.EvalRank(0, a[:len(res.MV)])
	got := evs[1].EvalRank(0, a[:len(res.MV)])
	for _, ev := range []*Evaluator{&evs[0], &evs[2]} {
		ev.EvalRank(0, b[:len(res.MV)])
		ev.BetterRank(0, b[:len(res.MV)], a[:len(res.MV)])
		ev.EvalPolicy(b[:len(res.MV)], []bool{true})
	}
	if !got.Equal(want) {
		t.Fatalf("evaluator 1's rank became %v after the others ran, want %v", got, want)
	}
}
