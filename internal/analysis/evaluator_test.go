package analysis

import (
	"testing"

	"contra/internal/policy"
)

// TestEvaluatorMatchesResult checks the scratch-buffer Evaluator
// against the allocating Result methods for every pid and a spread of
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
				got := ev.EvalRank(pid, mv)
				if !got.Equal(want) {
					t.Errorf("%s pid %d mv %v: Evaluator rank %v, Result rank %v", src, pid, mv, got, want)
				}
			}
			accept := []bool{true}
			want := res.EvalPolicy(mv[:len(res.MV)], func(id int) bool { return accept[id] })
			got := ev.EvalPolicy(mv, accept)
			if !got.Equal(want) {
				t.Errorf("%s mv %v: Evaluator policy %v, Result policy %v", src, mv, got, want)
			}
		}
	}
}

// TestEvaluatorNoAlloc pins the property the probe fan-out relies on:
// steady-state rank evaluation does not touch the heap.
func TestEvaluatorNoAlloc(t *testing.T) {
	pol, err := policy.Parse("minimize((path.len, path.util))", policy.ParseOptions{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Analyze(pol)
	if err != nil {
		t.Fatal(err)
	}
	ev := res.NewEvaluator()
	mv := [MaxMV]float64{0.4, 3}
	ev.EvalRank(0, mv) // size the scratch buffer
	allocs := testing.AllocsPerRun(100, func() {
		ev.EvalRank(0, mv)
	})
	if allocs != 0 {
		t.Fatalf("Evaluator.EvalRank allocates %.1f per run, want 0", allocs)
	}
}

// TestEvaluatorInterleavesPolicyAndRank pins the one-environment
// contract: the evaluator's environment is built once and only the
// metric vector and the match bits change per call, so an EvalPolicy
// with accept bits followed by an EvalRank (which must see no match
// bits at all) and then another EvalPolicy with the opposite bits must
// each equal the allocating Result methods, in any order.
func TestEvaluatorInterleavesPolicyAndRank(t *testing.T) {
	res := analyze(t, "minimize(if A .* then (path.util, path.lat) else (1000, path.lat))")
	ev := res.NewEvaluator()
	vectors := [][MaxMV]float64{{0.25, 0.007}, {0.9, 0.05}, {}}
	for round := 0; round < 3; round++ {
		for _, mv := range vectors {
			for _, bit := range []bool{true, false} {
				accept := []bool{bit}
				want := res.EvalPolicy(mv[:len(res.MV)], func(id int) bool { return accept[id] })
				if got := ev.EvalPolicy(mv, accept); !got.Equal(want) {
					t.Fatalf("mv %v accept %v: Evaluator policy %v, Result policy %v", mv, bit, got, want)
				}
				for pid := 0; pid < res.NumPids(); pid++ {
					want := res.EvalRank(pid, mv[:len(res.MV)])
					if got := ev.EvalRank(pid, mv); !got.Equal(want) {
						t.Fatalf("mv %v pid %d after accept %v: Evaluator rank %v, Result rank %v", mv, pid, bit, got, want)
					}
					if !res.Subpolicies[pid].ConstOnly && ev.env.accept != nil {
						t.Fatalf("pid %d: EvalRank left the previous EvalPolicy's match bits in the environment", pid)
					}
				}
			}
		}
	}
	// A nil accept slice means "no regex matches", as it always did.
	mv := vectors[0]
	want := res.EvalPolicy(mv[:len(res.MV)], func(int) bool { return false })
	ev.EvalPolicy(mv, []bool{true})
	if got := ev.EvalPolicy(mv, nil); !got.Equal(want) {
		t.Fatalf("nil accept: Evaluator policy %v, want %v", got, want)
	}
}
