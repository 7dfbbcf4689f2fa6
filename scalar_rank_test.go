package contra

import (
	"math"
	"path/filepath"
	"testing"

	"contra/internal/analysis"
	"contra/internal/campaign"
	"contra/internal/cliutil"
	"contra/internal/policy"
)

// TestScalarRankPolicies states which policies a packed Contra switch
// merges in its scalar loop (analysis.Result.ScalarRank): the §6.2
// policies, every examples/paper spec's and a few more shapes. Only
// MU-shaped policies take it: one metric, ranked as it stands. For
// every policy that takes it, the loop's fold must be defined for the
// metric, and the reference evaluator must rank every metric vector,
// under every pid and whatever the regexes match, as the metric itself;
// a policy sent to the loop whose rank the loop cannot reproduce fails.
func TestScalarRankPolicies(t *testing.T) {
	type row struct {
		name, src, topo string
		scalar          bool
	}
	ft := Fattree(4, 2)
	rows := []row{
		{"MU", StandardPolicies()["MU"](ft), "fattree:4:2", true},
		{"WP", StandardPolicies()["WP"](ft), "fattree:4:2", false},
		{"CA", StandardPolicies()["CA"](ft), "fattree:4:2", false},
		{"shortest path", "minimize(path.len)", "dc", true},
		{"least latency", "minimize(path.lat)", "dc", true},
		{"widest shortest", "minimize((path.util, path.len))", "dc", false},
		{"a sum of two metrics", "minimize(path.util + path.len)", "dc", false},
		{"a metric plus a constant", "minimize(path.len + 1)", "dc", false},
		{"a metric behind a regex", "minimize(if .* s0 .* then path.util else inf)", "dc", false},
	}
	paper := map[string]bool{
		"appendix_d.json": true, "appendix_e.json": false,
		"fig11_cache.json": false, "fig11_websearch.json": false,
		"fig12_cache.json": false, "fig12_websearch.json": false,
		"fig13_queues.json": false, "fig14_failover.json": false,
		"fig15_cache.json": true, "fig15_websearch.json": true,
		"fig16_cache.json": false, "fig16_websearch.json": false,
		"loops.json": true,
	}
	specs, err := filepath.Glob("examples/paper/*.json")
	if err != nil || len(specs) != len(paper) {
		t.Fatalf("examples/paper holds %d specs (%v), the table %d", len(specs), err, len(paper))
	}
	for _, path := range specs {
		spec, err := campaign.LoadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		want, ok := paper[filepath.Base(path)]
		if !ok {
			t.Fatalf("%s is not in the table", path)
		}
		src := spec.Policy
		if src == "" {
			src = "minimize(path.util)" // scenario's default
		}
		rows = append(rows, row{filepath.Base(path), src, spec.Topos[0], want})
	}

	for _, r := range rows {
		g, err := cliutil.BuildTopology(r.topo)
		if err != nil {
			t.Fatal(err)
		}
		pol, err := policy.Parse(r.src, policy.ParseOptions{Symbols: g.SortedNames()})
		if err != nil {
			t.Fatalf("%s: %v", r.name, err)
		}
		res, err := analysis.Analyze(pol)
		if err != nil {
			t.Fatalf("%s: %v", r.name, err)
		}
		m, scalar := res.ScalarRank()
		if scalar != r.scalar {
			t.Errorf("%s (%s): scalar loop %v, want %v", r.name, r.src, scalar, r.scalar)
		}
		if !scalar {
			continue
		}
		if m != policy.Util && m != policy.Lat && m != policy.Len {
			t.Errorf("%s: the scalar loop has no fold for metric %v", r.name, m)
		}
		for _, x := range []float64{0, 0.25, 1, 7, 1e9, math.Inf(1)} {
			mv := []float64{x}
			want := policy.Finite(x)
			for pid := 0; pid < res.NumPids(); pid++ {
				if got := res.EvalRank(pid, mv); !got.Equal(want) || got.Inf {
					t.Errorf("%s: pid %d ranks %v as %v, the scalar loop as %v", r.name, pid, mv, got, want)
				}
			}
			for _, match := range []bool{false, true} {
				got := res.EvalPolicy(mv, func(int) bool { return match })
				if !got.Equal(want) || got.Inf || len(got.V) != 1 {
					t.Errorf("%s: the policy ranks %v as %v (regexes matching: %v), the scalar loop as %v", r.name, mv, got, match, want)
				}
			}
		}
	}
}
