package campaign

import (
	"bytes"
	"encoding/csv"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"contra/internal/scenario"
	"contra/internal/topo"
)

// The paper specs name their topology file relative to the repository
// root, where examples/paper/README.md runs its commands.
func inRepoRoot(t *testing.T) {
	t.Helper()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir("../.."); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := os.Chdir(wd); err != nil {
			t.Error(err)
		}
	})
}

// TestPaperSpecs loads every examples/paper spec the way contracamp
// does (strict parse, validation, expansion) and runs the first cell of
// each topology x script at a shrunken duration, which resolves the
// topology, the host pairs and the scripted links through Run itself.
func TestPaperSpecs(t *testing.T) {
	inRepoRoot(t)
	paths, err := filepath.Glob("examples/paper/*.json")
	if err != nil || len(paths) == 0 {
		t.Fatalf("no paper specs found: %v", err)
	}
	for _, path := range paths {
		t.Run(filepath.Base(path), func(t *testing.T) {
			spec, err := LoadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			jobs, err := spec.Jobs()
			if err != nil {
				t.Fatal(err)
			}
			if len(jobs) != spec.Size() || len(jobs) == 0 {
				t.Fatalf("expanded to %d cells, Size() = %d", len(jobs), spec.Size())
			}
			ran := map[[2]string]bool{}
			for _, j := range jobs {
				sc := j.Scenario
				k := [2]string{sc.TopoSpec, sc.Script}
				if ran[k] {
					continue
				}
				ran[k] = true
				if sc.Workload.Kind == scenario.WorkloadCBR {
					sc.Workload.EndNs = 5_000_000
				} else {
					sc.Workload.DurationNs, sc.Workload.MaxFlows = 1_000_000, 40
				}
				res, err := scenario.Run(sc)
				if err != nil {
					t.Fatalf("%s: %v", sc.Name, err)
				}
				if res.Flows == 0 {
					t.Fatalf("%s: no flows offered", sc.Name)
				}
			}
		})
	}

	// The committed Abilene file is the generator's graph, so Fig 15 and
	// appendix D run on the topology the paper's §6.4 setup describes.
	t.Run("abilene_x0.002.topo", func(t *testing.T) {
		var want bytes.Buffer
		if err := topo.Format(&want, topo.AbileneWithHostsScaled(0, 0.002)); err != nil {
			t.Fatal(err)
		}
		file, err := os.ReadFile("examples/paper/abilene_x0.002.topo")
		if err != nil {
			t.Fatal(err)
		}
		var got []string
		for _, line := range strings.SplitAfter(string(file), "\n") {
			if !strings.HasPrefix(line, "#") {
				got = append(got, line)
			}
		}
		if strings.Join(got, "") != want.String() {
			t.Fatal("examples/paper/abilene_x0.002.topo is not topo.Format(AbileneWithHostsScaled(0, 0.002))")
		}
	})
}

// runPaperSpec runs one committed spec in full and returns its report
// with the CSV rows contracamp -csv would write, keyed by column name.
func runPaperSpec(t *testing.T, name string) (*Report, []map[string]string) {
	t.Helper()
	spec, err := LoadFile(filepath.Join("examples/paper", name))
	if err != nil {
		t.Fatal(err)
	}
	report, err := Run(spec, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if n := report.Failed(); n > 0 {
		t.Fatalf("%s: %d cells failed", name, n)
	}
	var buf bytes.Buffer
	if err := report.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	recs, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	rows := make([]map[string]string, len(recs)-1)
	for i, rec := range recs[1:] {
		rows[i] = map[string]string{}
		for c, col := range recs[0] {
			rows[i][col] = rec[c]
		}
	}
	return report, rows
}

// TestPaperSpecsReproduceExperiments pins what the retired experiments
// command printed for `-quick -seed 1` at its last commit (5f7e7fb): the
// committed specs, run through Run, yield the same numbers to the
// printed digit. runPaperSpec fails on any failed cell, so every cell,
// under each scheme, also passes scenario.Run's horizon audit: no
// register miss, every packet conserved, the event queue and timer slots
// in step.
func TestPaperSpecsReproduceExperiments(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	inRepoRoot(t)

	// Figures 11 and 15: mean FCT (ms) by scheme at loads 0.2/0.5/0.8.
	for _, fig := range []struct {
		spec string
		want map[string][3]string
	}{
		{"fig11_websearch.json", map[string][3]string{
			"ecmp":   {"0.093", "0.886", "1.467"},
			"contra": {"0.094", "0.670", "1.218"},
			"hula":   {"0.093", "0.656", "1.158"},
		}},
		{"fig15_websearch.json", map[string][3]string{
			"sp":     {"0.187", "0.454", "0.728"},
			"contra": {"0.222", "0.505", "1.047"},
			"spain":  {"0.188", "0.500", "0.925"},
		}},
	} {
		_, rows := runPaperSpec(t, fig.spec)
		loadIdx := map[string]int{"0.2": 0, "0.5": 1, "0.8": 2}
		if len(rows) != 3*len(fig.want) {
			t.Fatalf("%s: %d rows, want %d", fig.spec, len(rows), 3*len(fig.want))
		}
		for _, r := range rows {
			if want := fig.want[r["scheme"]][loadIdx[r["load"]]]; r["mean_fct_ms"] != want {
				t.Errorf("%s %s load %s: mean FCT %s ms, want %s", fig.spec, r["scheme"], r["load"], r["mean_fct_ms"], want)
			}
		}
	}

	// Figure 14: the old route printed 4.27 / 2.14 / 1.00 for both schemes.
	_, rows := runPaperSpec(t, "fig14_failover.json")
	if len(rows) != 2 {
		t.Fatalf("fig14: %d rows, want contra and hula", len(rows))
	}
	for _, r := range rows {
		if r["baseline_gbps"] != "4.275" || r["min_gbps"] != "2.137" || r["recovery_ms"] != "1.000" {
			t.Errorf("fig14 %s: baseline %s dip %s recovery %s, want 4.275 / 2.137 / 1.000",
				r["scheme"], r["baseline_gbps"], r["min_gbps"], r["recovery_ms"])
		}
	}

	// Figure 16: fabric traffic (tags included) normalized to ECMP.
	report, _ := runPaperSpec(t, "fig16_websearch.json")
	type cell struct {
		scheme scenario.Scheme
		load   float64
	}
	traffic := map[cell]float64{}
	for _, o := range report.Outcomes {
		traffic[cell{o.Result.Scheme, o.Result.Load}] = o.Result.FabricBytes + o.Result.TagBytes
	}
	for c, want := range map[cell]string{
		{"hula", 0.1}: "1.0160", {"contra", 0.1}: "1.0290",
		{"hula", 0.6}: "0.9958", {"contra", 0.6}: "0.9986",
	} {
		if got := fmt.Sprintf("%.4f", traffic[c]/traffic[cell{"ecmp", c.load}]); got != want {
			t.Errorf("fig16 websearch %s at load %g: %s x ECMP, want %s", c.scheme, c.load, got, want)
		}
	}

	// §6.5: share of data packets that revisited a switch.
	report, _ = runPaperSpec(t, "loops.json")
	for _, o := range report.Outcomes {
		want := map[string]string{"dc": "0.0328%", "abilene+hosts": "0.0000%"}[o.Result.Topo]
		if got := fmt.Sprintf("%.4f%%", 100*o.Result.LoopedFrac); got != want {
			t.Errorf("loops %s: looped %s, want %s", o.Result.Topo, got, want)
		}
	}

	// Appendix D: probes + tags as a share of Contra's Abilene traffic.
	report, _ = runPaperSpec(t, "appendix_d.json")
	res := report.Outcomes[0].Result
	if got := fmt.Sprintf("%.4f%%", 100*(res.ProbeBytes+res.TagBytes)/(res.FabricBytes+res.TagBytes)); got != "1.8148%" {
		t.Errorf("appendix D: protocol overhead %s, want 1.8148%%", got)
	}
}
