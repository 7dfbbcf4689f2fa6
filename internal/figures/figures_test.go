package figures

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"contra/internal/agg"
	"contra/internal/campaign"
	"contra/internal/metrics"
	"contra/internal/scenario"
	"contra/internal/stats"
)

// sampledRecorder builds a recorder with two links and a few ticks.
func sampledRecorder() *metrics.Recorder {
	m := metrics.NewRecorder(1000)
	m.RegisterLink("a->b")
	m.RegisterLink("b->a")
	m.RegisterDropReasons([]string{"queue"})
	for i := 0; i < 3; i++ {
		m.BeginSample(int64(i) * 1000)
		m.Link(0.25*float64(i), 0, 0)
		m.Link(0.5*float64(i), 0, 0)
		m.Drops([]int64{0})
		m.EndSample()
	}
	return m
}

// emit renders a report the way contracamp's render step does.
func emit(dir string, r *campaign.Report) ([]string, error) {
	return Emit(dir, r, agg.FromOutcomes(r.Outcomes))
}

func figureReport() *campaign.Report {
	mk := func(name string, scheme scenario.Scheme, load, p99 float64) campaign.Outcome {
		return campaign.Outcome{
			Scenario: scenario.Scenario{Name: name},
			Result: &scenario.Result{
				Name: name, Scheme: scheme, Load: load, Completed: 1, P99FCT: p99,
			},
		}
	}
	a := mk("cell-a", scenario.SchemeContra, 0.2, 0.004)
	a.Result.Metrics = sampledRecorder()
	a.Result.Series = []stats.Point{{T: 0, V: 1e9}, {T: 500000, V: 0.4e9}, {T: 1000000, V: 0.9e9}}
	a.Scenario.Events = []scenario.Event{{Kind: scenario.SwitchDown, AtNs: 400000}}
	b := mk("cell-b", scenario.SchemeHula, 0.6, 0.009)
	return &campaign.Report{Outcomes: []campaign.Outcome{a, b}}
}

func TestEmitWritesAllThreeFigures(t *testing.T) {
	dir := t.TempDir()
	written, err := emit(dir, figureReport())
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"util_timeline.dat", "util_timeline.gp",
		"recovery_timeline.dat", "recovery_timeline.gp",
		"fct_vs_load.dat", "fct_vs_load.gp",
	}
	if strings.Join(written, " ") != strings.Join(want, " ") {
		t.Fatalf("written = %v, want %v", written, want)
	}
	util, err := os.ReadFile(filepath.Join(dir, "util_timeline.dat"))
	if err != nil {
		t.Fatal(err)
	}
	// Tick 2: links at 0.5 and 1.0 -> mean 0.75, max 1.0.
	if !strings.Contains(string(util), "0.002 0.7500 1.0000") {
		t.Errorf("util_timeline.dat missing mean/max row:\n%s", util)
	}
	rec, err := os.ReadFile(filepath.Join(dir, "recovery_timeline.gp"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(rec), "set arrow 1 from 0.400") {
		t.Errorf("recovery_timeline.gp missing event marker:\n%s", rec)
	}
	fct, err := os.ReadFile(filepath.Join(dir, "fct_vs_load.dat"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(fct), "# scheme: contra") || !strings.Contains(string(fct), "0.6 9.0000") {
		t.Errorf("fct_vs_load.dat content wrong:\n%s", fct)
	}
}

func TestEmitDeterministic(t *testing.T) {
	read := func(dir string) string {
		var b strings.Builder
		ents, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range ents {
			data, err := os.ReadFile(filepath.Join(dir, e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			b.WriteString(e.Name() + "\n" + string(data))
		}
		return b.String()
	}
	d1, d2 := t.TempDir(), t.TempDir()
	if _, err := emit(d1, figureReport()); err != nil {
		t.Fatal(err)
	}
	if _, err := emit(d2, figureReport()); err != nil {
		t.Fatal(err)
	}
	if read(d1) != read(d2) {
		t.Fatal("Emit output differs across identical reports")
	}
}

func TestEmitNoDataErrors(t *testing.T) {
	r := &campaign.Report{Outcomes: []campaign.Outcome{
		{Scenario: scenario.Scenario{Name: "bare"}, Result: &scenario.Result{Name: "bare"}},
	}}
	if _, err := emit(t.TempDir(), r); err == nil {
		t.Fatal("Emit succeeded on a report with no figure data")
	}
}
