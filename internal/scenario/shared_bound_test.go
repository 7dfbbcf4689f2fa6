package scenario_test

import (
	"fmt"
	"testing"

	"contra/internal/campaign"
	"contra/internal/scenario"
)

// TestSharedMemoKeepsItsBound runs a Contra campaign over more distinct
// topologies than the memo keeps (random graphs have no hosts, so the
// topologies are fat-trees with 1 to SharedBound+2 hosts per edge
// switch). The process must then hold at most the bound's number of
// graphs and of programs.
func TestSharedMemoKeepsItsBound(t *testing.T) {
	scenario.ResetShared()
	var topos []string
	for h := 1; h <= scenario.SharedBound+2; h++ {
		topos = append(topos, fmt.Sprintf("fattree:4:%d", h))
	}
	spec := &campaign.Spec{
		Topos:    topos,
		Schemes:  []scenario.Scheme{scenario.SchemeContra},
		Loads:    []float64{0.2},
		Workload: scenario.Workload{Dist: "cache", DurationNs: 1_000_000, MaxFlows: 10},
	}
	report, err := campaign.Run(spec, campaign.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if report.Failed() > 0 {
		t.Fatalf("%d of %d cells failed", report.Failed(), len(report.Outcomes))
	}
	if graphs, programs := scenario.SharedSizes(); graphs > scenario.SharedBound || programs > scenario.SharedBound {
		t.Errorf("after %d topologies the memo holds %d graphs and %d programs, past its bound of %d",
			len(topos), graphs, programs, scenario.SharedBound)
	} else if graphs < scenario.SharedBound || programs < scenario.SharedBound {
		t.Errorf("after %d topologies the memo holds %d graphs and %d programs, want the bound of %d each",
			len(topos), graphs, programs, scenario.SharedBound)
	}
}
