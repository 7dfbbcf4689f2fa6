package campaign

import (
	"path/filepath"
	"testing"

	"contra/internal/cliutil"
	"contra/internal/scenario"
	"contra/internal/topo"
)

// TestCompletedFlowsRespectPhysics re-runs every cell of the five
// golden campaigns with flow tracing (which never changes a run) and
// holds each completed flow to a floor no routing can beat: its payload
// serialised at its source host's link rate, plus the least propagation
// delay between its endpoints. Headers, queueing and store-and-forward
// only add to that, so a flow under the floor is a simulator bug.
func TestCompletedFlowsRespectPhysics(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the five golden campaigns")
	}
	for _, name := range []string{"fattree_smoke", "chaos_smoke", "packed_smoke", "cohorts_smoke", "fabric_smoke"} {
		t.Run(name, func(t *testing.T) {
			spec, err := LoadFile(filepath.Join("../../examples/campaign", name+".json"))
			if err != nil {
				t.Fatal(err)
			}
			spec.TraceLevel = "flows"
			report, err := Run(spec, Options{Workers: 2})
			if err != nil {
				t.Fatal(err)
			}
			graphs := map[string]*topo.Graph{}
			checked := 0
			for _, o := range report.Outcomes {
				if o.Err != "" {
					t.Fatalf("%s: %s", o.Scenario.Name, o.Err)
				}
				g := graphs[o.Scenario.TopoSpec]
				if g == nil {
					if g, err = cliutil.BuildTopology(o.Scenario.TopoSpec); err != nil {
						t.Fatal(err)
					}
					graphs[o.Scenario.TopoSpec] = g
				}
				latency := map[topo.NodeID][]int64{}
				for _, f := range o.Result.Trace.Flows() {
					if f.FctNs <= 0 {
						continue
					}
					src, _ := g.NodeByName(f.Src)
					dst, _ := g.NodeByName(f.Dst)
					// LatencyFrom spans switches; each host hangs off one
					// edge switch by its one access link.
					in, out := g.Link(g.Ports(src)[0].Link), g.Link(g.Ports(dst)[0].Link)
					edge := g.HostEdge(src)
					if latency[edge] == nil {
						latency[edge] = g.LatencyFrom(edge)
					}
					floor := int64(float64(f.Size)*8/in.Bandwidth*1e9) +
						in.Delay + latency[edge][g.HostEdge(dst)] + out.Delay
					if f.FctNs < floor {
						t.Errorf("%s: flow %d (%s -> %s, %d B) completed in %d ns, under the %d ns floor",
							o.Scenario.Name, f.ID, f.Src, f.Dst, f.Size, f.FctNs, floor)
					}
					checked++
				}
			}
			// chaos_smoke's constant-bit-rate flows never complete.
			if checked == 0 && spec.Workload.Kind != scenario.WorkloadCBR {
				t.Fatal("no completed flow to check")
			}
		})
	}
}
