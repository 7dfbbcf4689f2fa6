package scenario

import (
	"fmt"
	"testing"

	"contra/internal/baseline"
	"contra/internal/core"
	"contra/internal/dataplane"
	"contra/internal/policy"
	"contra/internal/sim"
	"contra/internal/topo"
)

// BenchmarkDeploy measures the fixed router state a cell pays before
// its first packet: deploying a scheme on every switch of a fresh
// fat-tree and starting the network, which attaches every router. The
// topology, the compile and the network's own channel tables are built
// with the timer stopped, so B/op and allocs/op are the routers' alone
// (plus, for ECMP, the one BFS per destination its deploy runs on a
// fresh graph). Contra runs minimize(path.util) and Contra and HULA
// pack and suppress probes, as the k = 8 benchmark cells do.
func BenchmarkDeploy(b *testing.B) {
	opts := core.Options{ProbePacking: true, SuppressEps: 0.02, RefreshEvery: 4}
	for _, k := range []int{8, 16} {
		for _, scheme := range []string{"contra", "hula", "ecmp"} {
			b.Run(fmt.Sprintf("%s/fattree:%d:2", scheme, k), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					g := topo.Fattree(k, 2)
					var comp *core.Compiled
					if scheme == "contra" {
						var err error
						if comp, err = core.Compile(g, policy.MustParse("minimize(path.util)"), opts); err != nil {
							b.Fatal(err)
						}
					}
					n := sim.NewNetwork(sim.NewEngine(), g, sim.Config{})
					b.StartTimer()
					switch scheme {
					case "contra":
						dataplane.DeployFleet(n, comp)
					case "hula":
						baseline.DeployHula(n, opts)
					case "ecmp":
						baseline.DeployECMP(n)
					}
					n.Start()
				}
			})
		}
	}
}
