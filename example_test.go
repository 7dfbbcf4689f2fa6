package contra_test

import (
	"fmt"
	"strings"

	"contra"
)

// ExampleCompileSource shows the minimal compile-and-inspect flow.
func ExampleCompileSource() {
	g := contra.Abilene()
	prog, err := contra.CompileSource("minimize(path.lat)", g)
	if err != nil {
		panic(err)
	}
	fmt.Println("probe classes:", prog.ProbeClasses())
	fmt.Println("tag bits:", prog.TagBits())
	// Output:
	// probe classes: 1
	// tag bits: 0
}

// ExampleSimulation_BestPath runs the compiled protocol on the
// simulator and reads back a converged route.
func ExampleSimulation_BestPath() {
	g := contra.Abilene()
	prog, err := contra.CompileSource("minimize(path.lat)", g)
	if err != nil {
		panic(err)
	}
	sim := contra.NewSimulation(prog, 1)
	sim.WarmUp()
	path, _, err := sim.BestPath("SEA", "NYC")
	if err != nil {
		panic(err)
	}
	fmt.Println(strings.Join(path, "-"))
	// Output:
	// SEA-DEN-KC-IND-CHI-NYC
}

// ExampleWaypoint shows a Figure 3 catalog policy and the analysis the
// compiler applies to it.
func ExampleWaypoint() {
	pol := contra.Waypoint("F1", "F2")
	fmt.Println(pol.String())
	// Output:
	// minimize((if .* (F1 + F2) .* then path.util else inf))
}

// ExampleParsePolicy validates policy source against a topology's
// switch names.
func ExampleParsePolicy() {
	g := contra.Abilene()
	_, err := contra.ParsePolicy("minimize(if Z .* then 0 else 1)", g.SortedNames()...)
	fmt.Println(err != nil)
	// Output:
	// true
}

// ExampleCompileSource_catalog compiles policies from the paper's
// catalog for the Abilene backbone and reads the routes they converge
// to: one compiler for waypointing, forbidden and weighted links, and
// per-source objectives.
func ExampleCompileSource_catalog() {
	for _, src := range []string{
		"minimize(path.lat)",
		"minimize(if .* KC .* then path.lat else inf)",               // P5: waypoint KC
		"minimize(if .* DEN KC .* then inf else path.lat)",           // never DEN->KC
		"minimize((if .* CHI NYC .* then 100000 else 0) + path.lat)", // P7: CHI->NYC costly
		"minimize(if SEA .* then path.util else path.lat)",           // P8: SEA on utilization
	} {
		prog, err := contra.CompileSource(src, contra.Abilene())
		if err != nil {
			panic(err)
		}
		sim := contra.NewSimulation(prog, 1)
		sim.WarmUp()
		fmt.Printf("%s: %d probe class(es), %d tag bit(s)\n", src, prog.ProbeClasses(), prog.TagBits())
		for _, pair := range [][2]string{{"SEA", "NYC"}, {"LA", "NYC"}, {"SNV", "WDC"}} {
			path, _, err := sim.BestPath(pair[0], pair[1])
			if err != nil {
				panic(err)
			}
			fmt.Println("  " + strings.Join(path, "-"))
		}
	}
	// Output:
	// minimize(path.lat): 1 probe class(es), 0 tag bit(s)
	//   SEA-DEN-KC-IND-CHI-NYC
	//   LA-HOU-ATL-WDC-NYC
	//   SNV-DEN-KC-IND-ATL-WDC
	// minimize(if .* KC .* then path.lat else inf): 1 probe class(es), 1 tag bit(s)
	//   SEA-DEN-KC-IND-CHI-NYC
	//   LA-SNV-DEN-KC-IND-CHI-NYC
	//   SNV-DEN-KC-IND-ATL-WDC
	// minimize(if .* DEN KC .* then inf else path.lat): 1 probe class(es), 0 tag bit(s)
	//   SEA-SNV-LA-HOU-ATL-WDC-NYC
	//   LA-HOU-ATL-WDC-NYC
	//   SNV-LA-HOU-ATL-WDC
	// minimize((if .* CHI NYC .* then 100000 else 0) + path.lat): 1 probe class(es), 1 tag bit(s)
	//   SEA-DEN-KC-IND-ATL-WDC-NYC
	//   LA-HOU-ATL-WDC-NYC
	//   SNV-DEN-KC-IND-ATL-WDC
	// minimize(if SEA .* then path.util else path.lat): 2 probe class(es), 0 tag bit(s)
	//   SEA-DEN-KC-HOU-ATL-IND-CHI-NYC
	//   LA-HOU-ATL-WDC-NYC
	//   SNV-DEN-KC-IND-ATL-WDC
}

// ExampleFailover compiles a Propane-style preference on Abilene: the
// northern route from SEA to NYC, else the southern one. When KC-IND
// fails, the data plane detects it within a few probe periods and
// reroutes onto the backup.
func ExampleFailover() {
	north := []string{"SEA", "DEN", "KC", "IND", "CHI", "NYC"}
	south := []string{"SEA", "SNV", "LA", "HOU", "ATL", "WDC", "NYC"}
	prog, err := contra.Compile(contra.Failover(north, south), contra.Abilene())
	if err != nil {
		panic(err)
	}
	sim := contra.NewSimulation(prog, 1)
	sim.WarmUp()
	show := func(when string) {
		path, rank, err := sim.BestPath("SEA", "NYC")
		if err != nil {
			panic(err)
		}
		fmt.Printf("%s: %s, rank %v\n", when, strings.Join(path, "-"), rank)
	}
	show("primary")
	if err := sim.FailLink("KC", "IND", 0); err != nil {
		panic(err)
	}
	sim.RunFor(8 * prog.ProbePeriod())
	show("after KC-IND fails")
	// Output:
	// primary: SEA-DEN-KC-IND-CHI-NYC, rank 0
	// after KC-IND fails: SEA-SNV-LA-HOU-ATL-WDC-NYC, rank 1
}

// ExampleCongestionAware runs the paper's P9 policy: paths under 80 %
// utilization rank by utilization, hotter ones behind them by hop count.
// P9 is not isotonic, so the compiler splits it into one probe class per
// branch. A flow that saturates X-S, the only way out of X, puts every
// path from X past the threshold, and X falls back to the shortest one;
// S still has an idle detour around the saturated S-D and stays on the
// utilization branch.
func ExampleCongestionAware() {
	g := contra.NewTopology("bottleneck")
	for _, n := range []string{"X", "S", "A", "D"} {
		g.AddNode(n, contra.Switch)
	}
	for _, l := range [][2]string{{"X", "S"}, {"S", "D"}, {"S", "A"}, {"A", "D"}} {
		g.AddLink(g.MustNode(l[0]), g.MustNode(l[1]), 10e9, 1000)
	}
	for _, n := range []string{"X", "D"} {
		g.AddLink(g.MustNode(n), g.AddNode("H"+n, contra.Host), 10e9, 1000)
	}
	prog, err := contra.Compile(contra.CongestionAware(), g)
	if err != nil {
		panic(err)
	}
	fmt.Println("probe classes:", prog.ProbeClasses())
	sim := contra.NewSimulation(prog, 1)
	sim.WarmUp()
	show := func(when string) {
		for _, src := range []string{"X", "S"} {
			path, rank, err := sim.BestPath(src, "D")
			if err != nil {
				panic(err)
			}
			// P9's rank is (branch, hops or 0, utilization).
			fmt.Printf("%s: %s->D via %s, branch %g, util %.2f\n",
				when, src, strings.Join(path, "-"), rank.V[0], rank.V[2])
		}
	}
	show("idle")
	hx, _ := sim.HostNamed("HX")
	hd, _ := sim.HostNamed("HD")
	sim.AddFlows(contra.Flow{ID: 1, Src: hx, Dst: hd, RateBps: 9e9})
	sim.RunFor(30 * prog.ProbePeriod())
	show("loaded")
	// Output:
	// probe classes: 2
	// idle: X->D via X-S-D, branch 1, util 0.00
	// idle: S->D via S-D, branch 1, util 0.00
	// loaded: X->D via X-S-D, branch 2, util 0.91
	// loaded: S->D via S-A-D, branch 1, util 0.00
}
