// Quickstart: compile a performance-aware policy for a small WAN,
// let the protocol converge, and inspect the routes it picked.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"strings"

	"contra"
)

func main() {
	// The Internet2 Abilene backbone: 11 switches, 14 links, with
	// realistic propagation delays.
	g := contra.Abilene()

	// Rank paths by latency. Any policy from the paper's catalog (or
	// your own) drops in here: try
	//   minimize(path.util)
	//   minimize(if .* KC .* then path.lat else inf)
	prog, err := contra.CompileSource("minimize(path.lat)", g)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("== analysis ==")
	fmt.Print(prog.AnalysisReport())
	fmt.Println("== compilation ==")
	fmt.Print(prog.Describe())

	// Run the compiled per-switch programs on the packet-level
	// simulator and let a few probe rounds converge the routes.
	sim := contra.NewSimulation(prog)
	sim.WarmUp()

	fmt.Println("== converged routes ==")
	for _, pair := range [][2]string{
		{"SEA", "NYC"}, {"LA", "WDC"}, {"HOU", "CHI"},
	} {
		path, rank, err := sim.BestPath(pair[0], pair[1])
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-3s -> %-3s via %-32s rank=%s\n",
			pair[0], pair[1], strings.Join(path, "-"), rank)
	}

	// The compiler also emits the per-device P4 program a hardware
	// deployment would install.
	p4, err := prog.P4("SEA")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("== first lines of SEA's P4 program ==")
	lines := strings.SplitN(p4, "\n", 8)
	fmt.Println(strings.Join(lines[:7], "\n"))
}
