// Compile: the paper's Figures 9 and 10 — compile time and per-switch
// state for the MU / WP / CA policies of §6.2 on fat-trees of 20 to
// 500 switches and random graphs of 100 to 500.
//
//	go run ./examples/paper/compile
package main

import (
	"fmt"
	"log"

	"contra"
)

func main() {
	var fattrees, randoms []*contra.Topology
	for _, k := range []int{4, 10, 14, 18, 20} {
		fattrees = append(fattrees, contra.Fattree(k, 0))
	}
	for _, n := range []int{100, 200, 300, 400, 500} {
		randoms = append(randoms, contra.RandomTopology(n, 4, 42))
	}
	fmt.Println("Figures 9 and 10: compile time and switch state")
	for _, set := range []struct {
		label string
		topos []*contra.Topology
	}{{"(a) fat-trees", fattrees}, {"(b) random", randoms}} {
		rows, err := contra.CompileSweep(set.topos, contra.StandardPolicies())
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%s\n%-16s %-8s %-6s %10s %8s %8s %8s %7s %4s\n", set.label,
			"topology", "switches", "policy", "compile", "pg-nodes", "max-kB", "mean-kB", "tagbits", "pids")
		for _, r := range rows {
			fmt.Printf("%-16s %-8d %-6s %10v %8d %8.1f %8.1f %7d %4d\n",
				r.Topology, r.Switches, r.Policy, r.CompileTime.Round(10_000), r.PGNodes,
				r.MaxStateKB, r.MeanStateKB, r.TagBits, r.Pids)
		}
	}
}
