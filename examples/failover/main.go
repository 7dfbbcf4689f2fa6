// Failover: the paper's Figure 14 — steady UDP traffic, a fabric link
// dies mid-run, and Contra's data-plane failure detection reroutes
// within about a millisecond (k probe periods + flowlet expiry).
//
//	go run ./examples/failover
package main

import (
	"fmt"
	"log"
	"strings"

	"contra"
)

func main() {
	res, err := contra.RunScenario(contra.Scenario{
		TopoSpec: "dc",
		Scheme:   contra.SchemeContra,
		Policy:   "minimize((path.len, path.util))",
		Seed:     1,
		Workload: contra.ScenarioWorkload{
			Kind:    "cbr",
			RateBps: 4.25e9, // the paper's stable UDP rate
			EndNs:   80_000_000,
		},
		Events: []contra.ScenarioEvent{
			{Kind: contra.EventLinkDown, AtNs: 50_000_000, Link: "auto"},
		},
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("Aggregate receive throughput around a leaf-spine link failure")
	fmt.Printf("baseline %.2f Gbps; dip to %.2f Gbps; recovered %.2f ms after the failure\n\n",
		res.BaselineBps/1e9, res.MinBps/1e9, float64(res.RecoveryNs)/1e6)

	// Render an ASCII strip chart of the window around the failure.
	for _, p := range res.Series {
		if p.T < res.FailAtNs-5_000_000 || p.T > res.FailAtNs+10_000_000 {
			continue
		}
		bar := int(p.V / res.BaselineBps * 50)
		if bar < 0 {
			bar = 0
		}
		if bar > 60 {
			bar = 60
		}
		mark := ""
		if p.T >= res.FailAtNs && p.T < res.FailAtNs+res.BinNs {
			mark = "  <- link fails"
		}
		fmt.Printf("t=%6.1fms %6.2fGbps |%s%s\n",
			float64(p.T)/1e6, p.V/1e9, strings.Repeat("#", bar), mark)
	}
}
