package scenario

import (
	"testing"

	"contra/internal/sim"
)

// TestCellEndsAtItsLastCompletion: an FCT cell whose flows all complete
// ends at the event that completes the last of them, under every
// scheme, and audits clean there although packets are still in flight
// (at least the last flow's final ACK); a cell with flows still open at
// its deadline ends at the first 10 ms step after warm-up at or past
// it.
func TestCellEndsAtItsLastCompletion(t *testing.T) {
	audited := 0
	defer func(audit func(*sim.Network) error) { auditNetwork = audit }(auditNetwork)
	auditNetwork = func(n *sim.Network) error {
		audited++
		return n.Audit()
	}

	for _, scheme := range []Scheme{SchemeECMP, SchemeHula, SchemeContra} {
		s := fct("fattree:4:2", scheme, "websearch", 0.4, 10_000_000, 40, 5)
		s.TraceLevel = "flows"
		audited = 0
		res, err := Run(s)
		if err != nil {
			t.Fatalf("%s: %v", scheme, err)
		}
		if audited != 1 {
			t.Fatalf("%s: audited %d times", scheme, audited)
		}
		if res.Completed != int64(res.Flows) {
			t.Fatalf("%s: %d of %d flows completed", scheme, res.Completed, res.Flows)
		}
		var last int64
		for _, f := range res.Trace.Flows() {
			last = max(last, f.StartNs+f.FctNs)
		}
		if res.SimulatedNs != last {
			t.Errorf("%s: the cell ended at %d ns, its last flow completed at %d", scheme, res.SimulatedNs, last)
		}
	}

	s := fct("fattree:4:1", SchemeECMP, "websearch", 0.8, 4_000_000, 300, 6)
	s.Workload.DrainNs = 1_000
	res, err := Run(s)
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed >= int64(res.Flows) {
		t.Fatalf("all %d flows completed within a 1 µs drain", res.Flows)
	}
	s.fill()
	// The deadline is 4.001 ms after warm-up: the first step.
	if want := 12*s.ProbePeriodNs + 10_000_000; res.SimulatedNs != want {
		t.Errorf("with %d of %d flows open the cell ended at %d ns, want %d", res.Flows-int(res.Completed), res.Flows, res.SimulatedNs, want)
	}
}

// TestDisruptionAfterTheEndHasNoRecovery: a link failure scheduled past
// an FCT cell's end never ran, so it opens no recovery window, and a
// cell whose only disruption is such a failure reports no recovery.
// One inside the run keeps its window. The late failure lands within
// 10 ms of the cell's last traffic, so its window would have a
// throughput baseline and no bin after it.
func TestDisruptionAfterTheEndHasNoRecovery(t *testing.T) {
	late := Event{Kind: LinkDown, AtNs: 23_500_000, Link: "auto"}
	for _, tc := range []struct {
		name   string
		events []Event
		want   []int64 // the windows' disruption instants
	}{
		{"past the end only", []Event{late}, nil},
		{"one in the run, one past the end", []Event{{Kind: LinkDown, AtNs: 4_000_000, Link: "auto"}, late}, []int64{4_000_000}},
	} {
		s := fct("fattree:4:2", SchemeContra, "websearch", 0.3, 3_000_000, 30, 1)
		s.BinNs = 500_000
		s.Events = tc.events
		res, err := Run(s)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if res.SimulatedNs >= late.AtNs {
			t.Fatalf("%s: the cell ran to %d ns, past the late failure", tc.name, res.SimulatedNs)
		}
		var got []int64
		for _, w := range res.Recoveries {
			got = append(got, w.AtNs)
		}
		if len(got) != len(tc.want) || (len(got) > 0 && got[0] != tc.want[0]) {
			t.Errorf("%s: windows at %v, want %v", tc.name, got, tc.want)
		}
		if tc.want == nil && (res.RecoveryNs != 0 || res.FailAtNs != 0 || res.BaselineBps != 0 || res.MinBps != 0) {
			t.Errorf("%s: recovery %d ns of a failure at %d ns (baseline %g, min %g), want none",
				tc.name, res.RecoveryNs, res.FailAtNs, res.BaselineBps, res.MinBps)
		}
		if tc.want != nil && res.FailAtNs != tc.want[0] {
			t.Errorf("%s: the top-level fields describe a failure at %d ns, want %d", tc.name, res.FailAtNs, tc.want[0])
		}
	}
}

// TestDisruptionInTheLastBinIsUnmeasured: a link failure inside an FCT
// cell's last bin ran, so it keeps its window, but no bin follows it to
// measure a recovery: the window reads -1 (unmeasured), as one without
// a baseline does, not one bin's recovery, and reports no dip rather
// than its baseline as its minimum.
func TestDisruptionInTheLastBinIsUnmeasured(t *testing.T) {
	s := fct("fattree:4:2", SchemeContra, "websearch", 0.3, 3_000_000, 30, 1)
	s.BinNs = 500_000
	res, err := Run(s)
	if err != nil {
		t.Fatal(err)
	}
	at := res.SimulatedNs - s.BinNs/2
	s.Events = []Event{{Kind: LinkDown, AtNs: at, Link: "auto"}}
	res, err = Run(s)
	if err != nil {
		t.Fatal(err)
	}
	if at >= res.SimulatedNs || at < res.SimulatedNs-s.BinNs {
		t.Fatalf("the failure at %d ns is not in the last bin of a cell ending at %d ns", at, res.SimulatedNs)
	}
	if len(res.Recoveries) != 1 || res.Recoveries[0].AtNs != at {
		t.Fatalf("windows %+v, want one at %d ns", res.Recoveries, at)
	}
	if res.BaselineBps <= 0 {
		t.Fatalf("no baseline before the failure at %d ns", at)
	}
	if res.RecoveryNs != -1 {
		t.Errorf("a failure at %d ns in a cell ending at %d ns reads recovery_ns %d, want -1", at, res.SimulatedNs, res.RecoveryNs)
	}
	if res.MinBps != 0 || res.Recoveries[0].MinBps != 0 {
		t.Errorf("an unmeasured window reads min_bps %g (window %g), want 0", res.MinBps, res.Recoveries[0].MinBps)
	}
}
