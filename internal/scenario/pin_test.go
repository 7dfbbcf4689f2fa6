package scenario

import (
	"encoding/json"
	"testing"
)

// pinnedScenario sets every spec-expressible Scenario field; it is also
// its own canonical encoding, byte for byte. Scenario keys, record
// streams, fabric grants and checkpoints are all derived from these
// bytes, so a change to the Scenario type that moves one of them orphans
// every artifact an earlier build wrote.
const pinnedScenario = `{"name":"pin","topo":"fattree:4:2","scheme":"hula","policy":"minimize(path.util)","seed":7,` +
	`"workload":{"kind":"fct","dist":"cache","load":0.4,"duration_ns":1,"drain_ns":2,"max_flows":3},` +
	`"events":[{"kind":"link_down","at_ns":5,"link":"auto"}],"script":"s",` +
	`"probe_period_ns":11,"flowlet_timeout_ns":12,"failure_detect_periods":13,` +
	`"probe_packing":true,"suppress_eps":0.02,"refresh_every":4,` +
	`"bin_ns":14,"sample_queues":true,"track_loops":true,"trace_level":"flows",` +
	`"metrics_interval_ns":15,"class_stats":true}`

func TestCanonicalEncodingAndKeyArePinned(t *testing.T) {
	s, err := Decode([]byte(pinnedScenario))
	if err != nil {
		t.Fatal(err)
	}
	got, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != pinnedScenario {
		t.Errorf("canonical encoding moved:\n got %s\nwant %s", got, pinnedScenario)
	}
	if got, want := s.Key(), "pin#38cf5db423f71f3c"; got != want {
		t.Errorf("Key() = %s, want %s", got, want)
	}
	s.SampleQueues = false
	if got, want := s.Key(), "pin#0a22c03a4b58652d"; got != want {
		t.Errorf("Key() without sample_queues = %s, want %s", got, want)
	}
}
