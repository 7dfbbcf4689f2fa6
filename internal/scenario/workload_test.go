package scenario

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"contra/internal/cliutil"
)

// offeredFor materialises a scenario's workload the way Run does —
// validate, fill, validate, resolve the topology and the event script —
// but runs no simulation.
func offeredFor(s Scenario) (offered, error) {
	if err := s.Validate(); err != nil {
		return offered{}, err
	}
	s.fill()
	g, err := cliutil.BuildTopology(s.TopoSpec)
	if err != nil {
		return offered{}, err
	}
	evs, err := s.resolvedEvents(g)
	if err != nil {
		return offered{}, err
	}
	return s.materialise(g, 12*s.ProbePeriodNs, evs.surges, nil)
}

// flowDigest hashes every generated flow (ID, endpoints, size, start,
// rate, class) and the workload's meta.
func flowDigest(w offered) string {
	h := sha256.New()
	meta, _ := json.Marshal(w.meta)
	h.Write(meta)
	for i, f := range w.flows {
		fmt.Fprintf(h, "%d %d %d %d %d %g %s\n", f.ID, f.Src, f.Dst, f.Size, f.Start, f.RateBps, w.class(i))
	}
	return fmt.Sprintf("%x", h.Sum(nil)[:12])
}

// TestGeneratedFlowsPinned pins the materialised workload of every
// generator path — the fct patterns, surges and ramps, cbr, and a
// cohorts workload that touches every process, profile, placement and
// size family — flow by flow, with no simulation in the way. The golden
// campaigns cover only a few of these paths.
func TestGeneratedFlowsPinned(t *testing.T) {
	cases := []struct {
		name, spec string
		flows      int
		digest     string
	}{
		{"fct_random",
			`{"topo":"fattree:4:2","seed":3,"workload":{"load":0.5,"duration_ns":5000000,"max_flows":300}}`,
			95, "22cb8bdf0d42970f50b9a01d"},
		{"fct_incast",
			`{"topo":"fattree:4:2","seed":4,"workload":{"dist":"cache","pattern":"incast","incast_targets":2,` +
				`"load":0.4,"duration_ns":3000000,"max_flows":300}}`,
			300, "665cf9b2e4bcf9003f7fa2bf"},
		{"fct_all_to_all",
			`{"topo":"dc","seed":5,"workload":{"dist":"cache","pattern":"all_to_all","load":0.5,` +
				`"duration_ns":3000000,"max_flows":300}}`,
			300, "bdbb4bcde1044fe8da0ed610"},
		{"fct_pairs",
			`{"topo":"abilene+hosts","seed":6,"workload":{"load":0.5,"duration_ns":16000000,"max_flows":200,` +
				`"capacity_bps":40e9,"pairs":[["H_SEA","H_NYC"],["H_SNV","H_WDC"],["H_LA","H_CHI"],["H_DEN","H_ATL"]]}}`,
			85, "8d30ab5d9c8b5032cb988f7b"},
		{"fct_surge_ramp",
			`{"topo":"fattree:4:2","seed":7,"workload":{"load":0.3,"duration_ns":6000000,"max_flows":400},` +
				`"events":[{"kind":"surge","at_ns":4000000,"load":0.4,"duration_ns":2000000},` +
				`{"kind":"ramp","at_ns":5000000,"load":0.5,"duration_ns":3000000,"steps":2}]}`,
			170, "6d5568af5a5cffd904ddf6a0"},
		{"cbr",
			`{"topo":"fattree:4:2","workload":{"kind":"cbr","rate_bps":2e9,"end_ns":20000000}}`,
			8, "e0f5e40ada06df55f56e7d60"},
		{"cohorts",
			`{"topo":"fattree:4:2","seed":2,"workload":{"kind":"cohorts","load":0.8,"duration_ns":4000000,"max_flows":250,"cohorts":[` +
				`{"name":"web","load":0.2,"size":{"dist":"websearch"}},` +
				`{"name":"bulk","process":"gamma","shape":0.5,"rate_fps":20000,` +
				`"size":{"dist":"lognormal","mean_bytes":400000,"sigma":1.2},"profile":"ramp","placement":"rack_local",` +
				`"start_ns":500000,"duration_ns":3000000,"max_flows":80},` +
				`{"name":"agg","process":"weibull","shape":0.7,"rate_fps":40000,"profile":"burst","period_ns":500000,"duty":0.2,` +
				`"placement":"incast","incast_targets":2,"size":{"mix":[{"weight":0.8,"dist":"fixed","bytes":20000},` +
				`{"weight":0.2,"dist":"pareto","min_bytes":100000,"alpha":1.5}]}},` +
				`{"name":"tide","load":0.1,"weight":2,"profile":"diurnal","period_ns":2000000,"depth":0.6,` +
				`"size":{"dist":"cache"},"max_flows":100}]}}`,
			182, "534bb45963aeaf8c93387836"},
	}
	for _, tc := range cases {
		s, err := Decode([]byte(tc.spec))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		w, err := offeredFor(*s)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got := len(w.flows); got != tc.flows {
			t.Errorf("%s: %d flows, want %d", tc.name, got, tc.flows)
		}
		if got := flowDigest(w); got != tc.digest {
			t.Errorf("%s: flow digest %s, want %s", tc.name, got, tc.digest)
		}
	}
}

// fuzzTopos are the small built-in topologies FuzzWorkload materialises
// on; a spec naming any other is only decoded.
var fuzzTopos = map[string]bool{
	"dc": true, "abilene": true, "abilene+hosts": true, "random:12": true, "leafspine:4:2:2": true,
	"fattree:4:1": true, "fattree:4:2": true, "fattree:4:4": true,
}

// FuzzWorkload materialises every scenario that Decode accepts on a
// small built-in topology, with no simulation: fill keeps it valid, no
// spec may panic or spin in a generator, and an accepted workload
// numbers its flows uniquely. It is seeded with FuzzDecode's specs, each campaign spec
// cut down to its first cell.
func FuzzWorkload(f *testing.F) {
	for _, dir := range []string{"../../examples/campaign", "../../examples/paper"} {
		paths, err := filepath.Glob(filepath.Join(dir, "*.json"))
		if err != nil || len(paths) == 0 {
			f.Fatalf("no seed specs under %s: %v", dir, err)
		}
		for _, p := range paths {
			b, err := os.ReadFile(p)
			if err != nil {
				f.Fatal(err)
			}
			var c struct {
				Topos    []string
				Loads    []float64
				Seeds    []int64
				Workload Workload
				Scripts  []struct{ Events []Event } `json:"event_scripts"`
			}
			if err := json.Unmarshal(b, &c); err != nil {
				f.Fatalf("%s: %v", p, err)
			}
			s := Scenario{TopoSpec: c.Topos[0], Workload: c.Workload}
			if strings.HasPrefix(s.TopoSpec, "@") {
				s.TopoSpec = "abilene+hosts" // the paper's file topologies are Abilene
			}
			if len(c.Loads) > 0 {
				s.Workload.Load = c.Loads[0]
			}
			if len(c.Seeds) > 0 {
				s.Seed = c.Seeds[0]
			}
			if len(c.Scripts) > 0 {
				s.Events = c.Scripts[len(c.Scripts)-1].Events
			}
			b, err = json.Marshal(&s)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(b)
		}
	}
	f.Add([]byte(`{"topo":"dc","scheme":"contra","seed":7,"policy":"minimize((path.len, path.util))",` +
		`"workload":{"dist":"cache","load":0.4,"duration_ns":4000000,"max_flows":200,"pairs":[["h0_0","h1_0"]]},` +
		`"events":[{"kind":"link_down","at_ns":0,"link":"l0-s0"},{"kind":"ramp","at_ns":5000000,"load":0.5,"duration_ns":7000000,"steps":2},` +
		`{"kind":"probe_loss","at_ns":1,"node":"auto","rate":0.25},{"kind":"policy_swap","at_ns":9000000,"policy":"minimize(path.len)"}],` +
		`"probe_packing":true,"suppress_eps":0.02,"trace_level":"off","class_stats":true,"track_loops":true}`))
	f.Add([]byte(`{"topo":"fattree:4:2","scheme":"hula","workload":{"kind":"cbr","rate_bps":2e9,"end_ns":20000000},"bin_ns":500000}`))
	f.Add([]byte(`{"topo":"fattree:4:2","scheme":"contra","seed":5,"workload":{"load":0.4,"max_flows":40},` +
		`"sample_queues":true,"counterfactual":{"top_k":3,"mode":"hula"}}`))
	// Specs that once panicked a generator: a pair naming a switch, a
	// topology without hosts, and a weibull shape whose gap scale is 0.
	f.Add([]byte(`{"topo":"dc","workload":{"load":0.3,"pairs":[["l0","h1_0"]]}}`))
	f.Add([]byte(`{"topo":"abilene","workload":{"load":0.3}}`))
	f.Add([]byte(`{"topo":"fattree:4:2","workload":{"kind":"cohorts","cohorts":[` +
		`{"name":"w","process":"weibull","shape":0.001,"rate_fps":1000}]}}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := Decode(data)
		if err != nil || !fuzzTopos[s.TopoSpec] || s.Workload.Kind == WorkloadTrace || tooBigToFuzz(s) {
			return
		}
		// Run validates once, before fill, so fill must keep an accepted
		// scenario valid.
		filled := *s
		filled.fill()
		if err := filled.Validate(); err != nil {
			t.Fatalf("fill made an accepted scenario invalid: %v", err)
		}
		w, err := offeredFor(*s)
		if err != nil {
			return
		}
		seen := make(map[uint64]bool, len(w.flows))
		for i, fl := range w.flows {
			if seen[fl.ID] {
				t.Fatalf("flow %d reuses ID %d", i, fl.ID)
			}
			seen[fl.ID] = true
			w.class(i)
		}
	})
}

// tooBigToFuzz skips specs that ask for more flows or surge streams
// than a fuzz iteration should materialise: the target hunts panics
// and spins, not large workloads.
func tooBigToFuzz(s *Scenario) bool {
	if s.Workload.MaxFlows > 10_000 || len(s.Workload.Cohorts) > 16 || len(s.Events) > 16 {
		return true
	}
	for _, c := range s.Workload.Cohorts {
		if c.MaxFlows > 10_000 {
			return true
		}
	}
	for _, ev := range s.Events {
		if ev.Steps > 16 {
			return true
		}
	}
	return false
}
