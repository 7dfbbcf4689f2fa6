package campaign

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"contra/internal/scenario"
)

// FuzzDecode feeds the two spec readers — scenario.Decode and Parse —
// arbitrary bytes. Nothing may panic; an accepted spec's canonical
// encoding must be accepted again and encode to the same bytes (for a
// scenario that is its Key, which checkpoints and merges match cells
// on); and a campaign small enough to expand must expand.
func FuzzDecode(f *testing.F) {
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
	f.Add([]byte(`{"topos":["dc"],"schemes":["contra"],"loads":[0.3,0.6],"seeds":[1,2],` +
		`"sample_queues":true,"counterfactual":{"mode":"ecmp"}}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		if s, err := scenario.Decode(data); err == nil {
			enc, err := json.Marshal(s)
			if err != nil {
				t.Fatalf("accepted scenario does not encode: %v", err)
			}
			s2, err := scenario.Decode(enc)
			if err != nil {
				t.Fatalf("accepted scenario's encoding %s is rejected: %v", enc, err)
			}
			if s.Key() != s2.Key() {
				t.Fatalf("scenario key moved across a re-encode: %s vs %s (%s)", s.Key(), s2.Key(), enc)
			}
		}
		spec, err := Parse(data)
		if err != nil {
			return
		}
		enc, err := json.Marshal(spec)
		if err != nil {
			t.Fatalf("accepted campaign does not encode: %v", err)
		}
		spec2, err := Parse(enc)
		if err != nil {
			t.Fatalf("accepted campaign's encoding %s is rejected: %v", enc, err)
		}
		if enc2, _ := json.Marshal(spec2); !bytes.Equal(enc, enc2) {
			t.Fatalf("campaign encoding is not a fixed point: %s vs %s", enc, enc2)
		}
		// Expansion is a product of the axes; keep it small.
		for _, n := range []int{len(spec.Topos), len(spec.Schemes), len(spec.Loads), len(spec.Scripts), len(spec.Seeds)} {
			if n > 6 {
				return
			}
		}
		jobs, err := spec.Jobs()
		if err == nil && len(jobs) != spec.Size() {
			t.Fatalf("expanded to %d cells, Size() = %d", len(jobs), spec.Size())
		}
	})
}
