package campaign

import (
	"encoding/json"
	"reflect"
	"slices"
	"strings"
	"testing"

	"contra/internal/scenario"
)

// sharedSettings are the thirteen per-cell settings a campaign spec and
// a scenario spec both take, each with a non-zero value. A
// counterfactual needs the contra scheme, so the specs below run it.
const sharedSettings = `"probe_period_ns":11,"flowlet_timeout_ns":12,"failure_detect_periods":13,` +
	`"probe_packing":true,"suppress_eps":0.02,"refresh_every":4,` +
	`"bin_ns":14,"sample_queues":true,"track_loops":true,"trace_level":"flows",` +
	`"metrics_interval_ns":15,"class_stats":true,` +
	`"counterfactual":{"top_k":3,"mode":"ecmp"}`

// pick decodes a JSON object and keeps only the shared settings.
func pick(t *testing.T, doc []byte) map[string]any {
	t.Helper()
	var all, want map[string]any
	if err := json.Unmarshal(doc, &all); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal([]byte("{"+sharedSettings+"}"), &want); err != nil {
		t.Fatal(err)
	}
	out := map[string]any{}
	for k := range want {
		if v, ok := all[k]; ok {
			out[k] = v
		}
	}
	return out
}

// TestExpandHandsEveryCellTheSpecsSettings: whatever a spec says about
// the shared settings, every cell it expands to says the same.
func TestExpandHandsEveryCellTheSpecsSettings(t *testing.T) {
	src := []byte(`{"topos":["dc"],"schemes":["contra"],"loads":[0.1,0.2],"seeds":[1,2],` + sharedSettings + `}`)
	spec, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	cells, err := spec.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 4 {
		t.Fatalf("expanded %d cells, want 4", len(cells))
	}
	want := pick(t, src)
	if len(want) != 13 {
		t.Fatalf("spec carries %d shared settings, want 13", len(want))
	}
	for _, c := range cells {
		enc, err := json.Marshal(&c)
		if err != nil {
			t.Fatal(err)
		}
		if got := pick(t, enc); !reflect.DeepEqual(got, want) {
			t.Errorf("cell %s settings\n got %v\nwant %v", c.Name, got, want)
		}
	}
	// "off" is the one value Expand rewrites: it means absent.
	spec.TraceLevel = "off"
	cells, err = spec.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if got := cells[0].TraceLevel; got != "" {
		t.Errorf(`trace_level "off" expanded to %q, want ""`, got)
	}
}

// jsonKeys lists the object keys encoding/json reads into (and writes
// from) a struct type: the tag names of its exported fields, embedded
// structs flattened.
func jsonKeys(t reflect.Type) []string {
	var keys []string
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		name, _, _ := strings.Cut(f.Tag.Get("json"), ",")
		switch {
		case name == "-" || !f.IsExported():
		case name != "":
			keys = append(keys, name)
		case f.Anonymous && f.Type.Kind() == reflect.Struct:
			keys = append(keys, jsonKeys(f.Type)...)
		default:
			keys = append(keys, f.Name)
		}
	}
	slices.Sort(keys)
	return keys
}

// TestSpecKeySets pins the keys the two spec formats accept. A setting
// added to a shared struct shows up in both formats at once, so the
// lists are written out: a new key is a deliberate edit here.
func TestSpecKeySets(t *testing.T) {
	shared := []string{
		"bin_ns", "class_stats", "counterfactual", "failure_detect_periods",
		"flowlet_timeout_ns", "metrics_interval_ns", "probe_packing", "probe_period_ns",
		"refresh_every", "sample_queues", "suppress_eps", "trace_level", "track_loops",
	}
	for _, tc := range []struct {
		name    string
		typ     reflect.Type
		own     []string
		decode  func([]byte) error
		minimal string // a valid spec without its closing brace
		unknown []string
	}{
		{
			name: "scenario", typ: reflect.TypeOf(scenario.Scenario{}),
			own: []string{"events", "name", "policy", "scheme", "script", "seed", "topo", "workload"},
			decode: func(b []byte) error {
				_, err := scenario.Decode(b)
				return err
			},
			minimal: `{"topo":"dc","scheme":"contra","workload":{"load":0.3}`,
			unknown: []string{"loop_ttl_delta", "LoopTTLDelta", "options", "cell_budget_events", "elephant_bytes"},
		},
		{
			name: "campaign", typ: reflect.TypeOf(Spec{}),
			own: []string{"cell_budget_events", "event_scripts", "loads", "name", "policy", "schemes", "seeds", "topos", "workload"},
			decode: func(b []byte) error {
				_, err := Parse(b)
				return err
			},
			minimal: `{"topos":["dc"],"schemes":["contra"],"loads":[0.1]`,
			unknown: []string{"loop_ttl_delta", "LoopTTLDelta", "options", "top_k", "elephant_bytes"},
		},
	} {
		want := slices.Concat(shared, tc.own)
		slices.Sort(want)
		if got := jsonKeys(tc.typ); !slices.Equal(got, want) {
			t.Errorf("%s spec keys\n got %v\nwant %v", tc.name, got, want)
		}
		if err := tc.decode([]byte(tc.minimal + "," + sharedSettings + "}")); err != nil {
			t.Errorf("%s spec with every shared setting: %v", tc.name, err)
		}
		for _, k := range tc.unknown {
			err := tc.decode([]byte(tc.minimal + `,"` + k + `":1}`))
			if err == nil || !strings.Contains(err.Error(), "unknown field") {
				t.Errorf("%s spec key %q: err = %v, want an unknown-field error", tc.name, k, err)
			}
		}
	}
}
