package flowtrace

import (
	"bytes"
	"os"
	"reflect"
	"testing"

	"contra/internal/sim"
)

// FuzzRead feeds the trace reader arbitrary bytes. Nothing may panic or
// allocate on the meta line's say-so, an accepted trace carries no flow
// the simulator cannot start, and written back in the canonical encoding
// it must read as the same trace.
func FuzzRead(f *testing.F) {
	// 40 websearch flows recorded on fattree:4:2 (internal/scenario's
	// TestCellArtifactsMatchParentFixtures).
	rec, err := os.ReadFile("testdata/cell.flow.jsonl")
	if err != nil {
		f.Fatal(err)
	}
	meta, flows, _ := bytes.Cut(rec, []byte("\n"))
	f.Add(rec)
	f.Add(rec[:len(rec)/2])                                    // torn mid-line
	f.Add(rec[:bytes.LastIndexByte(rec[:len(rec)-1], '\n')+1]) // last flow missing
	f.Add(bytes.Join([][]byte{meta, meta, flows}, []byte("\n")))
	f.Add(flows) // no meta line
	f.Add([]byte(`{"type":"meta","v":1,"kind":"cbr","topo":"dc","seed":1,"rate_bps":4.25e9,"end_ns":80000000,"flows":1}` + "\n" +
		`{"type":"flow","id":1,"src":"h0_0","dst":"h2_0","rate_bps":1.3e8,"start_ns":3072000,"class":"cbr"}` + "\n"))

	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := Read(bytes.NewReader(data))
		if err != nil {
			return
		}
		for _, fl := range tr.Flows {
			if fl.Bytes > sim.MaxFlowBytes {
				t.Fatalf("accepted flow %d of %d bytes: sim.StartFlows cannot allocate it", fl.ID, fl.Bytes)
			}
		}
		var buf bytes.Buffer
		if err := tr.WriteJSONL(&buf); err != nil {
			t.Fatalf("accepted trace does not encode: %v", err)
		}
		again, err := Read(&buf)
		if err != nil {
			t.Fatalf("canonical encoding of an accepted trace is rejected: %v", err)
		}
		if !reflect.DeepEqual(tr, again) {
			t.Fatalf("trace changed across a write and read:\n%+v\n%+v", tr, again)
		}
	})
}
