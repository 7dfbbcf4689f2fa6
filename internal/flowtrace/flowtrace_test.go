package flowtrace

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func sample() *Trace {
	return &Trace{
		Meta: Meta{
			Kind: KindFCT, Topo: "fattree:4", Seed: 7,
			Dist: "websearch", Load: 0.4, DeadlineNs: 1_023_072_000,
		},
		Flows: []Flow{
			{ID: 1, Src: "h0", Dst: "h5", Bytes: 1200, StartNs: 3_100_000, Class: "base"},
			{ID: 2, Src: "h2", Dst: "h9", Bytes: 6_700_000, StartNs: 3_250_000, Class: "base"},
			{ID: 1<<32 + 1, Src: "h4", Dst: "h1", Bytes: 980, StartNs: 5_000_000, Class: "surge1"},
		},
	}
}

func TestRoundTrip(t *testing.T) {
	tr := sample()
	var buf bytes.Buffer
	if err := tr.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Meta.V != Version || got.Meta.Flows != 3 {
		t.Fatalf("meta not normalized: %+v", got.Meta)
	}
	if len(got.Flows) != 3 || got.Flows[2].ID != 1<<32+1 || got.Flows[2].Class != "surge1" {
		t.Fatalf("flows did not round-trip: %+v", got.Flows)
	}
}

func TestWriteDeterministic(t *testing.T) {
	var a, b bytes.Buffer
	if err := sample().WriteJSONL(&a); err != nil {
		t.Fatal(err)
	}
	if err := sample().WriteJSONL(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("two encodings of the same trace differ")
	}
}

func TestFileRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), FileName("cell#0123abcd"))
	if err := sample().WriteFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Flows) != 3 {
		t.Fatalf("got %d flows", len(got.Flows))
	}
}

// TestReadStrictness pins the reject cases: a trace is replay input,
// so every corruption mode must fail with a precise error naming the
// line. Each row breaks the sample trace in one place. Rows F1–F17 are
// the rules of the retired scripts/flowcheck, one row per rule, now
// enforced by the reader itself.
func TestReadStrictness(t *testing.T) {
	var buf bytes.Buffer
	if err := sample().WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	cbr := []string{
		`{"type":"meta","v":1,"kind":"cbr","topo":"dc","seed":1,"rate_bps":4.25e9,"end_ns":80000000,"flows":1}`,
		`{"type":"flow","id":1,"src":"h0_0","dst":"h2_0","rate_bps":1.3e8,"start_ns":3072000,"class":"cbr"}`,
	}
	// edit returns base with old replaced by new on 1-based line n.
	edit := func(base []string, n int, old, new string) string {
		out := append([]string{}, base...)
		if !strings.Contains(out[n-1], old) {
			t.Fatalf("line %d %q has no %q to break", n, out[n-1], old)
		}
		out[n-1] = strings.Replace(out[n-1], old, new, 1)
		return strings.Join(out, "\n") + "\n"
	}
	if _, err := Read(strings.NewReader(strings.Join(cbr, "\n") + "\n")); err != nil {
		t.Fatalf("cbr base trace rejected: %v", err)
	}

	cases := []struct {
		name  string
		input string
		want  string
	}{
		{"empty", "", "empty trace"},
		{"blank only", "\n\n", "empty trace"},
		{"meta not json", "{\n", "line 1: bad meta line"},
		{"half line", strings.Join(lines[:3], "\n") + "\n" + lines[3][:20] + "\n", "line 4: "},
		{"F1 version", edit(lines, 1, `"v":1`, `"v":2`), "line 1: unsupported trace version 2"},
		{"F2 kind", edit(lines, 1, `"kind":"fct"`, `"kind":"voodoo"`), `line 1: unknown workload kind "voodoo"`},
		{"F3 topo", edit(lines, 1, `"topo":"fattree:4",`, ``), "line 1: meta needs topo"},
		{"F4 flows", edit(lines, 1, `"flows":3`, `"flows":-3`), "line 1: meta needs flows >= 0"},
		{"F5 load", edit(lines, 1, `"load":0.4`, `"load":-0.4`), "line 1: meta rate knobs negative"},
		{"F5 rate", edit(cbr, 1, `"rate_bps":4.25e9`, `"rate_bps":-1`), "line 1: meta rate knobs negative"},
		{"F6 cbr without end", edit(cbr, 1, `"end_ns":80000000,`, ``), "line 1: cbr meta needs end_ns > 0 and no deadline_ns"},
		{"F6 cbr with deadline", edit(cbr, 1, `"end_ns"`, `"deadline_ns":5,"end_ns"`), "line 1: cbr meta needs end_ns > 0 and no deadline_ns"},
		{"F7 fct without deadline", edit(lines, 1, `"deadline_ns":1023072000,`, ``), "line 1: fct meta needs deadline_ns > 0 and no end_ns"},
		{"F7 fct with end", edit(lines, 1, `"flows"`, `"end_ns":9,"flows"`), "line 1: fct meta needs deadline_ns > 0 and no end_ns"},
		{"F8 zero id", edit(lines, 2, `"id":1,`, `"id":0,`), "line 2: flow id 0 is reserved"},
		{"F9 duplicate id", edit(lines, 4, `"id":4294967297,`, `"id":1,`), "line 4: duplicate flow id 1"},
		{"F10 src", edit(lines, 3, `"src":"h2",`, ``), "line 3: flow needs src and dst"},
		{"F10 dst", edit(lines, 3, `"dst":"h9"`, `"dst":""`), "line 3: flow needs src and dst"},
		{"F11 start", edit(lines, 3, `"start_ns":3250000`, `"start_ns":-1`), "line 3: flow needs start_ns >= 0"},
		{"F12 bytes", edit(lines, 2, `"bytes":1200`, `"bytes":-1200`), "line 2: flow size knobs negative"},
		{"F12 rate", edit(lines, 2, `"bytes":1200`, `"bytes":1200,"rate_bps":-1`), "line 2: flow size knobs negative"},
		{"bytes past sim.MaxFlowBytes", edit(lines, 2, `"bytes":1200`, `"bytes":9000000000000000000`), "line 2: flow 1: bytes 9000000000000000000 past the simulator's"},
		{"F13 cbr flow without rate", edit(cbr, 2, `"rate_bps":1.3e8`, `"bytes":1000`), "line 2: cbr flow needs rate_bps > 0"},
		{"F14 fct flow without bytes", edit(lines, 2, `"bytes":1200`, `"rate_bps":1e6`), "line 2: fct flow needs bytes > 0"},
		{"F15 flows first", lines[1] + "\n", `line 1: first line has type "flow", want "meta"`},
		{"F16 second meta", lines[0] + "\n" + lines[0] + "\n", `line 2: type "meta", want "flow"`},
		{"F16 untyped line", edit(lines, 3, `"type":"flow",`, ``), `line 3: type "", want "flow"`},
		{"F17 torn tail", lines[0] + "\n" + lines[1] + "\n", "meta declares 3 flows, file carries 1"},
		{"F17 extra flow", edit(lines, 1, `"flows":3`, `"flows":2`), "meta declares 2 flows, file carries 3"},
	}
	for _, tc := range cases {
		_, err := Read(strings.NewReader(tc.input))
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}

// TestParentFixtureReadsAndReencodes: the committed cell trace (see
// internal/scenario's TestCellArtifactsMatchParentFixtures) is accepted,
// and writing it back gives the same bytes.
func TestParentFixtureReadsAndReencodes(t *testing.T) {
	want, err := os.ReadFile("testdata/cell.flow.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	tr, err := Read(bytes.NewReader(want))
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := tr.WriteJSONL(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatal("fixture does not re-encode to its own bytes")
	}
	if summary, err := Check(bytes.NewReader(want)); err != nil || summary != "v1 fct trace on fattree:4:2: 40 flow(s)" {
		t.Fatalf("Check = %q, %v", summary, err)
	}
}

func TestFileName(t *testing.T) {
	got := FileName("fattree:4/contra/load0.4/none/seed1#00ff00ff00ff00ff")
	want := "fattree_4_contra_load0.4_none_seed1_00ff00ff00ff00ff.flow.jsonl"
	if got != want {
		t.Fatalf("FileName = %q, want %q", got, want)
	}
}
