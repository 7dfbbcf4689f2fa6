package trace

import (
	"bytes"
	"os"
	"strings"
	"testing"
)

// Two lines of testdata/cell.trace.jsonl: a divergent source decision
// and the summary of the flow it belongs to.
const (
	decisionOK = `{"type":"decision","at_ns":3126664,"flow":1,"switch":"e2_0","kind":"source","port":0,"rank":[0.0012596243679461809],"runner_port":1,"runner_rank":[0.001346808452544594],"era":0,"pid":0}`
	flowOK     = `{"type":"flow","flow":1,"src":"h2_0_0","dst":"h0_1_1","size_bytes":32607,"start_ns":3124450,"fct_ns":46793,"hops":5,"path":["e2_0","a2_0","c0","a0_0","e0_1"],"queue_ns":110266,"pkts":23,"decisions":4,"divergent":4}`
)

// TestParentFixtureAccepted: the committed cell trace passes (internal/
// scenario's TestCellArtifactsMatchParentFixtures holds the writer to it).
func TestParentFixtureAccepted(t *testing.T) {
	f, err := os.Open("testdata/cell.trace.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if summary, err := Check(f); err != nil || summary != "521 decision line(s), 40 flow line(s)" {
		t.Fatalf("Check = %q, %v", summary, err)
	}
}

// TestCheckAcceptsWhatTheRecorderWrites covers the shapes the fixture
// has none of: no runner-up, a wrapped decision ring, a flow that never
// completed, and a flows-level trace with no decision lines.
func TestCheckAcceptsWhatTheRecorderWrites(t *testing.T) {
	for _, level := range []Level{Flows, Decisions} {
		r := NewRecorder(level)
		r.SetDecisionCap(2)
		r.FlowMeta(7, "h0", "h1", 3000, 100)
		r.Sent(7, 0)
		r.Hop(7, 0, "s0")
		r.Decision(110, 7, "s0", "source", 1, []float64{0.5}, -1, nil, 3, 255)
		r.Decision(120, 7, "s1", "transit", 0, []float64{1, 0.25}, 2, []float64{1, 0.5}, 3, 0)
		r.Decision(130, 7, "s2", "transit", 0, []float64{0}, 0, []float64{0}, 4, 0)
		r.Delivered(7, 0, 1, 40)
		r.Done(7, 900)
		r.FlowMeta(8, "h1", "h0", 1, 200) // never sent
		var buf bytes.Buffer
		if err := r.WriteJSONL(&buf); err != nil {
			t.Fatal(err)
		}
		if _, err := Check(&buf); err != nil {
			t.Errorf("level %v: recorder output rejected: %v", level, err)
		}
	}
}

// TestCheckRejects breaks a two-line trace in one place per row and
// asserts the error names the line. T1–T20 are the rules of the retired
// scripts/tracecheck in its order; "canonical" and "decode" in a row's
// name mark a rule whose own message is unreachable because the
// writer's-encoding rule (jsonl.Canonical on decisionLine/flowLine)
// rejects the line first — the missing-key half of every "needs X"
// rule, and the uint8 ranges.
func TestCheckRejects(t *testing.T) {
	const canonical = "not the writer's encoding"
	d := func(old, new string) string { return breakLine(t, decisionOK, old, new) + "\n" + flowOK + "\n" }
	f := func(old, new string) string { return decisionOK + "\n" + breakLine(t, flowOK, old, new) + "\n" }
	cases := []struct{ name, input, want string }{
		{"T1 at_ns negative", d(`"at_ns":3126664`, `"at_ns":-1`), "line 1: decision needs at_ns >= 0"},
		{"T1 at_ns missing: canonical", d(`"at_ns":3126664,`, ``), "line 1: " + canonical},
		{"T2 flow missing: canonical", d(`"flow":1,`, ``), "line 1: " + canonical},
		{"T3 switch", d(`"switch":"e2_0"`, `"switch":""`), "line 1: decision needs switch"},
		{"T4 kind", d(`"kind":"source"`, `"kind":"sauce"`), `line 1: decision kind "sauce" not in {source, transit}`},
		{"T5 port", d(`"port":0`, `"port":-1`), "line 1: decision needs port >= 0"},
		{"T6 rank empty", d(`"rank":[0.0012596243679461809]`, `"rank":[]`), "line 1: decision needs a rank vector"},
		{"T6 rank null", d(`"rank":[0.0012596243679461809]`, `"rank":null`), "line 1: decision needs a rank vector"},
		{"T7 runner_port", d(`"runner_port":1`, `"runner_port":-2`), "line 1: decision needs runner_port >= -1"},
		{"T8 runner_rank without runner", d(`"runner_port":1`, `"runner_port":-1`), "line 1: runner_rank present without a runner_port"},
		{"T9 runner without runner_rank", d(`,"runner_rank":[0.001346808452544594]`, ``), "line 1: runner_port 1 without runner_rank"},
		{"T10 era range: decode", d(`"era":0`, `"era":256`), "line 1: json: cannot unmarshal number 256"},
		{"T11 pid range: decode", d(`"pid":0`, `"pid":-1`), "line 1: json: cannot unmarshal number -1"},
		{"T12 flow id missing: canonical", f(`"flow":1,`, ``), "line 2: " + canonical},
		{"T13 start_ns", f(`"start_ns":3124450`, `"start_ns":-5`), "line 2: flow line needs start_ns >= 0"},
		{"T14 fct_ns", f(`"fct_ns":46793`, `"fct_ns":-46793`), "line 2: flow fct_ns negative"},
		{"T15 hops", f(`"hops":5`, `"hops":-5`), "line 2: flow counters negative"},
		{"T15 pkts", f(`"pkts":23`, `"pkts":-23`), "line 2: flow counters negative"},
		{"T15 queue_ns", f(`"queue_ns":110266`, `"queue_ns":-1`), "line 2: flow counters negative"},
		{"T16 divergent", f(`"divergent":4`, `"divergent":5`), "line 2: divergent 5 exceeds decisions 4"},
		{"T17 completed without path", f(`"path":["e2_0","a2_0","c0","a0_0","e0_1"],`, ``), "line 2: completed flow carries no path"},
		{"T18 path too long", f(`"hops":5`, `"hops":3`), "line 2: path longer than hop count allows"},
		{"T19 unknown type", decisionOK + "\n" + `{"type":"meta","v":1}` + "\n", `line 2: unknown type "meta"`},
		{"T19 untyped line", `{"at_ns":1}` + "\n", `line 1: unknown type ""`},
		{"T20 no lines", "", "no trace lines"},
		{"not an object", decisionOK + "\n\n[1]\n", "line 3: not a JSON object"},
		{"torn tail is not forgiven", decisionOK + "\n" + flowOK[:80], "line 2: "},
		{"unknown key", d(`"pid":0`, `"pid":0,"note":"x"`), `line 1: json: unknown field "note"`},
		{"keys reordered", d(`"era":0,"pid":0`, `"pid":0,"era":0`), "line 1: " + canonical},
		{"omitempty key spelt out", f(`"fct_ns":46793`, `"fct_ns":0`), "line 2: " + canonical},
	}
	for _, tc := range cases {
		_, err := Check(strings.NewReader(tc.input))
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
		} else if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}

// breakLine replaces old by new in line, which must contain it.
func breakLine(t *testing.T, line, old, new string) string {
	t.Helper()
	if !strings.Contains(line, old) {
		t.Fatalf("%q has no %q to break", line, old)
	}
	return strings.Replace(line, old, new, 1)
}

// FuzzCheck feeds the checker arbitrary bytes: nothing may panic, and
// the first line of whatever it accepts is accepted on its own (the
// rules are per line, the summary a count).
func FuzzCheck(f *testing.F) {
	fix, err := os.ReadFile("testdata/cell.trace.jsonl")
	if err != nil {
		f.Fatal(err)
	}
	fix = fix[len(fix)-4096:] // the last few decisions and flows
	fix = fix[bytes.IndexByte(fix, '\n')+1:]
	f.Add(fix)
	f.Add(fix[:len(fix)/2])                              // torn mid-line
	f.Add([]byte(flowOK + "\n" + decisionOK + "\n"))     // lines swapped
	f.Add([]byte(decisionOK + "\n" + decisionOK + "\n")) // no flow line
	f.Add([]byte(strings.Replace(flowOK, `"decisions":4`, `"decisions":9223372036854775807`, 1) + "\n"))
	f.Add([]byte(strings.Replace(decisionOK, `"era":0`, `"era":1e2`, 1) + "\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		summary, err := Check(bytes.NewReader(data))
		if err != nil {
			return
		}
		if summary == "" {
			t.Fatal("accepted with no summary")
		}
		for _, line := range bytes.Split(data, []byte("\n")) {
			if len(bytes.TrimSpace(line)) == 0 {
				continue
			}
			if _, err := Check(bytes.NewReader(line)); err != nil {
				t.Fatalf("first line of an accepted trace rejected on its own: %v", err)
			}
			break
		}
	})
}
