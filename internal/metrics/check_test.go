package metrics

import (
	"bytes"
	"os"
	"strings"
	"testing"
)

// checkBase is two ticks of the test recorder as WriteJSONL emits them:
// line 1 the meta line, then per tick two link lines, one drops line
// and two router lines (lines 2–6 at t=0, 7–11 at t=500000).
func checkBase(t testing.TB) []string {
	t.Helper()
	r, cz, ca := newTestRecorder()
	cz.Added, ca.Flaps = 1, 2
	sampleOnce(r, 0, 0.25)
	cz.Added = 4
	sampleOnce(r, 500_000, 0.5)
	var buf bytes.Buffer
	if err := r.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	return strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
}

// TestParentFixtureAccepted: the committed cell telemetry passes
// (internal/scenario's TestCellArtifactsMatchParentFixtures holds the
// writer to it).
func TestParentFixtureAccepted(t *testing.T) {
	f, err := os.Open("testdata/cell.metrics.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if summary, err := Check(f); err != nil || summary != "29 sample(s), 64 link(s), 20 router(s)" {
		t.Fatalf("Check = %q, %v", summary, err)
	}
}

// TestCheckAcceptsWhatTheRecorderWrites covers the shapes the fixture
// has none of: a wrapped ring (dropped > 0) and a recorder that never
// sampled or has nothing registered.
func TestCheckAcceptsWhatTheRecorderWrites(t *testing.T) {
	wrapped, _, _ := newTestRecorder()
	wrapped.SetSampleCap(2)
	for i := int64(0); i < 5; i++ {
		sampleOnce(wrapped, i*500_000, 0.1)
	}
	idle, _, _ := newTestRecorder()
	for name, r := range map[string]*Recorder{"wrapped": wrapped, "idle": idle, "bare": NewRecorder(1)} {
		var buf bytes.Buffer
		if err := r.WriteJSONL(&buf); err != nil {
			t.Fatal(err)
		}
		if _, err := Check(&buf); err != nil {
			t.Errorf("%s recorder's output rejected: %v", name, err)
		}
	}
}

// TestCheckRejects breaks the base file in one place per row and
// asserts the error names the line. M1–M23 are the rules of the retired
// scripts/metricscheck in its order; "canonical" in a row's name marks
// a rule whose own message is unreachable because the writer's-encoding
// rule (jsonl.Canonical on the line structs) rejects the line first —
// the missing-key half of every rule, and all of M17.
func TestCheckRejects(t *testing.T) {
	const canonical = "not the writer's encoding"
	base := checkBase(t)
	join := func(lines []string) string { return strings.Join(lines, "\n") + "\n" }
	// edit returns the base with old replaced by new on 1-based line n.
	edit := func(n int, old, new string) string {
		out := append([]string{}, base...)
		if !strings.Contains(out[n-1], old) {
			t.Fatalf("line %d %q has no %q to break", n, out[n-1], old)
		}
		out[n-1] = strings.Replace(out[n-1], old, new, 1)
		return join(out)
	}
	// drop returns the base without 1-based line n.
	drop := func(n int) string { return join(append(append([]string{}, base[:n-1]...), base[n:]...)) }
	if _, err := Check(strings.NewReader(join(base))); err != nil {
		t.Fatalf("base rejected: %v", err)
	}

	cases := []struct{ name, input, want string }{
		{"M1 first line not meta", drop(1), `line 1: first line must be meta, got "link"`},
		{"M2 version", edit(1, `"v":1`, `"v":2`), "line 1: telemetry version 2, this build reads v1"},
		{"M2 version missing: canonical", edit(1, `"v":1,`, ``), "line 1: " + canonical},
		{"M3 interval", edit(1, `"interval_ns":500000`, `"interval_ns":0`), "line 1: meta needs interval_ns > 0"},
		{"M4 samples negative", edit(1, `"samples":2`, `"samples":-2`), "line 1: meta needs samples >= 0"},
		{"M4 samples missing: canonical", edit(1, `"samples":2,`, ``), "line 1: " + canonical},
		{"M5 dropped", edit(1, `"samples":2`, `"samples":2,"dropped":-1`), "line 1: meta dropped negative"},
		{"M6 second meta", join(append([]string{base[0]}, base...)), "line 2: second meta line"},
		{"M7 link t negative", edit(2, `"t":0`, `"t":-1`), "line 2: link t negative or out of order"},
		{"M7 link t backwards", edit(8, `"t":500000`, `"t":499999`), "line 8: link t negative or out of order"},
		{"M7 link t missing: canonical", edit(2, `"t":0,`, ``), "line 2: " + canonical},
		{"M8 link index", edit(3, `"link":1`, `"link":2`), "line 3: link index outside the meta link table"},
		{"M8 link index negative", edit(3, `"link":1`, `"link":-1`), "line 3: link index outside the meta link table"},
		{"M9 util", edit(7, `"util":0.5`, `"util":1.5`), "line 7: link util outside [0, 1]"},
		{"M9 util negative", edit(7, `"util":0.5`, `"util":-0.5`), "line 7: link util outside [0, 1]"},
		{"M10 queue", edit(2, `"queue":1500`, `"queue":-1500`), "line 2: link queue negative"},
		{"M11 link drops", edit(2, `"drops":2`, `"drops":-2`), "line 2: link drops negative"},
		{"M12 drops t", edit(9, `"t":500000`, `"t":1`), "line 9: drops t negative or out of order"},
		{"M13 counts length", edit(4, `"counts":[1,0]`, `"counts":[1,0,0]`), "line 4: drops counts has 3 entries, meta declares 2 reasons"},
		{"M13 counts missing: canonical", edit(4, `,"counts":[1,0]`, ``), "line 4: " + canonical},
		{"M14 count negative", edit(4, `"counts":[1,0]`, `"counts":[1,-1]`), "line 4: drops count negative"},
		{"M15 router t", edit(10, `"t":500000`, `"t":-500000`), "line 10: router t negative or out of order"},
		{"M16 router index", edit(6, `"router":1`, `"router":2`), "line 6: router index outside the meta router table"},
		{"M17 churn counter missing: canonical", edit(5, `"expired":0,`, ``), "line 5: " + canonical},
		{"M18 churn negative", edit(11, `"added":3`, `"added":-3`), "line 11: router churn counter negative"},
		{"M19 unknown type", edit(4, `"type":"drops"`, `"type":"drips"`), `line 4: unknown type "drips"`},
		{"M20 no lines", "", "no meta line"},
		{"M21 link line missing", drop(8), "metrics: 3 link lines, meta declares 2 samples x 2 links"},
		{"M22 drops line missing", drop(9), "metrics: 1 drops lines for 2 samples"},
		{"M23 router line missing", drop(11), "metrics: 3 router lines, meta declares 2 samples x 2 routers"},
		{"M21 samples overstated", edit(1, `"samples":2`, `"samples":3`), "metrics: 4 link lines, meta declares 3 samples x 2 links"},
		{"not an object", edit(4, `{`, `[{`), "line 4: not a JSON object"},
		{"torn tail is not forgiven", join(base[:10]) + base[10][:30], "line 11: "},
		{"unknown key", edit(4, `"t":0`, `"t":0,"note":1`), `line 4: json: unknown field "note"`},
		{"html unescaped", edit(1, `a-\u003eb`, `a->b`), "line 1: " + canonical},
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

// FuzzCheck feeds the checker arbitrary bytes: nothing may panic,
// though every index into the meta tables comes from the file.
func FuzzCheck(f *testing.F) {
	base := checkBase(f)
	whole := strings.Join(base, "\n") + "\n"
	f.Add([]byte(whole))
	f.Add([]byte(whole[:len(whole)/2]))                                                      // torn mid-line
	f.Add([]byte(strings.Join(base[:6], "\n") + "\n"))                                       // a tick short
	f.Add([]byte(strings.Join(append([]string{base[1]}, base...), "\n")))                    // link before meta
	f.Add([]byte(strings.Replace(whole, `"samples":2`, `"samples":4611686018427387904`, 1))) // forged count
	f.Add([]byte(strings.Replace(whole, `"link":1`, `"link":9223372036854775807`, 1)))
	f.Add([]byte(strings.Replace(whole, `"routers":["a","z"]`, `"routers":null`, 1)))
	f.Fuzz(func(t *testing.T, data []byte) {
		summary, err := Check(bytes.NewReader(data))
		if err != nil {
			return
		}
		if summary == "" {
			t.Fatal("accepted with no summary")
		}
	})
}
