package fabric

import (
	"bytes"
	"fmt"
	"os"
	"regexp"
	"strings"
	"testing"
)

// scriptLines is journalScript's journal as 1-based lines: line 1 the
// meta line, then 14 events (event N on line N+1) — two grants, a
// heartbeat, a result, an expiry and re-grant, two more grants, a
// result, a steal, the thief's result, the victim's duplicate, and a
// timed-out result with its timeout event.
func scriptLines(t testing.TB) []string {
	t.Helper()
	return strings.Split(strings.TrimRight(string(journalScript(t)), "\n"), "\n")
}

var seqField = regexp.MustCompile(`"seq":\d+`)

// journalOf joins lines into a journal, renumbering the events' seq so
// that rows which drop or repeat a line break only what they mean to.
func journalOf(lines ...string) string {
	out := append([]string{}, lines...)
	for i := 1; i < len(out); i++ {
		out[i] = seqField.ReplaceAllString(out[i], fmt.Sprintf(`"seq":%d`, i))
	}
	return strings.Join(out, "\n") + "\n"
}

// TestParentFixtureAccepted: the journal the last release's contracamp
// -serve wrote for a 4-cell campaign (wall-clock timestamps, so it is
// not byte-reproducible) reads, replays and renders.
func TestParentFixtureAccepted(t *testing.T) {
	raw, err := os.ReadFile("testdata/fleet4.journal.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	summary, err := CheckJournalStream(bytes.NewReader(raw))
	if err != nil || summary != "4 cell(s), 8 event(s), 4 result(s), 0 steal(s), 0 pre-done" {
		t.Fatalf("CheckJournalStream = %q, %v", summary, err)
	}
	meta, events, err := ReadJournal(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if pm := BuildPostmortem(meta, events); pm.Results != 4 {
		t.Fatalf("post-mortem counts %d results, want 4", pm.Results)
	}
}

// TestCheckJournalStreamOneTornTailStory: the journal of a coordinator
// killed mid-write is what -postmortem and the README's crash-recovery
// section accept, so the checker accepts it too, and says so.
func TestCheckJournalStreamOneTornTailStory(t *testing.T) {
	raw := journalScript(t)
	whole, err := CheckJournalStream(bytes.NewReader(raw))
	if err != nil || strings.Contains(whole, "torn") {
		t.Fatalf("whole journal: %q, %v", whole, err)
	}
	if whole != "4 cell(s), 14 event(s), 4 result(s), 1 steal(s), 0 pre-done" {
		t.Fatalf("summary %q", whole)
	}
	torn, err := CheckJournalStream(bytes.NewReader(raw[:len(raw)-10]))
	if err != nil || torn != "4 cell(s), 13 event(s), 4 result(s), 1 steal(s), 0 pre-done, torn final line dropped" {
		t.Fatalf("torn journal: %q, %v", torn, err)
	}
}

// TestJournalRejects breaks the scripted journal in one place per row.
// J1–J29 are the rules of the retired scripts/journalcheck in its
// order. Rules about one line are the reader's (ReadJournal; the error
// names the line), rules about the story the events tell are
// CheckJournal's (the error names the event; event N is line N+1).
// "canonical"/"decode" mark a rule whose own message is unreachable
// because jsonl.Canonical on JournalMeta/JournalEvent rejects the line
// first.
func TestJournalRejects(t *testing.T) {
	const canonical = "not the writer's encoding"
	l := scriptLines(t)
	// edit returns the journal with old replaced by new on 1-based line n.
	edit := func(n int, old, new string) string {
		out := append([]string{}, l...)
		if !strings.Contains(out[n-1], old) {
			t.Fatalf("line %d %q has no %q to break", n, out[n-1], old)
		}
		out[n-1] = strings.Replace(out[n-1], old, new, 1)
		return journalOf(out...)
	}
	metaWith := func(old, new string) string {
		if !strings.Contains(l[0], old) {
			t.Fatalf("meta line has no %q", old)
		}
		return strings.Replace(l[0], old, new, 1)
	}
	if _, err := CheckJournalStream(strings.NewReader(journalOf(l...))); err != nil {
		t.Fatalf("base journal rejected: %v", err)
	}

	cases := []struct{ name, input, want string }{
		{"J1 first line not meta", journalOf(l[1:]...), `line 1: first line is "grant", want meta`},
		{"J2 version", edit(1, `"v":1`, `"v":99`), "line 1: journal version 99, this binary reads 1"},
		{"J2 version missing: canonical", edit(1, `"v":1,`, ``), "line 1: " + canonical},
		{"J3 cells zero", edit(1, `"cells":4`, `"cells":0`), "line 1: meta needs cells > 0"},
		{"J3 cells negative", edit(1, `"cells":4`, `"cells":-1`), "line 1: meta needs cells > 0"},
		{"J3 cells missing: canonical", edit(1, `"cells":4,`, ``), "line 1: " + canonical},
		{"J4 lease ttl", edit(1, `"lease_ttl_ns":10000000000`, `"lease_ttl_ns":0`), "line 1: meta needs positive lease_ttl_ns and steal_after_ns"},
		{"J4 steal after", edit(1, `"steal_after_ns":2000000000`, `"steal_after_ns":-1`), "line 1: meta needs positive lease_ttl_ns and steal_after_ns"},
		{"J5 max leases", edit(1, `"max_leases":2`, `"max_leases":0`), "line 1: meta needs max_leases > 0"},
		{"J6 tables shorter than cells", edit(1, `"cells":4`, `"cells":5`), "line 1: meta declares 5 cells but carries 4 names and 4 keys"},
		{"J6 forged cell count", edit(1, `"cells":4`, `"cells":4611686018427387904`), "line 1: meta declares 4611686018427387904 cells"},
		{"J6 keys null", edit(1, l[0][strings.Index(l[0], `"keys":`):], `"keys":null}`), "line 1: meta declares 4 cells but carries 4 names and 0 keys"},
		{"J7 pre_done range", edit(1, `]}`, `],"pre_done":[4]}`), "line 1: pre_done index 4 outside the cell table"},
		{"J8 second meta: decode", journalOf(append([]string{l[0]}, l...)...), `line 2: json: unknown field "v"`},
		{"J9 seq gap", strings.Replace(journalOf(l...), `"seq":3,`, `"seq":4,`, 1), "event 3: heartbeat seq 4 is not dense (prev 2)"},
		{"J9 seq missing: canonical", strings.Replace(journalOf(l...), `"seq":3,`, ``, 1), "line 4: " + canonical},
		{"J10 time backwards", edit(6, `"t_ns":1015000000000`, `"t_ns":1004000000000`), "event 5: expire t_ns runs backwards"},
		{"J11 cell missing: canonical", edit(2, `"cell":0,`, ``), "line 2: " + canonical},
		{"J12 grant outside table", edit(8, `"cell":2`, `"cell":4`), "event 7: grant cell 4 outside the cell table"},
		{"J13 grant of done cell", edit(8, `"cell":2`, `"cell":1`), "event 7: grant of already-done cell 1"},
		{"J13 grant of pre-done cell", journalOf(metaWith(`]}`, `],"pre_done":[0]}`), l[1]), "event 1: grant of already-done cell 0"},
		{"J14 grant without worker", edit(2, `"worker":"w1",`, ``), "event 1: grant line needs a worker and a lease id"},
		{"J14 grant without lease", edit(2, `"lease":1,`, ``), "event 1: grant line needs a worker and a lease id"},
		{"J15 lease cap", edit(1, `"max_leases":2`, `"max_leases":1`), "event 10: cell 0 has 2 concurrent leases, cap 1"},
		{"J16 attempt numbering", edit(7, `"attempt":2`, `"attempt":1`), "event 6: grant of cell 0 numbered attempt 1, want 2"},
		{"J17 thief is holder", edit(11, `"holder":"w2"`, `"holder":"w3"`), `event 10: steal of cell 0: holder "w3" vs thief "w3"`},
		{"J17 steal without holder", edit(11, `,"holder":"w2"`, ``), `event 10: steal of cell 0: holder "" vs thief "w3"`},
		{"J18 heartbeat on unknown lease", edit(4, `"lease":2`, `"lease":9`), "event 3: heartbeat for cell 1 rides unknown lease 9"},
		{"J19 expire of unknown lease", edit(6, `"lease":1`, `"lease":8`), "event 5: expire of unknown lease 8 on cell 0"},
		{"J20 result outside table", edit(5, `"cell":1`, `"cell":7`), "event 4: result cell 7 outside the cell table"},
		{"J21 result for pre-done cell", journalOf(metaWith(`]}`, `],"pre_done":[1]}`), l[1], l[4]), "event 2: result for pre-done cell 1"},
		{"J22 result key", edit(5, `#0f7eb9ef46161cde`, `#0f7eb9ef46161cdf`), "event 4: result for cell 1 carries key"},
		{"J23 result attempts", edit(12, `"attempts":3`, `"attempts":2`), "event 11: result for cell 0 reports 2 attempts, journal granted 3"},
		{"J24 second result", journalOf(append(append([]string{}, l[:10]...), l[9])...), "event 10: cell 3 accepted a second result"},
		{"J25 duplicate outside table", edit(13, `"cell":0`, `"cell":-1`), "event 12: duplicate cell -1 outside the cell table"},
		{"J26 duplicate before result", edit(13, `"cell":0`, `"cell":2`), "event 12: duplicate for cell 2 before any result"},
		{"J27 timeout without result", journalOf(append(append([]string{}, l[:13]...), l[14])...), "event 13: timeout event for cell 2 without its result"},
		{"J28 unknown type", edit(15, `"type":"timeout"`, `"type":"timeoot"`), `event 14: unknown type "timeoot"`},
		{"J29 no lines", "", "journal has no meta line"},
		{"not an object", edit(3, `{`, `[`), "line 3: "},
		{"inner damage is not forgiven", strings.Replace(journalOf(l...), l[5], l[5][:40], 1), "line 6: "},
		{"unknown key", edit(2, `"cell":0`, `"cell":0,"note":1`), `line 2: json: unknown field "note"`},
		{"omitempty key spelt out", edit(10, `"wait_ns"`, `"run_ns":0,"wait_ns"`), "line 10: " + canonical},
	}
	for _, tc := range cases {
		_, err := CheckJournalStream(strings.NewReader(tc.input))
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
		} else if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
		// Line rules are the reader's, story rules are not: a post-mortem
		// must still be able to read what a faulty coordinator wrote.
		_, _, rerr := ReadJournal(strings.NewReader(tc.input))
		if story := strings.HasPrefix(tc.want, "event "); story != (rerr == nil) {
			t.Errorf("%s: ReadJournal err = %v, want story rules (only) to pass the reader", tc.name, rerr)
		}
	}
}

// TestForgedMetaIsAnErrorNotACrash is the regression for `contracamp
// -postmortem` dying with "makeslice: len out of range": the cell count
// is bounded by the tables that must accompany it, so a journal the
// reader accepts cannot make BuildPostmortem allocate by a forged
// number. The inputs are committed under testdata/fuzz/FuzzReadJournal.
func TestForgedMetaIsAnErrorNotACrash(t *testing.T) {
	l := scriptLines(t)
	for _, forged := range []string{`"cells":-1`, `"cells":0`, `"cells":5`, `"cells":4611686018427387904`} {
		in := journalOf(append([]string{strings.Replace(l[0], `"cells":4`, forged, 1)}, l[1:]...)...)
		meta, events, err := ReadJournal(strings.NewReader(in))
		if err == nil {
			BuildPostmortem(meta, events) // the parent commit panics here
			t.Errorf("meta with %s accepted", forged)
		} else if !strings.Contains(err.Error(), "journal line 1: meta") {
			t.Errorf("meta with %s: error %q does not name the meta line", forged, err)
		}
		// Unterminated, the line is a torn tail to drop — not to keep unchecked.
		if meta, _, err := ReadJournal(strings.NewReader(strings.SplitN(in, "\n", 2)[0])); err == nil {
			t.Errorf("unterminated meta with %s accepted: %+v", forged, meta)
		}
	}
}

// FuzzReadJournal feeds the journal reader arbitrary bytes. Nothing may
// panic, and a journal it accepts must be safe for everything
// downstream: the state-machine replay and the post-mortem build and
// renderers, all of which index by numbers read from the file.
func FuzzReadJournal(f *testing.F) {
	fix, err := os.ReadFile("testdata/fleet4.journal.jsonl")
	if err != nil {
		f.Fatal(err)
	}
	l := scriptLines(f)
	script := journalOf(l...)
	f.Add(fix)
	f.Add([]byte(script))
	f.Add([]byte(script[:len(script)-10]))                   // torn tail
	f.Add([]byte(script[:len(script)/2]))                    // torn mid-journal
	f.Add([]byte(journalOf(l[0], l[4], l[1], l[10], l[12]))) // lines swapped
	f.Add([]byte(journalOf(l[1:]...)))                       // no meta
	for _, forge := range [][2]string{
		{`"cells":4`, `"cells":3`},
		{`"cell":3`, `"cell":9223372036854775807`},
		{`"attempts":3`, `"attempts":-9223372036854775808`},
		{`"max_leases":2`, `"max_leases":1`},
	} {
		f.Add([]byte(strings.Replace(script, forge[0], forge[1], 1)))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		meta, events, err := ReadJournal(bytes.NewReader(data))
		if err != nil {
			return
		}
		if meta.Cells != len(meta.Names) || meta.Cells != len(meta.Keys) {
			t.Fatalf("accepted meta with %d cells, %d names, %d keys", meta.Cells, len(meta.Names), len(meta.Keys))
		}
		_, _ = CheckJournal(meta, events)
		pm := BuildPostmortem(meta, events)
		var md, csv bytes.Buffer
		if err := pm.WriteMarkdown(&md); err != nil {
			t.Fatal(err)
		}
		if err := pm.WriteCSV(&csv); err != nil {
			t.Fatal(err)
		}
	})
}
