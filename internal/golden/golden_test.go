package golden

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// recorder stands in for the test a pin is checked in, keeping what it
// reports; a Fatal still reaches the real test.
type recorder struct {
	testing.TB
	errs []string
}

func (r *recorder) Helper() {}

func (r *recorder) Errorf(format string, args ...any) {
	r.errs = append(r.errs, fmt.Sprintf(format, args...))
}

// TestCheckAndRepin walks one pin file and one fixture through the
// switch, a step at a time: a wrong value fails naming its key, both
// values and the command; under the switch exactly that entry is
// rewritten and its row printed; a second update run changes nothing;
// a key with no pin fails outside the switch and is added under it.
func TestCheckAndRepin(t *testing.T) {
	dir := t.TempDir()
	pins, fixture := filepath.Join(dir, "golden.txt"), filepath.Join(dir, "cell.jsonl")
	const start = "# owned by a test\na 1\nb 2 ms, 3/4\n"
	if err := os.WriteFile(pins, []byte(start), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(fixture, []byte("x\ny\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	const moved = "# owned by a test\na 1\nb 2 ms, 3/5\n"
	for _, step := range []struct {
		name     string
		repin    bool
		key, got string // key "" checks the fixture
		file     string // the file after the step
		row      string
		errs     []string // wanted in the one failure, if any
	}{
		{"match", false, "b", "2 ms, 3/4", start, "", nil},
		{"moved", false, "b", "2 ms, 3/5", start, "",
			[]string{pins + " b: got 2 ms, 3/5, pinned 2 ms, 3/4", Command}},
		{"moved, re-pinned", true, "b", "2 ms, 3/5", moved, "| " + pins + " b | 2 ms, 3/4 | 2 ms, 3/5 |\n",
			[]string{"re-pinned", "again"}},
		{"second update run", true, "b", "2 ms, 3/5", moved, "", nil},
		{"after the re-pin", false, "b", "2 ms, 3/5", moved, "", nil},
		{"not pinned", false, "c", "4", moved, "", []string{pins + " c: not pinned (got 4)", Command}},
		{"not pinned, added", true, "c", "4", moved + "c 4\n", "| " + pins + " c |  | 4 |\n", []string{"re-pinned"}},
		{"fixture matches", false, "", "x\ny\n", "x\ny\n", "", nil},
		{"fixture moved", false, "", "x\nz\n", "x\ny\n", "",
			[]string{fixture + ": got " + describe([]byte("x\nz\n")) + ", pinned " + describe([]byte("x\ny\n")), Command}},
		{"fixture re-pinned", true, "", "x\nz\n", "x\nz\n",
			"| " + fixture + " | " + describe([]byte("x\ny\n")) + " | " + describe([]byte("x\nz\n")) + " |\n", []string{"re-pinned"}},
		{"fixture second update run", true, "", "x\nz\n", "x\nz\n", "", nil},
	} {
		if step.repin {
			t.Setenv(Env, "1")
		} else {
			t.Setenv(Env, "")
		}
		var rows bytes.Buffer
		stdout = &rows
		r := &recorder{TB: t}
		path := pins
		if step.key == "" {
			path = fixture
			Fixture(r, path, []byte(step.got))
		} else {
			Check(r, path, step.key, step.got)
		}
		stdout = os.Stdout
		if b, err := os.ReadFile(path); err != nil || string(b) != step.file {
			t.Errorf("%s: file reads %q (%v), want %q", step.name, b, err, step.file)
		}
		if rows.String() != step.row {
			t.Errorf("%s: printed %q, want %q", step.name, rows.String(), step.row)
		}
		if len(r.errs) != min(len(step.errs), 1) {
			t.Errorf("%s: failures %q, want one naming %q", step.name, r.errs, step.errs)
			continue
		}
		for _, want := range step.errs {
			if !strings.Contains(r.errs[0], want) {
				t.Errorf("%s: failure %q does not name %q", step.name, r.errs[0], want)
			}
		}
	}
}
