package jsonl

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// collect scans r and returns "N:line" per callback; a line equal
// to "bad" makes the callback fail.
func collect(r io.Reader, tol Tolerance) (got []string, torn bool, err error) {
	torn, err = Scan(r, tol, func(line int, raw []byte) error {
		if string(raw) == "bad" {
			return errors.New("boom")
		}
		got = append(got, fmt.Sprintf("%d:%s", line, raw))
		return nil
	})
	return got, torn, err
}

func TestScanFraming(t *testing.T) {
	long := strings.Repeat("x", 200<<10) // three times Scan's read buffer
	cases := []struct {
		name, input string
		tol         Tolerance
		want        string
		torn        bool
		err         string
	}{
		{name: "empty", input: ""},
		{name: "numbering counts blank lines", input: "a\n\n  \r\nb\r\n", want: "1:a 4:b"},
		{name: "unterminated last line is a line", input: "a\nb", want: "1:a 2:b"},
		{name: "long line arrives whole", input: "a\n" + long + "\nb\n", want: "1:a 2:" + long + " 3:b"},
		{name: "strict: error names the line", input: "a\n\nbad\nb\n", want: "1:a", err: "line 3: boom"},
		{name: "strict: a bad unterminated tail is an error", input: "a\nbad", want: "1:a", err: "line 2: boom"},
		{name: "torn: a bad unterminated tail is dropped", input: "a\nbad", tol: TornTail, want: "1:a", torn: true},
		{name: "torn: a good unterminated tail is kept", input: "a\nb", tol: TornTail, want: "1:a 2:b"},
		{name: "torn: a bad terminated tail is an error", input: "a\nbad\n", tol: TornTail, want: "1:a", err: "line 2: boom"},
		{name: "torn: a bad inner line is an error", input: "bad\nb", tol: TornTail, err: "line 1: boom"},
	}
	for _, tc := range cases {
		got, torn, err := collect(strings.NewReader(tc.input), tc.tol)
		if strings.Join(got, " ") != tc.want || torn != tc.torn {
			t.Errorf("%s: lines %.60q torn=%v, want %.60q torn=%v", tc.name, got, torn, tc.want, tc.torn)
		}
		if (err == nil) != (tc.err == "") || (err != nil && err.Error() != tc.err) {
			t.Errorf("%s: err %v, want %q", tc.name, err, tc.err)
		}
	}
}

// zeros is an endless line: no newline ever arrives.
type zeros struct{}

func (zeros) Read(p []byte) (int, error) { clear(p); return len(p), nil }

func TestScanBoundsALine(t *testing.T) {
	if testing.Short() {
		t.Skip("buffers MaxLine bytes")
	}
	_, err := Scan(zeros{}, TornTail, func(int, []byte) error { return nil })
	if !errors.Is(err, bufio.ErrTooLong) || !strings.HasPrefix(err.Error(), "line 1: ") {
		t.Fatalf("endless line: err %v, want the line bound at line 1", err)
	}
}

func TestScanReportsReadErrors(t *testing.T) {
	// The fragment before the failure is offered as a final line; even
	// when TornTail lets it go, the failure is what comes back.
	for _, frag := range []string{"b", "bad"} {
		r := io.MultiReader(strings.NewReader("a\n"+frag), iotestErr{})
		got, torn, err := collect(r, TornTail)
		if err == nil || !strings.Contains(err.Error(), "disk on fire") || torn || got[0] != "1:a" {
			t.Fatalf("read error after %q: lines %q torn=%v err=%v, want the read error", frag, got, torn, err)
		}
	}
}

type iotestErr struct{}

func (iotestErr) Read([]byte) (int, error) { return 0, errors.New("disk on fire") }

func TestType(t *testing.T) {
	if typ, err := Type([]byte(`{"type":"meta","v":3,"x":[1,2]}`)); typ != "meta" || err != nil {
		t.Fatalf("Type = %q, %v", typ, err)
	}
	if typ, err := Type([]byte(`{"key":"k"}`)); typ != "" || err != nil {
		t.Fatalf("Type of an untyped line = %q, %v, want none", typ, err)
	}
	if _, err := Type([]byte(`[1]`)); err == nil {
		t.Fatal("Type accepted a line that is not an object")
	}
}

func TestCanonical(t *testing.T) {
	type inner struct {
		N int `json:"n"`
	}
	type line struct {
		Type string   `json:"type"`
		T    int64    `json:"t"`
		U    float64  `json:"u"`
		Opt  string   `json:"opt,omitempty"`
		Tab  []string `json:"tab"`
		In   *inner   `json:"in,omitempty"`
		Era  uint8    `json:"era"`
	}
	good := []string{
		`{"type":"x","t":5,"u":0.25,"tab":["a-\u003eb"],"era":255}`,
		`{"type":"x","t":0,"u":1e-7,"opt":"o","tab":[],"in":{"n":0},"era":0}`,
		`{"type":"","t":-1,"u":0,"tab":null,"era":0}`,
	}
	for _, in := range good {
		var l line
		if err := Canonical([]byte(in), &l); err != nil {
			t.Errorf("%s: %v", in, err)
		}
	}
	bad := map[string]string{
		"missing field":        `{"type":"x","u":0.25,"tab":[],"era":0}`,
		"unknown field":        `{"type":"x","t":5,"u":0.25,"tab":[],"era":0,"extra":1}`,
		"renamed field":        `{"type":"x","ts":5,"u":0.25,"tab":[],"era":0}`,
		"reordered fields":     `{"t":5,"type":"x","u":0.25,"tab":[],"era":0}`,
		"repeated field":       `{"type":"x","t":5,"t":5,"u":0.25,"tab":[],"era":0}`,
		"key in another case":  `{"Type":"x","t":5,"u":0.25,"tab":[],"era":0}`,
		"omitempty key at 0":   `{"type":"x","t":5,"u":0.25,"opt":"","tab":[],"era":0}`,
		"number respelt":       `{"type":"x","t":5,"u":2.5e-1,"tab":[],"era":0}`,
		"out of the type":      `{"type":"x","t":5,"u":0.25,"tab":[],"era":256}`,
		"wrong type":           `{"type":"x","t":"5","u":0.25,"tab":[],"era":0}`,
		"white space":          `{"type":"x", "t":5,"u":0.25,"tab":[],"era":0}`,
		"unescaped html":       `{"type":"x","t":5,"u":0.25,"tab":["a->b"],"era":0}`,
		"trailing data":        `{"type":"x","t":5,"u":0.25,"tab":[],"era":0} {}`,
		"truncated":            `{"type":"x","t":5,"u":0.25,"tab":[],"era"`,
		"null for a struct":    `null`,
		"invalid utf-8 string": "{\"type\":\"\xff\",\"t\":5,\"u\":0.25,\"tab\":[],\"era\":0}",
	}
	for name, in := range bad {
		var l line
		if err := Canonical([]byte(in), &l); err == nil {
			t.Errorf("%s accepted: %s", name, in)
		}
	}
}

// chunks records every Write it receives.
type chunks struct {
	writes []string
	fail   error
	closed int
}

func (c *chunks) Write(p []byte) (int, error) {
	if c.fail != nil {
		return len(p) / 2, c.fail
	}
	c.writes = append(c.writes, string(p))
	return len(p), nil
}

func (c *chunks) Close() error { c.closed++; return nil }

func TestAppenderOneWritePerLineAndLatch(t *testing.T) {
	w := &chunks{}
	a := NewAppender(w)
	for _, l := range []string{`{"a":1}`, "", `k#0123`} {
		if err := a.Append([]byte(l)); err != nil {
			t.Fatal(err)
		}
	}
	if want := []string{"{\"a\":1}\n", "\n", "k#0123\n"}; fmt.Sprint(w.writes) != fmt.Sprint(want) {
		t.Fatalf("writes %q, want one per line: %q", w.writes, want)
	}
	w.fail = errors.New("no space")
	if err := a.Append([]byte("x")); !errors.Is(err, w.fail) {
		t.Fatalf("failed write returned %v", err)
	}
	// The device recovers; the appender must not write after a fragment.
	w.fail = nil
	if err := a.Append([]byte("y")); err == nil || len(w.writes) != 3 {
		t.Fatalf("append after a failed write: err %v, %d writes; want the latched error and no write", err, len(w.writes))
	}
	if err := a.Close(); err == nil || w.closed != 1 {
		t.Fatalf("Close = %v after %d close(s), want the latched error and the writer closed", err, w.closed)
	}
	if err := NewAppender(&bytes.Buffer{}).Close(); err != nil {
		t.Fatalf("closing over a plain writer: %v", err)
	}
}

func TestSeal(t *testing.T) {
	big := strings.Repeat("y", 150<<10) // the newline sits two chunks back
	cases := map[string]string{
		"":               "",
		"a\nb\n":         "a\nb\n",
		"a\nb\nto":       "a\nb\n",
		"torn":           "",
		"a\n" + big:      "a\n",
		big + "\n" + big: big + "\n",
	}
	for in, want := range cases {
		path := filepath.Join(t.TempDir(), "f")
		if err := os.WriteFile(path, []byte(in), 0o644); err != nil {
			t.Fatal(err)
		}
		f, err := os.OpenFile(path, os.O_RDWR|os.O_APPEND, 0)
		if err != nil {
			t.Fatal(err)
		}
		if err := Seal(f); err != nil {
			t.Fatal(err)
		}
		if _, err := f.WriteString("next\n"); err != nil {
			t.Fatal(err)
		}
		f.Close()
		got, _ := os.ReadFile(path)
		if string(got) != want+"next\n" {
			t.Errorf("Seal(%.20q…) then append = %.40q…, want %.40q…", in, got, want+"next\n")
		}
	}
}
