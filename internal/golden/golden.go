// Package golden keeps the values tests pin from simulator output, and
// re-pins them all under one switch.
//
// A pin file is text beside the test that owns it, one pin per line: a
// key, one space, and the value as the test prints it, to the end of
// the line. A key is one word. Blank lines and lines starting with # are
// comments. A fixture is a whole file pinned byte for byte.
//
// A value that differs from its pin fails the test, naming the key, both
// values and the re-pin command. With the switch set (Command), the
// value is written into the pin instead, one Markdown row
//
//	| key | old | new |
//
// is printed for it, and the test still fails, so that go test shows
// the rows; a second run passes when nothing moves any more.
package golden

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// Env is the switch: any non-empty value re-pins what moved. It is an
// environment variable, not a flag, so that one go test reaches every
// package.
const Env = "CONTRA_REPIN"

// Command re-pins every value in the module.
const Command = Env + "=1 go test ./..."

// stdout receives the rows of re-pinned values.
var stdout io.Writer = os.Stdout

// mu serialises reading and rewriting pin files within one test binary.
var mu sync.Mutex

// Check holds got to the value pinned under key in the pin file at path.
func Check(t testing.TB, path, key, got string) {
	t.Helper()
	if key == "" || strings.ContainsAny(key, " \t\n") || key[0] == '#' || strings.Contains(got, "\n") {
		t.Fatalf("golden: cannot pin %q = %q: a key is one word, a value one line", key, got)
	}
	mu.Lock()
	defer mu.Unlock()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(string(b), "\n")
	at, want := -1, ""
	for i, line := range lines {
		line = strings.TrimSuffix(line, "\n")
		if k, v, _ := strings.Cut(line, " "); k == key {
			if at >= 0 {
				t.Fatalf("%s: key %s pinned twice", path, key)
			}
			at, want = i, v
		}
	}
	if at >= 0 && got == want {
		return
	}
	name := display(path) + " " + key
	if os.Getenv(Env) == "" {
		if at < 0 {
			t.Errorf("%s: not pinned (got %s); pin it with %s", name, got, Command)
		} else {
			t.Errorf("%s: got %s, pinned %s; if the change is intended, re-pin with %s", name, got, want, Command)
		}
		return
	}
	pinned := key + " " + got + "\n"
	if at >= 0 {
		lines[at] = pinned
	} else {
		if n := len(lines) - 1; lines[n] != "" && !strings.HasSuffix(lines[n], "\n") {
			lines[n] += "\n"
		}
		lines = append(lines, pinned)
	}
	repin(t, path, []byte(strings.Join(lines, "")), name, want, got)
}

// Fixture holds got to the file at path, byte for byte.
func Fixture(t testing.TB, path string, got []byte) {
	t.Helper()
	mu.Lock()
	defer mu.Unlock()
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got, want) {
		return
	}
	name, old, now := display(path), describe(want), describe(got)
	if os.Getenv(Env) == "" {
		t.Errorf("%s: got %s, pinned %s; if the change is intended, re-pin with %s", name, now, old, Command)
		return
	}
	repin(t, path, got, name, old, now)
}

// repin writes content to path, prints the row of the value that moved,
// and fails t so that go test shows the row.
func repin(t testing.TB, path string, content []byte, name, old, now string) {
	t.Helper()
	if err := os.WriteFile(path, content, 0o644); err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(stdout, "| %s | %s | %s |\n", name, old, now)
	t.Errorf("%s: re-pinned %s -> %s; run %s again until nothing moves", name, old, now, Command)
}

// describe is a fixture's value in a row or a message.
func describe(b []byte) string {
	return fmt.Sprintf("%d bytes, sha256 %.8x", len(b), sha256.Sum256(b))
}

// display names path from the module root, where the re-pin command
// runs, or as given when no go.mod is found above it.
func display(path string) string {
	abs, err := filepath.Abs(path)
	if err != nil {
		return path
	}
	for dir := filepath.Dir(abs); ; dir = filepath.Dir(dir) {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			if rel, err := filepath.Rel(dir, abs); err == nil {
				return filepath.ToSlash(rel)
			}
			return path
		}
		if dir == filepath.Dir(dir) {
			return path
		}
	}
}
