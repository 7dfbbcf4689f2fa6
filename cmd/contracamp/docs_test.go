package main

import (
	"flag"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var (
	// fence matches a fenced code block; code an inline code span, which
	// may wrap across lines.
	fence = regexp.MustCompile("(?s)```[^\n]*\n(.*?)```")
	code  = regexp.MustCompile("`([^`]+)`")
	// command matches where a contracamp command line starts (not a
	// go test of its package).
	command = regexp.MustCompile(`(?:go run \./cmd/|(?:^|\s))contracamp(?:\s|$)`)
	// docFlag matches a flag token: a dash, then a letter.
	docFlag = regexp.MustCompile(`(?:^|\s)-([a-z][a-z0-9-]*)`)
)

// contracampFlags returns every -flag a contracamp command passes in a
// snippet: a line of a fenced block or an inline code span.
func contracampFlags(snippet string) []string {
	at := command.FindStringIndex(snippet)
	if at == nil {
		return nil
	}
	var flags []string
	for _, m := range docFlag.FindAllStringSubmatch(snippet[at[1]:], -1) {
		flags = append(flags, m[1])
	}
	return flags
}

// docCommandFlags lists the flags of every contracamp command line in a
// Markdown document.
func docCommandFlags(doc string) []string {
	var flags []string
	for _, m := range fence.FindAllStringSubmatch(doc, -1) {
		for _, line := range strings.Split(m[1], "\n") {
			flags = append(flags, contracampFlags(line)...)
		}
	}
	for _, m := range code.FindAllStringSubmatch(fence.ReplaceAllString(doc, ""), -1) {
		flags = append(flags, contracampFlags(m[1])...)
	}
	return flags
}

// TestDocumentedFlagsExist: every flag a contracamp command line in the
// docs passes is one the command defines, so a retired flag cannot
// linger in a documented command.
func TestDocumentedFlagsExist(t *testing.T) {
	fs := flag.NewFlagSet("contracamp", flag.ContinueOnError)
	defineFlags(fs, &options{})
	docs, err := filepath.Glob("../../docs/*.md")
	if err != nil {
		t.Fatal(err)
	}
	docs = append(docs, "../../README.md", "../../examples/paper/README.md")
	checked := 0
	for _, path := range docs {
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range docCommandFlags(string(b)) {
			checked++
			if fs.Lookup(name) == nil {
				t.Errorf("%s: a contracamp command passes -%s, which contracamp does not define", path, name)
			}
		}
	}
	if checked < 20 {
		t.Fatalf("found %d documented contracamp flags; the doc scan is broken", checked)
	}
}

func TestDocCommandFlags(t *testing.T) {
	doc := "Run `go run ./cmd/contracamp -spec a.json\n-agg-csv -` then\n\n" +
		"```sh\ncontracamp -merge s0.jsonl -notable\nls -la\ngo test ./cmd/contracamp -run TestX\n```\n" +
		"`-merge` alone and `contrac -p4 e0_0` are not contracamp command lines."
	if got, want := strings.Join(docCommandFlags(doc), " "), "merge notable spec agg-csv"; got != want {
		t.Errorf("flags = %q, want %q", got, want)
	}
}
