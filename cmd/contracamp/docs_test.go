package main

import (
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
	// docFlag matches a flag argument: a dash, then a letter.
	docFlag = regexp.MustCompile(`^-([a-z][a-z0-9-]*)`)
)

// docCommand is one documented contracamp command line: the word after
// contracamp, which should name a subcommand, and the flags after it.
type docCommand struct {
	sub   string
	flags []string
}

// commandIn finds the contracamp command line in a snippet: a line of a
// fenced block or an inline code span. A bare mention of contracamp,
// with nothing after it, is not a command line.
func commandIn(snippet string) (docCommand, bool) {
	at := command.FindStringIndex(snippet)
	if at == nil {
		return docCommand{}, false
	}
	args := strings.Fields(snippet[at[1]:])
	if len(args) == 0 {
		return docCommand{}, false
	}
	c := docCommand{sub: args[0]}
	for _, arg := range args[1:] {
		if m := docFlag.FindStringSubmatch(arg); m != nil {
			c.flags = append(c.flags, m[1])
		}
	}
	return c, true
}

// docCommands lists every contracamp command line in a Markdown
// document.
func docCommands(doc string) []docCommand {
	var snippets []string
	for _, m := range fence.FindAllStringSubmatch(doc, -1) {
		snippets = append(snippets, strings.Split(m[1], "\n")...)
	}
	for _, m := range code.FindAllStringSubmatch(fence.ReplaceAllString(doc, ""), -1) {
		snippets = append(snippets, m[1])
	}
	var cmds []docCommand
	for _, s := range snippets {
		if c, ok := commandIn(s); ok {
			cmds = append(cmds, c)
		}
	}
	return cmds
}

// TestDocumentedFlagsExist: every contracamp command line in the docs
// names a subcommand, and every flag it passes is one that subcommand
// defines, so neither a retired flag nor the retired mode flags can
// linger in a documented command.
func TestDocumentedFlagsExist(t *testing.T) {
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
		for _, c := range docCommands(string(b)) {
			fs := flagSet(c.sub, &options{})
			if fs == nil {
				t.Errorf("%s: a contracamp command line starts with %q, not a subcommand (run, merge or check)", path, c.sub)
				continue
			}
			for _, name := range c.flags {
				checked++
				if fs.Lookup(name) == nil {
					t.Errorf("%s: a contracamp %s command passes -%s, which %s does not define", path, c.sub, name, c.sub)
				}
			}
		}
	}
	if checked < 20 {
		t.Fatalf("found %d documented contracamp flags; the doc scan is broken", checked)
	}
}

func TestDocCommandFlags(t *testing.T) {
	doc := "Run `go run ./cmd/contracamp run -spec a.json\n-agg-csv -` then\n\n" +
		"```sh\ncontracamp merge -notable s0.jsonl\nls -la\ngo test ./cmd/contracamp -run TestX\ncontracamp -spec old.json -q\n```\n" +
		"`-merge` alone, `contracamp` alone and `contrac -p4 e0_0` are not contracamp command lines."
	var got []string
	for _, c := range docCommands(doc) {
		got = append(got, c.sub+":"+strings.Join(c.flags, ","))
	}
	if got, want := strings.Join(got, " "), "merge:notable -spec:q run:spec,agg-csv"; got != want {
		t.Errorf("commands = %q, want %q", got, want)
	}
}
