package cliutil

import (
	"os"
	"path/filepath"
	"testing"

	"contra/internal/topo"
)

func TestBuildTopologySpecs(t *testing.T) {
	cases := []struct {
		spec     string
		switches int
		hosts    int
	}{
		{"abilene", 11, 0},
		{"abilene+hosts", 11, 11},
		{"dc", 6, 32},
		{"fattree:4", 20, 0},
		{"fattree:4:2", 20, 16},
		{"leafspine:4:2:8", 6, 32},
		{"random:50", 50, 0},
		{"random:50:7", 50, 0},
	}
	for _, c := range cases {
		g, err := BuildTopology(c.spec)
		if err != nil {
			t.Errorf("%s: %v", c.spec, err)
			continue
		}
		if got := len(g.Switches()); got != c.switches {
			t.Errorf("%s: switches = %d, want %d", c.spec, got, c.switches)
		}
		if got := len(g.Hosts()); got != c.hosts {
			t.Errorf("%s: hosts = %d, want %d", c.spec, got, c.hosts)
		}
	}
}

// TestBuildTopologyErrors: a spec means what it says. A name no
// generator has, a field that is not an integer or a field the
// generator does not take is an error naming the spec, never a
// default size.
func TestBuildTopologyErrors(t *testing.T) {
	for _, c := range []struct{ spec, err string }{
		{"nope", `unknown topology spec "nope"`},
		{"nope:4", `unknown topology spec "nope:4"`},
		{"fattree", `fattree needs k, e.g. fattree:8`},
		{"leafspine:3", `leafspine needs leaves:spines, e.g. leafspine:4:2`},
		{"random", `random needs a size, e.g. random:100`},
		{"@/does/not/exist", `open /does/not/exist: no such file or directory`},
		{"fattree:abc", `topology "fattree:abc": field "abc" is not an integer, want fattree:K[:H]`},
		{"fattree:4:", `topology "fattree:4:": field "" is not an integer, want fattree:K[:H]`},
		{"fattree: 4", `topology "fattree: 4": field " 4" is not an integer, want fattree:K[:H]`},
		{"leafspine:4:2:x", `topology "leafspine:4:2:x": field "x" is not an integer, want leafspine:L:S[:H]`},
		{"random:12:s", `topology "random:12:s": field "s" is not an integer, want random:N[:SEED]`},
		{"fattree:4:2:9", `topology "fattree:4:2:9": too many fields, want fattree:K[:H]`},
		{"leafspine:4:2:8:1", `topology "leafspine:4:2:8:1": too many fields, want leafspine:L:S[:H]`},
		{"random:12:2:1", `topology "random:12:2:1": too many fields, want random:N[:SEED]`},
		{"abilene:7", `topology "abilene:7": too many fields, want abilene`},
		{"abilene+hosts:2", `topology "abilene+hosts:2": too many fields, want abilene+hosts`},
		{"dc:1", `topology "dc:1": too many fields, want dc`},
		{"datacenter:1", `topology "datacenter:1": too many fields, want datacenter`},
	} {
		if _, err := BuildTopology(c.spec); err == nil || err.Error() != c.err {
			t.Errorf("%s: err = %v, want %q", c.spec, err, c.err)
		}
	}
}

// TestBuildTopologyBadSizes covers sizes the generators cannot build:
// each used to panic, or for random:2 to random:4, never return.
func TestBuildTopologyBadSizes(t *testing.T) {
	for _, c := range []struct{ spec, err string }{
		{"fattree:0", `topology "fattree:0": fattree k must be even and at least 2, got 0`},
		{"fattree:3", `topology "fattree:3": fattree k must be even and at least 2, got 3`},
		{"fattree:-4:2", `topology "fattree:-4:2": fattree k must be even and at least 2, got -4`},
		{"leafspine:0:0", `topology "leafspine:0:0": leafspine needs at least 1 leaf and 1 spine, got 0:0`},
		{"leafspine:4:0:8", `topology "leafspine:4:0:8": leafspine needs at least 1 leaf and 1 spine, got 4:0`},
		{"random:0", `topology "random:0": random needs at least 5 switches for average degree 4, got 0`},
		{"random:1", `topology "random:1": random needs at least 5 switches for average degree 4, got 1`},
		{"random:2", `topology "random:2": random needs at least 5 switches for average degree 4, got 2`},
		{"random:3:9", `topology "random:3:9": random needs at least 5 switches for average degree 4, got 3`},
		{"random:4", `topology "random:4": random needs at least 5 switches for average degree 4, got 4`},
	} {
		if _, err := BuildTopology(c.spec); err == nil || err.Error() != c.err {
			t.Errorf("%s: err = %v, want %q", c.spec, err, c.err)
		}
	}
	if g, err := BuildTopology("random:5"); err != nil || len(g.Switches()) != 5 {
		t.Errorf("random:5: %v, %v", g, err)
	}
}

func TestBuildTopologyFromFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "tiny.topo")
	src := "node A switch\nnode B switch\nlink A B 10G 1us\n"
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	g, err := BuildTopology("@" + path)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 2 || g.NumLinks() != 1 {
		t.Fatalf("parsed shape wrong: %s", g)
	}
}

func TestReadPolicyArg(t *testing.T) {
	if got, err := ReadPolicyArg("minimize(path.len)"); err != nil || got != "minimize(path.len)" {
		t.Fatalf("literal: %q, %v", got, err)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "p.txt")
	if err := os.WriteFile(path, []byte("minimize(path.util)"), 0o644); err != nil {
		t.Fatal(err)
	}
	if got, err := ReadPolicyArg("@" + path); err != nil || got != "minimize(path.util)" {
		t.Fatalf("file: %q, %v", got, err)
	}
	if _, err := ReadPolicyArg("@/does/not/exist"); err == nil {
		t.Fatal("missing file should error")
	}
}

func TestFindLink(t *testing.T) {
	g := topo.New("t")
	a := g.AddNode("spine-1", topo.Switch)
	b := g.AddNode("leaf-2", topo.Switch)
	c := g.AddNode("leaf-3", topo.Switch)
	want := g.AddLink(a, b, 10e9, 1000)
	g.AddLink(b, c, 10e9, 1000)

	// Dashed node names: every split position is tried.
	id, err := FindLink(g, "spine-1-leaf-2")
	if err != nil || id != want {
		t.Fatalf("FindLink = %v, %v; want %v", id, err, want)
	}
	// Reversed order matches the same undirected link.
	if id, err := FindLink(g, "leaf-2-spine-1"); err != nil || id != want {
		t.Fatalf("reversed FindLink = %v, %v; want %v", id, err, want)
	}
	// Two real nodes without a link is a distinct error.
	if _, err := FindLink(g, "spine-1-leaf-3"); err == nil {
		t.Fatal("unlinked nodes should error")
	}
	if _, err := FindLink(g, "nodash"); err == nil {
		t.Fatal("spec without dash should error")
	}
	if _, err := FindLink(g, "x-y"); err == nil {
		t.Fatal("unknown nodes should error")
	}
}
