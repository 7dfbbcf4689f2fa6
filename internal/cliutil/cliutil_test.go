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

func TestBuildTopologyErrors(t *testing.T) {
	for _, spec := range []string{"nope", "fattree", "leafspine:3", "random", "@/does/not/exist"} {
		if _, err := BuildTopology(spec); err == nil {
			t.Errorf("%s: expected error", spec)
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
