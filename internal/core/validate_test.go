package core

import (
	"math/rand"
	"testing"

	"contra/internal/policy"
	"contra/internal/topo"
)

func TestValidateEveryCatalogPolicyOnEveryTestTopology(t *testing.T) {
	topos := []*topo.Graph{
		topo.Fig4Square(), topo.Fig5Diamond(), topo.Fig6(), topo.Fig8Zigzag(),
		topo.Abilene(), topo.Fattree(4, 0), topo.PaperDataCenter(),
	}
	for _, g := range topos {
		// The catalog instantiates link policies (P6/P7) over the
		// first two names, which must be adjacent switches.
		var names []string
		for _, l := range g.Links() {
			a, b := g.Node(l.A), g.Node(l.B)
			if a.Kind == topo.Switch && b.Kind == topo.Switch {
				names = append(names, a.Name, b.Name)
				break
			}
		}
		for _, n := range g.SortedNames() {
			if n != names[0] && n != names[1] {
				names = append(names, n)
			}
		}
		for name, pol := range policy.Catalog(names) {
			c, err := Compile(g, pol, Options{})
			if err != nil {
				t.Errorf("%s on %s: compile: %v", name, g.Name, err)
				continue
			}
			if err := c.Validate(); err != nil {
				t.Errorf("%s on %s: %v", name, g.Name, err)
			}
			if c.PG.NumEdges() == 0 {
				t.Errorf("%s on %s: empty product graph", name, g.Name)
			}
		}
	}
}

func TestValidateRandomized(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 12; trial++ {
		g := topo.RandomConnected(8+rng.Intn(24), 3.5, int64(trial))
		names := g.SortedNames()
		a := names[rng.Intn(len(names))]
		b := names[rng.Intn(len(names))]
		policies := []string{
			"minimize(path.util)",
			"minimize((path.len, path.util))",
			"minimize(if .* " + a + " .* then path.util else inf)",
			"minimize(if " + a + " .* " + b + " then 0 else if .* then path.len else inf)",
		}
		for _, src := range policies {
			pol, err := policy.Parse(src, policy.ParseOptions{Symbols: names})
			if err != nil {
				t.Fatalf("parse %q: %v", src, err)
			}
			c, err := Compile(g, pol, Options{})
			if err != nil {
				t.Fatalf("compile %q on %s: %v", src, g.Name, err)
			}
			if err := c.Validate(); err != nil {
				t.Fatalf("validate %q on %s: %v", src, g.Name, err)
			}
		}
	}
}
