package topo

import (
	"math"
	"os"
	"strings"
	"testing"
)

// parseRejects are .topo inputs Parse must refuse, with the message it
// must give. The link lines follow two switches, so they are line 3.
var parseRejects = []struct{ src, err string }{
	{"link a b 10G NaN", `line 3: duration "NaN" is not finite`},
	{"link a b 10G Inf", `line 3: duration "Inf" is not finite`},
	{"link a b 10G -Infms", `line 3: duration "-Infms" is not finite`},
	{"link a b 10G 1e10s", `line 3: duration "1e10s" overflows int64 nanoseconds`},
	{"link a b 10G 9223372036854775807", `line 3: duration "9223372036854775807" overflows int64 nanoseconds`},
	{"link a b 10G 3601s", `line 3: delay "3601s" is over the 1h bound`},
	{"link a b 10G 1e400us", `line 3: bad duration "1e400"`},
	{"link a b 10G -1us", `line 3: duration must be non-negative, got -1`},
	{"link a b NaN", `line 3: bandwidth "NaN" is not finite`},
	{"link a b InfG", `line 3: bandwidth "InfG" is not finite`},
	{"link a b 1e308G", `line 3: bandwidth "1e308G" is not finite`},
	{"link a b 0", `line 3: bandwidth must be positive, got 0`},
	{"link a b fastM", `line 3: bad bandwidth "fast"`},
	{"link a a", `line 3: self loop on "a"`},
}

func TestParseRejects(t *testing.T) {
	for _, c := range parseRejects {
		_, err := Parse(strings.NewReader("node a switch\nnode b switch\n"+c.src), "bad")
		if err == nil || err.Error() != c.err {
			t.Errorf("%q: err = %v, want %q", c.src, err, c.err)
		}
	}
	// The bound itself is a legal delay.
	g, err := Parse(strings.NewReader("node a switch\nnode b switch\nlink a b 10G 3600s"), "max")
	if err != nil || g.Link(0).Delay != maxLinkDelay {
		t.Fatalf("3600s: %v, %v", g, err)
	}
}

// FuzzParse holds every graph Parse accepts to four properties: links
// carry a finite positive bandwidth and a delay within the bound, Format
// then Parse is a fixed point, and MaxSwitchRTT matches the per-switch
// Dijkstra reference and is non-negative, on whichever path it takes.
func FuzzParse(f *testing.F) {
	abilene, err := os.ReadFile("../../examples/paper/abilene_x0.002.topo")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(string(abilene))
	for _, g := range []*Graph{
		Fattree(4, 1),
		LeafSpine(LeafSpineConfig{Leaves: 3, Spines: 2, HostsPerLeaf: 2}),
		RandomConnected(12, 3, 1),
		Abilene(),
		AbileneWithHostsScaled(0, 0.02),
		Fig8Zigzag(),
	} {
		var b strings.Builder
		if err := Format(&b, g); err != nil {
			f.Fatal(err)
		}
		f.Add(b.String())
	}
	for _, c := range parseRejects {
		f.Add("node a switch\nnode b switch\n" + c.src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		g, err := Parse(strings.NewReader(src), "fuzz")
		if err != nil {
			return
		}
		for _, l := range g.Links() {
			if math.IsNaN(l.Bandwidth) || math.IsInf(l.Bandwidth, 0) || l.Bandwidth <= 0 {
				t.Fatalf("link %d: bandwidth %v", l.ID, l.Bandwidth)
			}
			if l.Delay < 0 || l.Delay > maxLinkDelay {
				t.Fatalf("link %d: delay %d ns", l.ID, l.Delay)
			}
		}
		var once, twice strings.Builder
		if err := Format(&once, g); err != nil {
			t.Fatal(err)
		}
		g2, err := Parse(strings.NewReader(once.String()), "fuzz")
		if err != nil {
			t.Fatalf("reparse: %v\n%s", err, once.String())
		}
		if err := Format(&twice, g2); err != nil {
			t.Fatal(err)
		}
		if once.String() != twice.String() {
			t.Fatalf("Format(Parse(Format(g))) differs:\n%s\nvs\n%s", once.String(), twice.String())
		}
		got, want := g.MaxSwitchRTT(), refMaxSwitchRTT(g)
		if got != want || got < 0 {
			t.Fatalf("MaxSwitchRTT = %d, want %d", got, want)
		}
	})
}
