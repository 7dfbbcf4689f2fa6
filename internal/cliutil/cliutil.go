// Package cliutil holds the small helpers shared by the command-line
// tools: topology specification parsing and text table rendering.
package cliutil

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"text/tabwriter"

	"contra/internal/topo"
)

// specForms maps each generator's name to its spec form, whose colons
// count the fields it takes.
var specForms = map[string]string{
	"abilene": "abilene", "abilene+hosts": "abilene+hosts",
	"dc": "dc", "datacenter": "datacenter",
	"fattree": "fattree:K[:H]", "leafspine": "leafspine:L:S[:H]", "random": "random:N[:SEED]",
}

// BuildTopology resolves a topology spec:
//
//	abilene            the Internet2 backbone (§6.4)
//	abilene+hosts      one host per switch
//	dc                 the paper's data center (32 hosts, §6.3)
//	fattree:K[:H]      k-ary fat-tree, H hosts per edge switch
//	leafspine:L:S[:H]  two-tier Clos
//	random:N[:SEED]    connected random graph, average degree 4
//	@file              the text format parsed by topo.Parse
//
// Every field after the name is an integer, and a generator takes no
// more fields than its form shows: anything else is an error naming
// the spec, never a default size.
func BuildTopology(spec string) (*topo.Graph, error) {
	if strings.HasPrefix(spec, "@") {
		f, err := os.Open(spec[1:])
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return topo.Parse(f, spec[1:])
	}
	parts := strings.Split(spec, ":")
	form, ok := specForms[parts[0]]
	if !ok {
		return nil, fmt.Errorf("unknown topology spec %q", spec)
	}
	if len(parts)-1 > strings.Count(form, ":") {
		return nil, fmt.Errorf("topology %q: too many fields, want %s", spec, form)
	}
	var fields [3]int
	for i, f := range parts[1:] {
		v, err := strconv.Atoi(f)
		if err != nil {
			return nil, fmt.Errorf("topology %q: field %q is not an integer, want %s", spec, f, form)
		}
		fields[i] = v
	}
	atoi := func(i, def int) int {
		if i >= len(parts) {
			return def
		}
		return fields[i-1]
	}
	switch parts[0] {
	case "abilene":
		return topo.Abilene(), nil
	case "abilene+hosts":
		return topo.AbileneWithHosts(0), nil
	case "dc", "datacenter":
		return topo.PaperDataCenter(), nil
	case "fattree":
		if len(parts) < 2 {
			return nil, fmt.Errorf("fattree needs k, e.g. fattree:8")
		}
		k := atoi(1, 4)
		if k < 2 || k%2 != 0 {
			return nil, fmt.Errorf("topology %q: fattree k must be even and at least 2, got %d", spec, k)
		}
		return topo.Fattree(k, atoi(2, 0)), nil
	case "leafspine":
		if len(parts) < 3 {
			return nil, fmt.Errorf("leafspine needs leaves:spines, e.g. leafspine:4:2")
		}
		leaves, spines := atoi(1, 4), atoi(2, 2)
		if leaves < 1 || spines < 1 {
			return nil, fmt.Errorf("topology %q: leafspine needs at least 1 leaf and 1 spine, got %d:%d", spec, leaves, spines)
		}
		return topo.LeafSpine(topo.LeafSpineConfig{
			Leaves: leaves, Spines: spines, HostsPerLeaf: atoi(3, 0),
		}), nil
	case "random":
		if len(parts) < 2 {
			return nil, fmt.Errorf("random needs a size, e.g. random:100")
		}
		// Average degree 4 takes 2n edges, and n(n-1)/2 >= 2n needs n >= 5.
		n := atoi(1, 100)
		if n < 5 {
			return nil, fmt.Errorf("topology %q: random needs at least 5 switches for average degree 4, got %d", spec, n)
		}
		return topo.RandomConnected(n, 4, int64(atoi(2, 1))), nil
	}
	return nil, fmt.Errorf("unknown topology spec %q", spec)
}

// FindLink resolves a link spec "A-B" against a topology. Node names
// may themselves contain dashes, so every split position is tried; the
// first one naming two nodes joined by a link wins.
func FindLink(g *topo.Graph, spec string) (topo.LinkID, error) {
	foundPair := false
	for i := 1; i < len(spec); i++ {
		if spec[i] != '-' {
			continue
		}
		a, ok := g.NodeByName(spec[:i])
		if !ok {
			continue
		}
		b, ok := g.NodeByName(spec[i+1:])
		if !ok {
			continue
		}
		if l := g.LinkBetween(a, b); l != nil {
			return l.ID, nil
		}
		foundPair = true // keep trying: a later split may name a real link
	}
	if foundPair {
		return -1, fmt.Errorf("no link %q in %s", spec, g.Name)
	}
	return -1, fmt.Errorf("bad link spec %q, want A-B with nodes of %s", spec, g.Name)
}

// Table renders rows with aligned columns to stdout.
func Table(header []string, rows [][]string) {
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, strings.Join(header, "\t"))
	for _, r := range rows {
		fmt.Fprintln(w, strings.Join(r, "\t"))
	}
	w.Flush()
}

// ReadPolicyArg resolves a policy argument: literal source, or @file.
func ReadPolicyArg(arg string) (string, error) {
	if strings.HasPrefix(arg, "@") {
		b, err := os.ReadFile(arg[1:])
		if err != nil {
			return "", err
		}
		return string(b), nil
	}
	return arg, nil
}
