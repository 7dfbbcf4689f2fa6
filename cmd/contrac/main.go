// Command contrac is the Contra compiler CLI: it compiles a policy
// against a topology and reports the analysis, per-switch state, and
// (optionally) the generated P4 programs.
//
// Usage:
//
//	contrac -topo abilene -policy 'minimize(path.lat)'
//	contrac -topo fattree:8 -policy @policy.txt -p4 e0_0
//	contrac -topo dc -policy 'minimize(path.util)' -p4-dir out/
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"contra"
	"contra/internal/cliutil"
)

func main() {
	topoSpec := flag.String("topo", "abilene", "topology spec (see internal/cliutil)")
	policyArg := flag.String("policy", "minimize(path.util)", "policy source or @file")
	p4Switch := flag.String("p4", "", "print the generated P4 program for this switch")
	p4Dir := flag.String("p4-dir", "", "write P4 programs for every switch into this directory")
	flag.Parse()

	if err := run(os.Stdout, *topoSpec, *policyArg, *p4Switch, *p4Dir); err != nil {
		fmt.Fprintln(os.Stderr, "contrac:", err)
		os.Exit(1)
	}
}

func run(out io.Writer, topoSpec, policyArg, p4Switch, p4Dir string) error {
	g, err := cliutil.BuildTopology(topoSpec)
	if err != nil {
		return err
	}
	src, err := cliutil.ReadPolicyArg(policyArg)
	if err != nil {
		return err
	}
	prog, err := contra.CompileSource(src, g)
	if err != nil {
		return err
	}
	fmt.Fprint(out, prog.AnalysisReport())
	fmt.Fprint(out, prog.Describe())

	if p4Switch != "" {
		p4, err := prog.P4(p4Switch)
		if err != nil {
			return err
		}
		fmt.Fprintln(out, p4)
	}
	if p4Dir != "" {
		if err := os.MkdirAll(p4Dir, 0o755); err != nil {
			return err
		}
		count := 0
		for _, n := range g.Nodes() {
			if n.Kind != contra.Switch {
				continue
			}
			p4, err := prog.P4(n.Name)
			if err != nil {
				return err
			}
			path := filepath.Join(p4Dir, n.Name+".p4")
			err = cliutil.WriteFileAtomic(path, func(w io.Writer) error {
				_, err := io.WriteString(w, p4)
				return err
			})
			if err != nil {
				return err
			}
			count++
		}
		fmt.Fprintf(out, "wrote %d P4 programs to %s\n", count, p4Dir)
	}
	return nil
}
