package policy

import (
	"math/rand"
	"testing"
)

// FuzzParse feeds the lexer and parser arbitrary source, with and
// without a symbol table (which turns on strict names and the ".*XY.*"
// splitting). Nothing may panic, and an accepted policy's printed form
// must parse again, under the same options, to a policy that prints the
// same: String is how policies reach reports, traces and Recompile. An
// accepted policy's lowered program must also rank as Policy.Eval does.
func FuzzParse(f *testing.F) {
	names := []string{"A", "B", "C", "D"}
	for _, p := range Catalog(names) {
		f.Add(p.Src)
	}
	// The §6.2 scalability policies (contra.StandardPolicies).
	f.Add("minimize(path.util)")
	f.Add("minimize(if .* (C + B + D) .* then path.util else inf)")
	f.Add("minimize(if path.util < .8 then (1, 0, path.util) else (2, path.len, path.util))")
	f.Add("minimize(if .*AB.* and not (path.lat >= 1e-3 or C .* D) then path.len * 2 - 1 else ∞)")
	f.Add(Failover(names[:3], names[1:]).Src)

	f.Fuzz(func(t *testing.T, src string) {
		for _, opts := range []ParseOptions{{}, {Symbols: names}} {
			p, err := Parse(src, opts)
			if err != nil {
				continue
			}
			printed := p.String()
			q, err := Parse(printed, opts)
			if err != nil {
				t.Fatalf("accepted %q but not its printed form %q: %v", src, printed, err)
			}
			if q.String() != printed {
				t.Fatalf("%q prints as %q, which reparses to %q", src, printed, q.String())
			}
			checkProgram(t, p, rand.New(rand.NewSource(1)))
		}
	})
}
