package pg

import (
	"fmt"
	"testing"

	"contra/internal/policy"
	"contra/internal/topo"
)

func BenchmarkBuildMU(b *testing.B) {
	for _, k := range []int{4, 10} {
		g := topo.Fattree(k, 0)
		pol := policy.MustParse("minimize(path.util)")
		b.Run(fmt.Sprintf("fattree-k%d", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := Build(g, pol); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkBuildWaypoint(b *testing.B) {
	g := topo.Fattree(10, 0)
	pol := policy.MustParse("minimize(if .* (c0 + c1 + c2) .* then path.util else inf)",
		policy.ParseOptions{Symbols: g.SortedNames()})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Build(g, pol); err != nil {
			b.Fatal(err)
		}
	}
}
