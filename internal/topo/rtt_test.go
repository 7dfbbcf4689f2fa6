package topo

import (
	"fmt"
	"math/rand"
	"testing"
)

// chainGraph joins n switches in one chain of delay-d links, in ID
// order.
func chainGraph(n int, d int64) *Graph {
	g := New(fmt.Sprintf("chain-%d", n))
	for i := 0; i < n; i++ {
		g.AddNode(fmt.Sprintf("s%d", i), Switch)
	}
	for i := 1; i < n; i++ {
		g.AddLink(NodeID(i-1), NodeID(i), DefaultFabricBW, d)
	}
	return g
}

// rttGraph builds n switches with a host between the first two IDs,
// joined by delay-d links into one chain that ends on the switches at
// index min(end, n-2) and n-1. With end 63 or 64, and n-1 = 127 or
// 129, both ends sit on a BFS batch's edge, where a batch bound off by
// one would drop both. Around the chain it puts what the RTT bound must
// ignore, each with a delay other than d: a down link joining the two
// ends, a host hanging off one end, and a host homed on both ends, so
// a BFS through a down link or a host finds a shorter diameter or a
// longer one. The first chain hop has a parallel link. With chords,
// up links of delay d join random switch pairs.
func rttGraph(n, end int, d int64, chords int, rng *rand.Rand) *Graph {
	g := New(fmt.Sprintf("rtt-%d", n))
	sw := make([]NodeID, n)
	for i := range sw {
		if i == 1 {
			g.AddNode("h0", Host)
		}
		sw[i] = g.AddNode(fmt.Sprintf("s%d", i), Switch)
	}
	last := min(end, n-2)
	order := []NodeID{sw[n-1]}
	for i := 0; i < n-1; i++ {
		if i != last {
			order = append(order, sw[i])
		}
	}
	order = append(order, sw[last])
	for i := 1; i < len(order); i++ {
		g.AddLink(order[i-1], order[i], DefaultFabricBW, d)
	}
	g.AddLink(order[0], order[1], DefaultFabricBW, d)
	down := g.AddLink(order[0], order[n-1], DefaultFabricBW, 5*d)
	g.SetDown(down, true)
	g.AddLink(order[0], g.MustNode("h0"), DefaultHostBW, 3*d)
	h1 := g.AddNode("h1", Host)
	g.AddLink(h1, order[0], DefaultHostBW, 2*d)
	g.AddLink(h1, order[n-1], DefaultHostBW, 2*d)
	for i := 0; i < chords; i++ {
		a, b := sw[rng.Intn(n)], sw[rng.Intn(n)]
		if a != b {
			g.AddLink(a, b, DefaultFabricBW, d)
		}
	}
	return g
}

// TestMaxSwitchRTTMatchesReference holds both paths of MaxSwitchRTT to
// the per-switch Dijkstra of refMaxSwitchRTT, at switch counts on
// either side of the 64-source batch boundaries: on chains ending on
// either side of the first boundary, whose answer is known; on a chain
// with random chords; and with one chain link's delay changed, which
// must take the Dijkstra path.
func TestMaxSwitchRTTMatchesReference(t *testing.T) {
	const d = 7
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{8, 63, 64, 65, 127, 128, 129, 130} {
		mixed := rttGraph(n, 63, d, 0, rng)
		mixed.links[n/2].Delay = d + 1 // a chain hop, before any query built a snapshot
		chain := 2 * d * int64(n-1)
		for _, c := range []struct {
			name    string
			g       *Graph
			uniform bool
			known   int64 // the answer, where it is known; else 0
		}{
			{"chain-63", rttGraph(n, 63, d, 0, rng), true, chain},
			{"chain-64", rttGraph(n, 64, d, 0, rng), true, chain},
			{"chords", rttGraph(n, 63, d, n/4, rng), true, 0},
			{"mixed", mixed, false, 0},
		} {
			got, want := c.g.MaxSwitchRTT(), refMaxSwitchRTT(c.g)
			if got != want {
				t.Errorf("n=%d %s: MaxSwitchRTT = %d, want %d", n, c.name, got, want)
			}
			if c.known != 0 && got != c.known {
				t.Errorf("n=%d %s: MaxSwitchRTT = %d, want %d", n, c.name, got, c.known)
			}
			if uniform := c.g.snapshot().swDelay >= 0; uniform != c.uniform {
				t.Errorf("n=%d %s: shared delay %d, want uniform = %v", n, c.name, c.g.snapshot().swDelay, c.uniform)
			}
		}
	}
}

var rttSink int64

// BenchmarkMaxSwitchRTT times one computation of the bound on a built
// snapshot: the fat-trees and the chain take the BFS path, Abilene the
// Dijkstra path.
func BenchmarkMaxSwitchRTT(b *testing.B) {
	for _, c := range []struct {
		name string
		g    *Graph
	}{
		{"fattree-k8", Fattree(8, 0)},
		{"fattree-k16", Fattree(16, 0)},
		{"fattree-k32", Fattree(32, 0)},
		{"chain-2000", chainGraph(2000, DCDelay)},
		{"abilene", Abilene()},
	} {
		b.Run(c.name, func(b *testing.B) {
			sn := c.g.snapshot()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rttSink = sn.switchRTT(c.g)
			}
		})
	}
}
