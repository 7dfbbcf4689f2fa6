package sim

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"contra/internal/stats"
	"contra/internal/topo"
)

// Calibration of the transport against closed forms on the line
// H0 - S0 - S1 - H1: a single flow on an idle path, long flows sharing
// one bottleneck, and one-packet Poisson flows queueing at one link.

// lineHop is one hop of the data direction H0 → S0 → S1 → H1 as its
// channel sees it: bytes per ns and one-way propagation delay.
type lineHop struct {
	bytesPerNs float64
	delayNs    int64
}

func lineHops(g *topo.Graph) []lineHop {
	names := []string{"H0", "S0", "S1", "H1"}
	hops := make([]lineHop, len(names)-1)
	for i := range hops {
		l := g.LinkBetween(g.MustNode(names[i]), g.MustNode(names[i+1]))
		hops[i] = lineHop{bytesPerNs: l.Bandwidth / 8 / 1e9, delayNs: l.Delay}
	}
	return hops
}

// serialise is a channel's transmission time for a frame: whole ns,
// at least one.
func (h lineHop) serialise(frame int64) int64 {
	return max(int64(float64(frame)/h.bytesPerNs), 1)
}

// idleLineFCT is the closed form of one flow of size bytes started at 0
// on an idle line. The flow is MSS payloads, the last one short, each
// framed with FrameHeader. Frame i may leave H0 at once if i < initCwnd;
// otherwise it waits for the ACK of frame (i-initCwnd)/2, since every
// in-order ACK slides the window by one frame and slow start widens it
// by one more. Each hop is store-and-forward: a frame starts serialising
// once it has arrived and the frame before it has left, and arrives at
// the next node a propagation delay after its last bit. The receiver
// ACKs every frame at once, and an ACK crosses the idle reverse
// direction in serialisation plus delay per hop. The flow completes when
// its last frame arrives. With window false the window is taken to never
// bind, which is the bound the closed form must not beat.
func idleLineFCT(hops []lineHop, size int64, window bool) int64 {
	npkts := max((size+MSS-1)/MSS, 1)
	var ackTrip int64
	for _, h := range hops {
		ackTrip += h.serialise(AckSize) + h.delayNs
	}
	arrive := make([]int64, npkts)
	busy := make([]int64, len(hops))
	for i := range arrive {
		frame := min(int64(MSS), size-int64(i)*MSS) + FrameHeader
		var t int64
		if window && i >= initCwnd {
			t = arrive[(i-initCwnd)/2] + ackTrip
		}
		for h, hop := range hops {
			t = max(t, busy[h]) + hop.serialise(frame)
			busy[h] = t
			t += hop.delayNs
		}
		arrive[i] = t
	}
	return arrive[npkts-1]
}

// TestIdleFlowMatchesClosedForm runs one flow of 1 MSS, 10 kB, 100 kB
// and 1 MB on an idle line and requires its FCT to equal idleLineFCT to
// the nanosecond: at 10 Gb/s throughout, behind a 1 Gb/s fabric link,
// and behind a 200 µs fabric link, where the round trip is longer than
// the initial window takes to send and slow start's ACK clock sets the
// pace.
func TestIdleFlowMatchesClosedForm(t *testing.T) {
	windowBound := false
	for _, tc := range []struct {
		name string
		g    *topo.Graph
	}{
		{"10G", lineTopo(10e9)},
		{"1G fabric", lineTopo(1e9)},
		{"200us fabric", lineTopoDelay(10e9, 200_000)},
	} {
		hops := lineHops(tc.g)
		for _, size := range []int64{MSS, 10_000, 100_000, 1_000_000} {
			e := NewEngine()
			n := NewNetwork(e, tc.g, Config{})
			for _, s := range tc.g.Switches() {
				n.SetRouter(s, &hopRouter{})
			}
			fct := int64(-1)
			n.FlowDone = func(_ FlowSpec, ns int64) { fct = ns }
			n.Start()
			n.StartFlows([]FlowSpec{{ID: 1, Src: tc.g.MustNode("H0"), Dst: tc.g.MustNode("H1"), Size: size}})
			e.Run(1e9)

			want, free := idleLineFCT(hops, size, true), idleLineFCT(hops, size, false)
			if fct != want {
				t.Errorf("%s, %d bytes: FCT %d ns, closed form %d ns (%d ns if the window never bound)", tc.name, size, fct, want, free)
			}
			if tot := n.Totals(); tot.RTOs != 0 || tot.FastRetx != 0 || n.DataPkts != (size+MSS-1)/MSS {
				t.Errorf("%s, %d bytes: %d RTOs, %d fast retransmits, %d data packets: the path was not clean",
					tc.name, size, tot.RTOs, tot.FastRetx, n.DataPkts)
			}
			windowBound = windowBound || want > free
		}
	}
	if !windowBound {
		t.Fatal("no case waited on the window: the ACK clock went untested")
	}
}

// TestBottleneckShare runs long flows from H0 to H1 across the line's
// 1 Gb/s fabric link and measures, over a window after slow start has
// overshot and recovered, the frames the receiver gets for the first
// time (a go-back-N resend of a delivered frame does not count): one
// flow must carry at least 95 % of the link rate, and four together at
// least 95 % with a Jain index of at least 0.95 over their shares.
func TestBottleneckShare(t *testing.T) {
	const (
		rate            = 1e9
		warmNs, measure = 200_000_000, 800_000_000
	)
	for _, flows := range []int{1, 4} {
		g := lineTopo(rate)
		e := NewEngine()
		n := NewNetwork(e, g, Config{})
		for _, s := range g.Switches() {
			n.SetRouter(s, &hopRouter{})
		}
		got := make([]float64, flows)
		seen := make([][]bool, flows) // by flow and sequence number
		for i := range seen {
			seen[i] = make([]bool, (1<<30)/MSS+1)
		}
		n.OnHostRx = func(p *Packet) {
			f := p.FlowID - 1
			if now := e.Now(); !seen[f][p.Seq] && now > warmNs && now <= warmNs+measure {
				got[f] += float64(p.Size) * 8
			}
			seen[f][p.Seq] = true
		}
		n.Start()
		specs := make([]FlowSpec, flows)
		for i := range specs {
			specs[i] = FlowSpec{ID: uint64(i + 1), Src: g.MustNode("H0"), Dst: g.MustNode("H1"), Size: 1 << 30, Start: int64(i) * 1000}
		}
		n.StartFlows(specs)
		e.Run(warmNs + measure)

		var sum float64
		shares := make([]string, flows)
		for i, bits := range got {
			sum += bits
			shares[i] = fmt.Sprintf("%.3f", bits/(rate*measure/1e9))
		}
		util, jain := sum/(rate*measure/1e9), stats.Jain(got)
		t.Logf("%d flow(s): %.4f of the link, shares %v, Jain %.4f, %d RTOs, %d fast retransmits, %d queue drops",
			flows, util, shares, jain, n.Totals().RTOs, n.Totals().FastRetx, n.Totals().Drops[DropQueue])
		if util < 0.95 {
			t.Errorf("%d flow(s) carry %.4f of the bottleneck, want >= 0.95", flows, util)
		}
		if flows > 1 && jain < 0.95 {
			t.Errorf("%d flows share the bottleneck with Jain %.4f (shares %v), want >= 0.95", flows, jain, shares)
		}
	}
}

// TestPoissonQueueMatchesMD1 sends one-MSS flows from H0 to H1 with
// Poisson arrivals at load rho on the 10 Gb/s line. Every hop serialises
// a frame in the same S ns, so the only queue is H0's own link, which
// sees Poisson arrivals and deterministic service: an M/D/1 queue. A
// flow's queueing delay is its FCT less the idle closed form, and their
// mean must fall within a batch-means 95 % interval of the
// Pollaczek-Khinchine wait rho*S / (2(1-rho)).
func TestPoissonQueueMatchesMD1(t *testing.T) {
	const (
		flows   = 60_000
		batches = 20    // after a first batch dropped as warm-up
		t95     = 2.093 // Student t, 0.975 quantile, batches-1 degrees of freedom
	)
	g := lineTopo(10e9)
	hops := lineHops(g)
	service := hops[0].serialise(MSS + FrameHeader)
	idle := idleLineFCT(hops, MSS, true)
	for _, rho := range []float64{0.3, 0.6, 0.8} {
		e := NewEngine()
		n := NewNetwork(e, g, Config{})
		for _, s := range g.Switches() {
			n.SetRouter(s, &hopRouter{})
		}
		wait := make([]float64, flows)
		n.FlowDone = func(f FlowSpec, fct int64) { wait[f.ID-1] = float64(fct - idle) }
		n.Start()
		rng := rand.New(rand.NewSource(1))
		gap := float64(service) / rho
		specs := make([]FlowSpec, flows)
		var at float64
		for i := range specs {
			at += rng.ExpFloat64() * gap
			specs[i] = FlowSpec{ID: uint64(i + 1), Src: g.MustNode("H0"), Dst: g.MustNode("H1"), Size: MSS, Start: int64(at)}
		}
		n.StartFlows(specs)
		e.Run(int64(at) + 1e9)
		if tot := n.Totals(); tot.RTOs != 0 || tot.Drops[DropQueue] != 0 || n.DataPkts != flows {
			t.Fatalf("rho %.1f: %d RTOs, %d queue drops, %d data packets for %d flows", rho, tot.RTOs, tot.Drops[DropQueue], n.DataPkts, flows)
		}

		per := flows / (batches + 1)
		means := make([]float64, batches)
		for b := range means {
			for _, w := range wait[(b+1)*per : (b+2)*per] {
				means[b] += w / float64(per)
			}
		}
		mean, sd := meanSD(means)
		half := t95 * sd / math.Sqrt(batches)
		pk := rho * float64(service) / (2 * (1 - rho))
		t.Logf("rho %.1f: mean wait %.1f ns ± %.1f, M/D/1 %.1f ns (S = %d ns)", rho, mean, half, pk, service)
		if math.Abs(mean-pk) > half {
			t.Errorf("rho %.1f: mean queueing delay %.1f ns ± %.1f (95 %%, %d batches), Pollaczek-Khinchine M/D/1 wait %.1f ns",
				rho, mean, half, batches, pk)
		}
	}
}

// meanSD returns the mean and the sample standard deviation of xs.
func meanSD(xs []float64) (mean, sd float64) {
	for _, x := range xs {
		mean += x / float64(len(xs))
	}
	for _, x := range xs {
		sd += (x - mean) * (x - mean)
	}
	return mean, math.Sqrt(sd / float64(len(xs)-1))
}
