package dataplane

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"contra/internal/core"
	"contra/internal/metrics"
	"contra/internal/sim"
	"contra/internal/topo"
)

// TestScalarMergeMatchesGeneral feeds one switch's router in two
// networks the same random packed probes and the same clock. One merges
// them in mergeScalar; the other has a churn recorder attached, which
// sends every entry through handleProbeEntry. The streams carry older,
// equal and newer versions, refreshes from the register's own upstream
// and offers from other ports and tags, coarse metrics that tie, first
// accepts, and silences long enough to expire registers; the flush
// timer runs in both. After every step both routers must hold the same
// registers, slab, BestT, pending list, per-port queue counts and
// suppression snapshots, both must have sent the same entries on every
// port, and both networks must hold the same probe counts.
func TestScalarMergeMatchesGeneral(t *testing.T) {
	for _, src := range []string{"minimize(path.util)", "minimize(path.len)", "minimize(path.lat)"} {
		for _, suppress := range []bool{false, true} {
			for seed := int64(1); seed <= 3; seed++ {
				t.Run(fmt.Sprintf("%s/suppress=%v/seed=%d", src, suppress, seed), func(t *testing.T) {
					runScalarDifferential(t, src, suppress, seed)
				})
			}
		}
	}
}

func runScalarDifferential(t *testing.T, src string, suppress bool, seed int64) {
	g := topo.Fattree(4, 2)
	opts := core.Options{ProbePacking: true}
	if suppress {
		opts.SuppressEps, opts.RefreshEvery = 0.05, 3
	}
	comp := compileOn(t, g, src, opts)
	if _, ok := comp.Analysis.ScalarRank(); !ok {
		t.Fatalf("%s is not a scalar-rank policy", src)
	}
	center := g.MustNode("a0_0")
	build := func(churn *metrics.Churn) (*sim.Engine, *sim.Network, *Contra, [][]emission) {
		e := sim.NewEngine()
		n := sim.NewNetwork(e, g, sim.Config{})
		c := New(comp, center)
		c.SetChurn(churn)
		n.SetRouter(center, c)
		log := make([][]emission, len(g.Ports(center)))
		for _, s := range g.Switches() {
			if s != center {
				n.SetRouter(s, &capture{sender: center, log: log})
			}
		}
		n.Start()
		return e, n, c, log
	}
	churn := &metrics.Churn{}
	fastEng, fastNet, fast, fastLog := build(nil)
	genEng, genNet, gen, genLog := build(churn)

	rng := rand.New(rand.NewSource(seed))
	nPorts := len(g.Ports(center))
	// Each port's sender tag is the one its neighbour advertises with;
	// other tags with a transition here are offers the register's
	// upstream did not send.
	var transit []int32
	for tag, ord := range fast.inTrans {
		if ord >= 0 {
			transit = append(transit, int32(tag))
		}
	}
	portTag := make([]int32, nPorts)
	for p := range portTag {
		peer := g.Ports(center)[p].Peer
		portTag[p] = transit[rng.Intn(len(transit))]
		for _, v := range comp.Switch(peer).VNodes {
			if tagIndex(fast.inTrans, int32(v)) >= 0 {
				portTag[p] = int32(v)
			}
		}
	}
	version := make(map[topo.NodeID]uint32)
	period := comp.Opts.ProbePeriodNs

	inject := func(port int, entries []sim.ProbeEntry, mvs []float64) {
		for _, side := range []struct {
			n *sim.Network
			c *Contra
		}{{fastNet, fast}, {genNet, gen}} {
			p := side.n.NewPackedProbe(len(entries), 1)
			for k, en := range entries {
				p.Packed.Append(en, mvs[k])
			}
			side.c.Handle(p, port)
		}
	}
	compared := make([]int, nPorts) // probes per port already compared
	compare := func(step int) {
		t.Helper()
		for i := range fast.fwd {
			if fast.fwd[i] != gen.fwd[i] {
				t.Fatalf("step %d: register %d is %+v in the scalar loop, %+v in the general merge", step, i, fast.fwd[i], gen.fwd[i])
			}
		}
		if !slices.Equal(fast.slab, gen.slab) {
			t.Fatalf("step %d: slab %v, general %v", step, fast.slab, gen.slab)
		}
		if !slices.Equal(fast.best, gen.best) || !slices.Equal(fast.pend, gen.pend) || !slices.Equal(fast.adv, gen.adv) {
			t.Fatalf("step %d: best %v pend %v, general best %v pend %v (or the suppression snapshots differ)", step, fast.best, fast.pend, gen.best, gen.pend)
		}
		for p := range fast.flushPorts {
			if fq, gq := fast.flushPorts[p].queued, gen.flushPorts[p].queued; fq != gq {
				t.Fatalf("step %d: port %d queues %d, general %d", step, p, fq, gq)
			}
		}
		for p := range fastLog {
			if len(fastLog[p]) != len(genLog[p]) {
				t.Fatalf("step %d: port %d sent %d probes, general %d", step, p, len(fastLog[p]), len(genLog[p]))
			}
			for k := compared[p]; k < len(fastLog[p]); k++ {
				if !slices.Equal(fastLog[p][k].entries, genLog[p][k].entries) {
					t.Fatalf("step %d: port %d probe %d carried %v, general %v", step, p, k, fastLog[p][k].entries, genLog[p][k].entries)
				}
			}
			compared[p] = len(fastLog[p])
		}
		ft, gt := fastNet.Totals(), genNet.Totals()
		if ft.Probes != gt.Probes || ft.ProbeSuppressed != gt.ProbeSuppressed || ft.ProbeBytes != gt.ProbeBytes {
			t.Fatalf("step %d: counts %+v (suppressed %d), general %+v (suppressed %d)", step, ft.Probes, ft.ProbeSuppressed, gt.Probes, gt.ProbeSuppressed)
		}
	}

	for step := 0; step < 2000; step++ {
		switch op := rng.Intn(100); {
		case op < 60: // a packed probe
			port := rng.Intn(nPorts)
			entries := make([]sim.ProbeEntry, rng.Intn(8))
			mvs := make([]float64, len(entries))
			for k := range entries {
				origin := comp.Origins[rng.Intn(len(comp.Origins))] // the switch's own id too
				v := version[origin]
				switch rng.Intn(6) {
				case 0, 1:
					v++
					version[origin] = v
				case 2:
					v -= min(v, uint32(1+rng.Intn(2)))
				}
				tag := portTag[port]
				if rng.Intn(5) == 0 {
					tag = transit[rng.Intn(len(transit))]
				}
				entries[k] = sim.ProbeEntry{Origin: origin, Tag: tag, Version: v}
				mvs[k] = float64(rng.Intn(4)) / 4
			}
			inject(port, entries, mvs)
		case op < 92: // the clock moves: flush ticks, entries age
			now := fastEng.Now() + rng.Int63n(period) + 1
			fastEng.Run(now)
			genEng.Run(now)
		default: // a silence: registers expire
			now := fastEng.Now() + rng.Int63n(10*period)
			fastEng.Run(now)
			genEng.Run(now)
		}
		compare(step)
	}

	c := fastNet.Totals().Probes
	for name, got := range map[string]int64{
		"new": c.New, "newer": c.Newer, "refresh": c.Refresh, "expired": c.Expired,
		"better": c.Better, "outdated": c.Outdated, "lost": c.Lost,
	} {
		if got == 0 {
			t.Errorf("no advertisement was decided by the %s rule: the comparison did not reach it", name)
		}
	}
	if churn.Added != c.New || churn.Newer != c.Newer || churn.Refreshed != c.Refresh || churn.Expired != c.Expired ||
		churn.Replaced != c.Better || churn.Outdated != c.Outdated || churn.Lost != c.Lost {
		t.Errorf("the churn recorder read %+v against the network's %+v", *churn, c)
	}
	t.Logf("%+v", c)
}
