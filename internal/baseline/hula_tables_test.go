package baseline

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"contra/internal/core"
	"contra/internal/metrics"
	"contra/internal/sim"
	"contra/internal/topo"
)

// This file pins HULA's register-array tables the way
// dataplane/tables_test.go pins Contra's: a differential test against
// refHula — the six hash maps exactly as the router kept them before
// the arrays, moved here when they were deleted from hula.go — plus the
// zero-value cases where "missing key" and "zero row" could have come
// apart, and the packet fields no register row is indexed by. Rows are
// indexed by origin ordinal, so only edge switches, the nodes that
// originate probes, have one: the reference ignores advertisements for
// any other node, as the router counts them as misses.

// hulaWire is one advertised origin as a neighbor sees it.
type hulaWire struct {
	origin topo.NodeID
	up     bool
	util   float64
}

type hulaEmission struct {
	packed  bool
	entries []hulaWire
}

// hulaCapture is the router of every switch but the one under test: it
// sends nothing and logs each probe under the sender's egress port.
type hulaCapture struct {
	sw     *sim.SwitchDev
	sender topo.NodeID
	log    [][]hulaEmission
}

func (cp *hulaCapture) Attach(sw *sim.SwitchDev) { cp.sw = sw }

func (cp *hulaCapture) Handle(pkt *sim.Packet, inPort int) {
	if pkt.Kind == sim.Probe && cp.sw.Peer(inPort) == cp.sender {
		port := cp.sw.Net.Topo.PortTo(cp.sender, cp.sw.ID)
		em := hulaEmission{packed: pkt.IsPacked()}
		if pkt.IsPacked() {
			for k, en := range pkt.Packed.Entries {
				em.entries = append(em.entries, hulaWire{en.Origin, en.Up, pkt.Packed.MVOf(k)[0]})
			}
		} else {
			em.entries = []hulaWire{{pkt.Origin, pkt.Up, pkt.MV[0]}}
		}
		cp.log[port] = append(cp.log[port], em)
	}
	cp.sw.Net.Free(pkt)
}

// hulaLockstep attaches the real router and then the reference, so both
// tick on the same timer.
type hulaLockstep struct {
	real *Hula
	ref  *refHula
}

func (l *hulaLockstep) Attach(sw *sim.SwitchDev) {
	l.real.Attach(sw)
	l.ref.attach(sw)
}

func (l *hulaLockstep) Handle(pkt *sim.Packet, inPort int) { l.real.Handle(pkt, inPort) }

// hulaUnderTest builds a fattree:4 fabric whose only live router is a
// real Hula (shadowed by the map reference) on the named switch; every
// other switch captures.
func hulaUnderTest(name string, opts core.Options) (*sim.Engine, *sim.Network, *topo.Graph, *Hula, *refHula, [][]hulaEmission) {
	g := topo.Fattree(4, 2)
	e := sim.NewEngine()
	n := sim.NewNetwork(e, g, sim.Config{})
	center := g.MustNode(name)
	opts.ProbePeriodNs = paperOpts.ProbePeriodNs
	opts.Fill(g)
	real := NewHula(opts)
	ref := &refHula{r: real}
	ref.reboot()
	n.SetRouter(center, &hulaLockstep{real: real, ref: ref})
	captured := make([][]hulaEmission, len(g.Ports(center)))
	for _, s := range g.Switches() {
		if s != center {
			n.SetRouter(s, &hulaCapture{sender: center, log: captured})
		}
	}
	n.Start()
	return e, n, g, real, ref, captured
}

// TestHulaDenseTablesMatchMapReference drives one HULA switch of each
// tier and the map reference through the same random sequence of probes
// (packed and unpacked, better, worse, from itself, at t = 0), clock
// advances that age out origins and single ports, flush ticks and
// reboots, and compares every best-hop answer, every per-port
// staleness bit and the exact entry sequence each egress port emitted.
func TestHulaDenseTablesMatchMapReference(t *testing.T) {
	for _, name := range []string{"e0_0", "a0_0", "c0"} {
		for _, packing := range []bool{true, false} {
			for seed := int64(1); seed <= 3; seed++ {
				t.Run(fmt.Sprintf("%s/packing=%v/seed=%d", name, packing, seed), func(t *testing.T) {
					runHulaDifferential(t, name, packing, seed)
				})
			}
		}
	}
}

func runHulaDifferential(t *testing.T, name string, packing bool, seed int64) {
	cfg := core.Options{ProbePacking: packing, SuppressEps: 0.05, RefreshEvery: 3}
	e, n, g, real, ref, captured := hulaUnderTest(name, cfg)
	churn, refChurn := &metrics.Churn{}, &metrics.Churn{}
	real.SetChurn(churn)
	ref.mx = refChurn
	rng := rand.New(rand.NewSource(seed))
	switches := g.Switches()
	var fabricPorts []int
	for p := 0; p < real.sw.PortCount(); p++ {
		if real.sw.IsSwitchPort(p) {
			fabricPorts = append(fabricPorts, p)
		}
	}
	randomEntry := func() hulaWire {
		// Coarse utilizations: exact repeats (suppression) and ties
		// (util >= cur rejects) are common.
		return hulaWire{origin: switches[rng.Intn(len(switches))], up: rng.Intn(2) == 0, util: float64(rng.Intn(6)) / 5}
	}
	inject := func(packed bool, entries []hulaWire) {
		inPort := fabricPorts[rng.Intn(len(fabricPorts))]
		// The reference first: an unpacked accept re-multicasts at once,
		// which moves the port utilizations the second reader folds in.
		ref.handle(packed, entries, inPort)
		var p *sim.Packet
		if packed {
			p = n.NewPackedProbe(len(entries), 1)
			for _, en := range entries {
				p.Packed.Append(sim.ProbeEntry{Origin: en.origin, Up: en.up}, en.util)
			}
		} else {
			p = n.NewPacket()
			p.Kind, p.TTL = sim.Probe, sim.InitialTTL
			p.Origin, p.Up, p.MV[0] = entries[0].origin, entries[0].up, entries[0].util
		}
		real.Handle(p, inPort)
	}
	compare := func(step int) {
		t.Helper()
		now := e.Now()
		for _, dst := range switches {
			for p := 0; p < real.sw.PortCount(); p++ {
				if g, w := real.stale(real.ord(dst), p, now), ref.stale(dst, p, now); g != w {
					t.Fatalf("step %d: stale(%d, port %d) = %v, reference %v", step, dst, p, g, w)
				}
			}
			gp, gu := real.BestNextHop(dst)
			wp, wu := ref.bestNextHop(dst)
			if gp != wp || gu != wu {
				t.Fatalf("step %d: BestNextHop(%d) = (%d, %v), reference (%d, %v)", step, dst, gp, gu, wp, wu)
			}
		}
		if *churn != *refChurn {
			t.Fatalf("step %d: churn %+v, reference %+v", step, *churn, *refChurn)
		}
		for port := range captured {
			got, want := captured[port], ref.sent[port]
			// The reference logs at send time, a neighbor at arrival.
			if len(got) > len(want) {
				t.Fatalf("step %d port %d: %d packets on the wire, reference sent %d", step, port, len(got), len(want))
			}
			for i := range got {
				if got[i].packed != want[i].packed || !slices.Equal(got[i].entries, want[i].entries) {
					t.Fatalf("step %d port %d packet %d:\n got %v\nwant %v", step, port, i, got[i], want[i])
				}
			}
		}
	}

	// The first probes arrive at t = 0, where a zero "updated" stamp and
	// a missing one must read alike.
	for step := 0; step < 1200; step++ {
		switch op := rng.Intn(100); {
		case op < 60:
			if packing {
				entries := make([]hulaWire, 1+rng.Intn(5))
				for i := range entries {
					entries[i] = randomEntry()
				}
				inject(true, entries)
			} else {
				inject(false, []hulaWire{randomEntry()})
			}
		case op < 85: // flush ticks; single ports go stale
			e.Run(e.Now() + rng.Int63n(real.periodNs) + 1)
		case op < 90: // whole origins age out
			e.Run(e.Now() + rng.Int63n(2*real.ageNs))
		case op < 92:
			real.Reboot()
			ref.reboot()
		default:
			compare(step)
		}
		if step%40 == 0 {
			compare(step)
		}
	}
	e.Run(e.Now() + real.periodNs)
	compare(-1)
	transit := 0
	for _, port := range captured {
		for _, em := range port {
			for _, en := range em.entries {
				if en.origin != real.sw.ID {
					transit++
				}
			}
		}
	}
	// (An edge switch has nowhere to re-advertise to: every probe it
	// receives is already descending, and below it are only hosts.)
	if transit == 0 && real.level > 0 {
		t.Fatal("the switch under test never re-advertised an origin: the comparison was vacuous")
	}
}

// TestHulaZeroRowReadsLikeMissingKey pins the three places where the
// maps' missing-key behaviour was load-bearing.
func TestHulaZeroRowReadsLikeMissingKey(t *testing.T) {
	_, n, g, r, _, _ := hulaUnderTest("a0_0", core.Options{})
	churn := &metrics.Churn{}
	r.SetChurn(churn)
	origin := g.MustNode("e1_0")
	up0, up1 := g.PortTo(r.sw.ID, g.MustNode("c0")), g.PortTo(r.sw.ID, g.MustNode("c1"))
	if up0 < 0 || up1 < 0 {
		t.Fatal("a0_0 is not wired to c0 and c1")
	}
	probe := func(port int, util float64) {
		p := n.NewPacket()
		p.Kind, p.TTL, p.Origin, p.MV[0] = sim.Probe, sim.InitialTTL, origin, util
		r.Handle(p, port)
	}

	// A (destination, port) no probe ever arrived on is stale even at
	// t = 0, when "now - 0 > ageNs" alone would call it fresh.
	o := r.ord(origin)
	if !r.stale(o, up0, 0) {
		t.Fatal("a never-seen (dst, port) read as fresh at t = 0")
	}
	if _, ok := r.bestFresh(o, 0); ok {
		t.Fatal("an origin never heard from has a best hop at t = 0")
	}

	// The first accept for an origin happens while now <= ageNs, where
	// the missing "updated" stamp read 0 and so "fresh": it must count as
	// a new entry, not an expiry, and must not be rejected as worse.
	probe(up0, 0.7)
	if *churn != (metrics.Churn{Added: 1}) {
		t.Fatalf("first accept at t = 0 counted %+v, want one Added", *churn)
	}
	if r.stale(o, up0, 0) {
		t.Fatal("the port a probe arrived on at t = 0 is stale at t = 0")
	}
	// A worse offer on another port is rejected but stamps its port.
	probe(up1, 0.9)
	if port, util := r.BestNextHop(origin); port != up0 || util != 0.7 {
		t.Fatalf("best hop (%d, %v) after a worse offer, want (%d, 0.7)", port, util, up0)
	}
	if r.stale(o, up1, 0) {
		t.Fatal("a rejected probe did not refresh its (dst, port) stamp")
	}
}

// TestHulaFallbackKeepsBestUtil: when the recorded best port goes stale
// and another is fresh, the fallback scan moves bestPort (and its
// stamp) but leaves bestUtil at the last accepted probe's value — the
// maps updated two of the three and the row must do the same.
func TestHulaFallbackKeepsBestUtil(t *testing.T) {
	e, n, g, r, _, _ := hulaUnderTest("a0_0", core.Options{})
	origin := g.MustNode("e1_0")
	up0, up1 := g.PortTo(r.sw.ID, g.MustNode("c0")), g.PortTo(r.sw.ID, g.MustNode("c1"))
	if up0 < 0 || up1 < 0 {
		t.Fatal("a0_0 is not wired to c0 and c1")
	}
	probe := func(port int, util float64) {
		p := n.NewPacket()
		p.Kind, p.TTL, p.Origin, p.MV[0] = sim.Probe, sim.InitialTTL, origin, util
		r.Handle(p, port)
	}
	probe(up0, 0.7)
	e.Run(r.ageNs - 10)
	probe(up1, 0.9) // rejected (worse, and up0 is still fresh), but up1 is now stamped
	if port, _ := r.BestNextHop(origin); port != up0 {
		t.Fatalf("best port %d before up0 aged out, want %d", port, up0)
	}
	e.Run(r.ageNs + 10) // up0's stamp (t = 0) is past the horizon, up1's is not
	port, util := r.BestNextHop(origin)
	if port != up1 {
		t.Fatalf("fallback chose port %d, want the one fresh port %d", port, up1)
	}
	if util != 0.7 {
		t.Fatalf("fallback rewrote bestUtil to %v; it must keep the last accepted 0.7", util)
	}
	if row := r.row(r.ord(origin)); row.updated != e.Now() {
		t.Fatalf("fallback left updated at %d, want now (%d)", row.updated, e.Now())
	}
}

// TestHulaOutOfRangeOriginsMiss feeds HULA origins that have no
// register row: ids that are not nodes, and nodes that are not origins
// (a core switch, an aggregation switch, a host). A probe is dropped as
// untranslatable, a packed entry is skipped with its neighbours still
// processed, each is counted as a register miss, and the data-path
// readers answer "no route" — where the maps simply had no such key.
func TestHulaOutOfRangeOriginsMiss(t *testing.T) {
	for _, packing := range []bool{false, true} {
		e, n, g, r, _, _ := hulaUnderTest("a0_0", core.Options{ProbePacking: packing})
		good := g.MustNode("e1_0")
		inPort := g.PortTo(r.sw.ID, g.MustNode("c0"))
		nNodes := topo.NodeID(g.NumNodes())
		util := 0.9
		for _, bad := range []topo.NodeID{nNodes, -1, math.MinInt32, math.MaxInt32, g.MustNode("c1"), g.MustNode("a1_0"), g.MustNode("h1_0_0")} {
			before, misses := n.Totals().Drops[sim.DropProbeNoTrans], n.RegisterMisses()
			p := n.NewPacket()
			p.Kind, p.TTL, p.Origin = sim.Probe, sim.InitialTTL, bad
			r.Handle(p, inPort)
			if got := n.Totals().Drops[sim.DropProbeNoTrans]; got != before+1 {
				t.Fatalf("packing=%v origin %d: drop_probe_notrans went %v -> %v, want +1", packing, bad, before, got)
			}
			if got := n.RegisterMisses(); got != misses+1 {
				t.Fatalf("packing=%v origin %d: register misses went %v -> %v, want +1", packing, bad, misses, got)
			}

			if packing {
				// A bad entry ahead of a good one: the good one (strictly
				// improving, so always accepted) must still be processed.
				util -= 0.1
				p = n.NewPackedProbe(2, 1)
				p.Packed.Append(sim.ProbeEntry{Origin: bad}, 0.1)
				p.Packed.Append(sim.ProbeEntry{Origin: good}, util)
				r.Handle(p, inPort)
				if port, u := r.BestNextHop(good); port != inPort || u != util {
					t.Fatalf("origin %d: the entry after the bad one was not processed: (%d, %v)", bad, port, u)
				}
				if got := n.RegisterMisses(); got != misses+2 {
					t.Fatalf("origin %d: register misses went %v -> %v after the packed entry, want +2", bad, misses, got)
				}
			}

			if o := r.ord(bad); o != -1 || !r.stale(o, inPort, e.Now()) {
				t.Fatalf("ord(%d) = %d, want -1, a miss on which every port is stale", bad, o)
			}
			if _, ok := r.bestFresh(r.ord(bad), e.Now()); ok {
				t.Fatalf("bestFresh(%d) found a route to a destination that is not an origin", bad)
			}
			if port, _ := r.BestNextHop(bad); port != -1 {
				t.Fatalf("BestNextHop(%d) = %d, want -1", bad, port)
			}
		}
		if got := learnedRows(r); packing && got != 1 {
			t.Fatalf("%d origins learned, want only the good one", got)
		}
	}
}

// TestProbePathSteadyStateAllocatesNothing: on a warmed packed+
// suppressed HULA fabric with no flows, whole probe periods — every
// switch's flush, every packed receive, the pending lists, the engine
// and the packet pool underneath — run without touching the heap.
func TestProbePathSteadyStateAllocatesNothing(t *testing.T) {
	g := topo.Fattree(4, 2)
	e := sim.NewEngine()
	n := sim.NewNetwork(e, g, sim.Config{})
	cfg := core.Options{ProbePeriodNs: paperOpts.ProbePeriodNs, ProbePacking: true, SuppressEps: 0.02, RefreshEvery: 4}
	DeployHula(n, cfg)
	n.Start()
	period := int64(256_000)
	e.Run(64 * period)
	allocs := testing.AllocsPerRun(5, func() { e.Run(e.Now() + period) })
	if allocs != 0 {
		t.Fatalf("one probe period on a warmed idle HULA fabric allocates %.1f times, want 0", allocs)
	}
}

// TestHulaPendingListNeverReallocates: each packed router's pending
// list is sized at attach, one slot per origin, and warm-up, a link
// failure, its recovery and a reboot all run in that one array.
func TestHulaPendingListNeverReallocates(t *testing.T) {
	g := topo.Fattree(4, 2)
	e := sim.NewEngine()
	n := sim.NewNetwork(e, g, sim.Config{})
	cfg := core.Options{ProbePeriodNs: paperOpts.ProbePeriodNs, ProbePacking: true}
	routers := DeployHula(n, cfg)
	n.Start()
	backing := map[topo.NodeID]*int32{}
	for id, r := range routers {
		if want := len(r.origins.ids); cap(r.pendList) != want || len(r.pendList) != 0 {
			t.Fatalf("%s: pending list %d/%d at attach, want 0/%d", g.Node(id).Name, len(r.pendList), cap(r.pendList), want)
		}
		backing[id] = &r.pendList[:1][0]
	}
	period := int64(256_000)
	link := g.LinkBetween(g.MustNode("e0_0"), g.MustNode("a0_0")).ID
	n.Inject(sim.NetworkEvent{At: 20 * period, Kind: sim.EvLinkDown, Link: link})
	n.Inject(sim.NetworkEvent{At: 40 * period, Kind: sim.EvLinkUp, Link: link})
	n.Inject(sim.NetworkEvent{At: 50 * period, Kind: sim.EvNodeDown, Node: g.MustNode("a1_0")})
	n.Inject(sim.NetworkEvent{At: 55 * period, Kind: sim.EvNodeUp, Node: g.MustNode("a1_0")})
	for until := period; until <= 80*period; until += period / 4 {
		e.Run(until)
		for id, r := range routers {
			if cap(r.pendList) != len(r.origins.ids) || &r.pendList[:1][0] != backing[id] {
				t.Fatalf("%s: pending list reallocated by %d ns", g.Node(id).Name, until)
			}
		}
	}
}

// ---- the map reference ----

type hulaVia struct {
	dst  topo.NodeID
	port int
}

type hulaPend struct {
	util   float64
	up     bool
	inPort int
}

type hulaAdv struct {
	util float64
	port int
	at   int64
}

// refHula is HULA's probe-learned state in the six hash maps the
// router used to keep. It borrows everything static from the router
// under test (horizons, tiers, the switch device for the clock and the
// port utilizations) and shares none of its tables.
type refHula struct {
	r *Hula

	bestPort   map[topo.NodeID]int
	bestUtil   map[topo.NodeID]float64
	updated    map[topo.NodeID]int64
	updatedVia map[hulaVia]int64
	pend       map[topo.NodeID]*hulaPend
	pendList   []topo.NodeID
	lastAdv    map[topo.NodeID]*hulaAdv
	mx         *metrics.Churn

	sent [][]hulaEmission
}

func (f *refHula) attach(sw *sim.SwitchDev) {
	f.sent = make([][]hulaEmission, sw.PortCount())
	offset := (int64(sw.ID) * 7919) % f.r.periodNs
	switch {
	case f.r.packing:
		sw.Net.Eng.Every(offset, f.r.periodNs, sim.TickFunc(f.flush))
	case f.r.level == 0:
		sw.Net.Eng.Every(offset, f.r.periodNs, sim.TickFunc(f.originate))
	}
}

func (f *refHula) reboot() {
	f.bestPort = map[topo.NodeID]int{}
	f.bestUtil = map[topo.NodeID]float64{}
	f.updated = map[topo.NodeID]int64{}
	f.updatedVia = map[hulaVia]int64{}
	f.pend = map[topo.NodeID]*hulaPend{}
	f.pendList = f.pendList[:0]
	f.lastAdv = map[topo.NodeID]*hulaAdv{}
}

func (f *refHula) originate() {
	sw := f.r.sw
	for port := 0; port < sw.PortCount(); port++ {
		if sw.IsSwitchPort(port) {
			f.sent[port] = append(f.sent[port], hulaEmission{entries: []hulaWire{{origin: sw.ID, up: true}}})
		}
	}
}

func (f *refHula) stale(dst topo.NodeID, port int, now int64) bool {
	last, ok := f.updatedVia[hulaVia{dst, port}]
	return !ok || now-last > f.r.ageNs
}

func (f *refHula) bestFresh(dst topo.NodeID, now int64) (int, bool) {
	sw := f.r.sw
	port, ok := f.bestPort[dst]
	if !ok || now-f.updated[dst] > f.r.ageNs || f.stale(dst, port, now) {
		oldPort, hadOld := port, ok
		bestUtil := 2.0
		found := false
		for p := 0; p < sw.PortCount(); p++ {
			if !sw.IsSwitchPort(p) {
				continue
			}
			if last, ok := f.updatedVia[hulaVia{dst, p}]; ok && now-last <= f.r.ageNs {
				if u := sw.TxUtil(p); !found || u < bestUtil {
					bestUtil, port, found = u, p, true
				}
			}
		}
		if !found {
			return 0, false
		}
		if f.mx != nil && hadOld && oldPort != port {
			f.mx.Flaps++
		}
		f.bestPort[dst] = port
		f.updated[dst] = now
	}
	return port, true
}

func (f *refHula) bestNextHop(dst topo.NodeID) (int, float64) {
	port, ok := f.bestFresh(dst, f.r.sw.Now())
	if !ok {
		return -1, 1
	}
	return port, f.bestUtil[dst]
}

func (f *refHula) acceptProbe(origin topo.NodeID, util float64, up bool, inPort int, now int64) (accepted, goingUpStill bool) {
	f.updatedVia[hulaVia{origin, inPort}] = now
	cur, have := f.bestUtil[origin]
	fresh := now-f.updated[origin] <= f.r.ageNs
	if have && fresh && util >= cur && f.bestPort[origin] != inPort {
		return false, false
	}
	if f.mx != nil {
		switch {
		case !have:
			f.mx.Added++
		case !fresh:
			f.mx.Expired++
			if f.bestPort[origin] != inPort {
				f.mx.Flaps++
			}
		case f.bestPort[origin] != inPort:
			f.mx.Replaced++
			f.mx.Flaps++
		}
	}
	f.bestUtil[origin] = util
	f.bestPort[origin] = inPort
	f.updated[origin] = now
	return true, up && f.r.peerLevel[inPort] < f.r.level
}

func (f *refHula) suppressAdvert(origin topo.NodeID, now int64) bool {
	adv := f.lastAdv[origin]
	if adv == nil || adv.port != f.bestPort[origin] {
		return false
	}
	if now-adv.at >= f.r.refreshNs {
		return false
	}
	return math.Abs(f.bestUtil[origin]-adv.util) <= f.r.eps
}

func (f *refHula) recordAdvert(origin topo.NodeID, now int64) {
	adv := f.lastAdv[origin]
	if adv == nil {
		adv = &hulaAdv{}
		f.lastAdv[origin] = adv
	}
	adv.util, adv.port, adv.at = f.bestUtil[origin], f.bestPort[origin], now
}

func (f *refHula) markPending(origin topo.NodeID, util float64, up bool, inPort int) {
	pe := f.pend[origin]
	if pe == nil {
		pe = &hulaPend{}
		f.pend[origin] = pe
		f.pendList = append(f.pendList, origin)
	}
	pe.util, pe.up, pe.inPort = util, up, inPort
}

// handle is handleProbe/handlePacked over the maps.
func (f *refHula) handle(packed bool, entries []hulaWire, inPort int) {
	r := f.r
	now := r.sw.Now()
	txu := r.sw.TxUtil(inPort)
	for _, en := range entries {
		if en.origin == r.sw.ID || r.sw.Net.Topo.Node(en.origin).Role != topo.RoleEdge {
			continue
		}
		util := math.Max(en.util, txu)
		accepted, goingUpStill := f.acceptProbe(en.origin, util, en.up, inPort, now)
		if !accepted {
			continue
		}
		if packed && f.pend[en.origin] != nil {
			f.markPending(en.origin, util, goingUpStill, inPort)
			continue
		}
		if r.suppressOn && f.suppressAdvert(en.origin, now) {
			continue
		}
		if r.suppressOn {
			f.recordAdvert(en.origin, now)
		}
		if packed {
			f.markPending(en.origin, util, goingUpStill, inPort)
			continue
		}
		for port := 0; port < r.sw.PortCount(); port++ {
			if up, ok := r.eligiblePort(port, inPort, goingUpStill); ok {
				f.sent[port] = append(f.sent[port], hulaEmission{entries: []hulaWire{{en.origin, up, util}}})
			}
		}
	}
}

// flush is Hula.flush over the maps.
func (f *refHula) flush() {
	r := f.r
	for port := 0; port < r.sw.PortCount(); port++ {
		if !r.sw.IsSwitchPort(port) {
			continue
		}
		em := hulaEmission{packed: true}
		if r.level == 0 {
			em.entries = append(em.entries, hulaWire{origin: r.sw.ID, up: true})
		}
		for _, origin := range f.pendList {
			pe := f.pend[origin]
			if up, ok := r.eligiblePort(port, pe.inPort, pe.up); ok {
				em.entries = append(em.entries, hulaWire{origin, up, pe.util})
			}
		}
		if len(em.entries) > 0 {
			f.sent[port] = append(f.sent[port], em)
		}
	}
	if r.suppressOn {
		now := r.sw.Now()
		for _, origin := range f.pendList {
			f.recordAdvert(origin, now)
		}
	}
	for _, origin := range f.pendList {
		delete(f.pend, origin)
	}
	f.pendList = f.pendList[:0]
}
