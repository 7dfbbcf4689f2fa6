package dataplane

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"contra/internal/analysis"
	"contra/internal/core"
	"contra/internal/pg"
	"contra/internal/pintable"
	"contra/internal/policy"
	"contra/internal/sim"
	"contra/internal/topo"
)

// This file pins the register-array FwdT/BestT layout two ways. The
// differential test runs the router against refTables, the map-keyed
// tables exactly as the router kept them before the arrays (the code
// at the bottom of this file is that implementation, moved here when
// the maps were deleted from contra.go). The safety test feeds the
// router packet fields no map would have had a key for — the case
// where a map lookup simply missed and an array index would panic.

// fwdKey keys the reference FwdT: destination switch, local virtual
// node, probe id.
type fwdKey struct {
	origin topo.NodeID
	vnode  pg.NodeID
	pid    uint8
}

// wireEntry is what one advertised origin looks like on the wire.
type wireEntry struct {
	origin  topo.NodeID
	tag     int32
	pid     uint8
	version uint32
	mv      [4]float64
}

// emission is one probe packet as a neighbor saw it (or as the
// reference says it should have): packed or not, and its entries in
// wire order.
type emission struct {
	packed  bool
	entries []wireEntry
	buf     *sim.ProbeBuf // the entry buffer a packed probe arrived in
}

func (e emission) String() string { return fmt.Sprintf("{packed=%v %v}", e.packed, e.entries) }

// capture is the router of every switch but the one under test: it
// sends nothing and logs every probe it receives under the sender's
// egress port.
type capture struct {
	sw     *sim.SwitchDev
	sender topo.NodeID
	log    [][]emission // by the sender's egress port
}

func (cp *capture) Attach(sw *sim.SwitchDev) { cp.sw = sw }

func (cp *capture) Handle(pkt *sim.Packet, inPort int) {
	if pkt.Kind == sim.Probe && cp.sw.Peer(inPort) == cp.sender {
		port := cp.sw.Net.Topo.PortTo(cp.sender, cp.sw.ID)
		em := emission{packed: pkt.IsPacked(), buf: pkt.Packed}
		if pkt.IsPacked() {
			for k, en := range pkt.Packed.Entries {
				var mv [4]float64
				copy(mv[:], pkt.Packed.MVOf(k))
				em.entries = append(em.entries, wireEntry{en.Origin, en.Tag, en.Pid, en.Version, mv})
			}
		} else {
			em.entries = []wireEntry{{pkt.Origin, pkt.Tag, pkt.Pid, pkt.Version, pkt.MV}}
		}
		cp.log[port] = append(cp.log[port], em)
	}
	cp.sw.Net.Free(pkt)
}

// lockstep is the router installed on the switch under test: the real
// Contra router plus the reference tables, flushing on the same timer
// tick.
type lockstep struct {
	real *Contra
	ref  *refTables
}

func (l *lockstep) Attach(sw *sim.SwitchDev) {
	l.real.Attach(sw)
	l.ref.attach(sw)
}

func (l *lockstep) Handle(pkt *sim.Packet, inPort int) { l.real.Handle(pkt, inPort) }

const (
	diffPolicyWide   = "minimize(if .* KC .* then (path.util, path.lat) else (1000, path.lat))"
	diffPolicyNarrow = "minimize(path.len)"
)

// TestDenseTablesMatchMapReference drives one router and the map
// reference through the same random sequence of probes (packed and
// unpacked, accepted, outdated, for unknown tags, from itself), clock
// advances that expire entries and kill ports, per-period flushes,
// policy installs that reshape the virtual-node space in both
// directions, and reboots — and compares every lookup, BestT, the live
// route set and the exact entry sequence each egress port emitted.
func TestDenseTablesMatchMapReference(t *testing.T) {
	for _, packing := range []bool{true, false} {
		for seed := int64(1); seed <= 4; seed++ {
			t.Run(fmt.Sprintf("packing=%v/seed=%d", packing, seed), func(t *testing.T) {
				runDifferential(t, packing, seed)
			})
		}
	}
}

func runDifferential(t *testing.T, packing bool, seed int64) {
	g := topo.Abilene()
	opts := core.Options{ProbePacking: packing, SuppressEps: 0.02, RefreshEvery: 3}
	comps := []*core.Compiled{
		compileOn(t, g, diffPolicyWide, opts),
		compileOn(t, g, diffPolicyNarrow, opts),
	}
	if comps[1].PG.NumNodes() >= comps[0].PG.NumNodes() || comps[1].Analysis.NumPids() >= comps[0].Analysis.NumPids() {
		t.Fatal("the narrow policy must shrink both the tag space and the pid space")
	}
	center := g.MustNode("ATL")
	if len(comps[0].Switch(center).VNodes) < 2 {
		t.Fatal("the switch under test needs several virtual nodes under the wide policy")
	}

	e := sim.NewEngine()
	n := sim.NewNetwork(e, g, sim.Config{})
	real := New(comps[0], center)
	ref := newRefTables(real)
	n.SetRouter(center, &lockstep{real: real, ref: ref})
	nPorts := len(g.Ports(center))
	captured := make([][]emission, nPorts)
	for _, s := range g.Switches() {
		if s != center {
			n.SetRouter(s, &capture{sender: center, log: captured})
		}
	}
	n.Start()

	rng := rand.New(rand.NewSource(seed))
	period := comps[0].Opts.ProbePeriodNs
	switches := g.Switches()
	which, era := 0, uint8(0)
	var version uint32
	// The sender tags each program has a transition for, sorted so the
	// random draw does not depend on map order.
	var senderTags [2][]int32
	for i, comp := range comps {
		for u := range inTransitions(comp, comp.Switch(center)) {
			senderTags[i] = append(senderTags[i], int32(u))
		}
		slices.Sort(senderTags[i])
	}

	// randomEntry draws one advertisement: mostly keys the program
	// knows, sometimes a tag with no transition here, the router's own
	// id as origin, or a host-less switch id it never hears from.
	randomEntry := func() wireEntry {
		tags := senderTags[which]
		en := wireEntry{
			origin: switches[rng.Intn(len(switches))],
			tag:    tags[rng.Intn(len(tags))],
			pid:    uint8(rng.Intn(real.res.NumPids())),
		}
		if rng.Intn(8) == 0 {
			en.tag = int32(rng.Intn(real.comp.PG.NumNodes())) // often no transition
		}
		// Versions mostly advance; some replay an older one (§5.1).
		version++
		en.version = version
		if rng.Intn(5) == 0 {
			en.version = uint32(rng.Intn(int(version) + 1))
		}
		// Coarse metrics, and often one fixed vector: exact repeats feed
		// suppression, and equal ranks at different (tag, pid) of one
		// origin exercise BestT's first-wins tie-break.
		for i := range real.res.MV {
			en.mv[i] = 0.4
			if rng.Intn(3) > 0 {
				en.mv[i] = float64(rng.Intn(6)) / 5
			}
		}
		return en
	}
	inject := func(packed bool, entries []wireEntry, inPort int) {
		// The reference goes first: an unpacked accept re-multicasts at
		// once, possibly out of inPort, which would move the utilization
		// the second reader folds in.
		ref.handle(packed, entries, inPort, era)
		var p *sim.Packet
		if packed {
			p = n.NewPackedProbe(len(entries), real.mvW)
			p.Era = era
			for _, en := range entries {
				p.Packed.Append(sim.ProbeEntry{Origin: en.origin, Tag: en.tag, Version: en.version, Pid: en.pid}, en.mv[:real.mvW]...)
			}
		} else {
			p = n.NewPacket()
			p.Kind, p.Era, p.TTL = sim.Probe, era, sim.InitialTTL
			en := entries[0]
			p.Origin, p.Tag, p.Version, p.Pid, p.MV = en.origin, en.tag, en.version, en.pid, en.mv
		}
		real.Handle(p, inPort)
	}
	compareLookups := func(step int) {
		t.Helper()
		for _, dst := range switches {
			gv, gp, gr, gok := real.BestEntry(dst)
			wv, wp, wr, wok := ref.bestEntry(dst)
			if gok != wok || gv != wv || gp != wp || !gr.Equal(wr) {
				t.Fatalf("step %d: BestEntry(%d) = (%d,%d,%v,%v), reference (%d,%d,%v,%v)", step, dst, gv, gp, gr, gok, wv, wp, wr, wok)
			}
			gh, _ := real.BestNextHop(dst)
			if wh := ref.bestHop(dst); gh != wh {
				t.Fatalf("step %d: BestNextHop(%d) = %d, reference %d", step, dst, gh, wh)
			}
			if g, w := real.HasRoute(dst), ref.hasRoute(dst); g != w {
				t.Fatalf("step %d: HasRoute(%d) = %v, reference %v", step, dst, g, w)
			}
			for v := 0; v < real.comp.PG.NumNodes(); v++ {
				for pid := 0; pid <= real.res.NumPids(); pid++ { // one past: falls back to the others
					gn, gt, gok := real.Entry(dst, pg.NodeID(v), uint8(pid))
					wn, wt, wok := ref.entry(dst, pg.NodeID(v), uint8(pid))
					if gn != wn || gt != wt || gok != wok {
						t.Fatalf("step %d: Entry(%d,%d,%d) = (%d,%d,%v), reference (%d,%d,%v)", step, dst, v, pid, gn, gt, gok, wn, wt, wok)
					}
				}
			}
		}
		if g, w := real.LiveRoutes(), ref.liveRoutes(); !slices.Equal(g, w) {
			t.Fatalf("step %d: LiveRoutes = %v, reference %v (ascending)", step, g, w)
		}
	}
	compareEmissions := func(step int) {
		t.Helper()
		for port := range captured {
			got, want := captured[port], ref.sent[port]
			// The reference logs at send time, a neighbor at arrival: the
			// tail of want may still be in flight.
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

	for step := 0; step < 1500; step++ {
		switch op := rng.Intn(100); {
		case op < 55: // a probe
			inPort := rng.Intn(nPorts)
			if packing {
				entries := make([]wireEntry, rng.Intn(6)) // 0 is a heartbeat
				for i := range entries {
					entries[i] = randomEntry()
				}
				inject(true, entries, inPort)
			} else {
				inject(false, []wireEntry{randomEntry()}, inPort)
			}
		case op < 80: // the clock moves: flush ticks, entries age, ports die
			e.Run(e.Now() + rng.Int63n(period)/2 + 1)
		case op < 84: // a long silence: everything expires
			e.Run(e.Now() + rng.Int63n(12*period))
		case op < 88: // keep a port alive without touching any table
			if packing {
				inject(true, nil, rng.Intn(nPorts))
			}
		case op < 92: // policy swap: the tag space shrinks or grows back
			which, era = 1-which, era+1
			real.Install(comps[which], era)
			ref.flushTables()
		case op < 94:
			real.Reboot()
			ref.reboot()
		default:
			compareLookups(step)
		}
		if step%50 == 0 {
			compareLookups(step)
			compareEmissions(step)
		}
	}
	// Let the last packets land (only what the flush ticks inside this
	// final window emit can still be in flight afterwards).
	e.Run(e.Now() + period)
	compareLookups(-1)
	compareEmissions(-1)
	packets, transit := 0, 0
	for _, port := range captured {
		packets += len(port)
		for _, em := range port {
			for _, en := range em.entries {
				if en.origin != center {
					transit++
				}
			}
		}
	}
	if transit == 0 {
		t.Fatal("the router under test never re-advertised a learned entry: the comparison was vacuous")
	}
	t.Logf("%d packets compared, carrying %d re-advertised entries", packets, transit)
}

// TestOutOfRangePacketFieldsMiss feeds the router every packet-derived
// index one past the end, negative and at the integer extremes, and
// node ids that are in range but name no origin. Each must land exactly
// where a map miss did — DropProbeNoTrans for a probe, a skipped entry
// inside a packed probe, DropNoRoute for tagged data — and never panic
// or disturb the tables; each probe or packed entry is counted as a
// register miss.
func TestOutOfRangePacketFieldsMiss(t *testing.T) {
	g := topo.Fattree(4, 2)
	opts := core.Options{ProbePacking: true}
	e, n, routers, comp := deployOpts(t, g, "minimize(path.util)", opts, 12)
	sw := g.MustNode("a0_0")
	c := routers[sw]
	nTags, nNodes, nPids := int32(comp.PG.NumNodes()), topo.NodeID(g.NumNodes()), uint8(comp.Analysis.NumPids())

	okTag, inPort := someTransition(c)
	okOrigin := g.MustNode("e3_1")
	if !c.HasRoute(okOrigin) {
		t.Fatal("warmed-up router has no route to the far edge switch")
	}
	drops := func(r sim.DropReason) int64 { return n.Totals().Drops[r] }

	bad := []struct {
		name   string
		tag    int32
		origin topo.NodeID
		pid    uint8
	}{
		{"tag one past the end", nTags, okOrigin, 0},
		{"tag negative", -1, okOrigin, 0},
		{"tag min int32", math.MinInt32, okOrigin, 0},
		{"tag max int32", math.MaxInt32, okOrigin, 0},
		{"origin one past the end", okTag, nNodes, 0},
		{"origin negative", okTag, -1, 0},
		{"origin min int32", okTag, math.MinInt32, 0},
		{"origin a host: a node, not an origin", okTag, g.MustNode("h3_1_0"), 0},
		{"pid one past the end", okTag, okOrigin, nPids},
		{"pid max", okTag, okOrigin, 255},
	}
	for _, b := range bad {
		before, misses, live := drops(sim.DropProbeNoTrans), n.RegisterMisses(), c.LiveRoutes()
		p := n.NewPacket()
		p.Kind, p.TTL, p.Era = sim.Probe, sim.InitialTTL, c.Era()
		p.Tag, p.Origin, p.Pid, p.Version = b.tag, b.origin, b.pid, 1<<20
		c.Handle(p, inPort)
		if got := drops(sim.DropProbeNoTrans); got != before+1 {
			t.Fatalf("probe, %s: drop_probe_notrans went %v -> %v, want +1", b.name, before, got)
		}
		if got := n.RegisterMisses(); got != misses+1 {
			t.Fatalf("probe, %s: register misses went %v -> %v, want +1", b.name, misses, got)
		}
		if !slices.Equal(c.LiveRoutes(), live) {
			t.Fatalf("probe, %s: a dropped probe changed the live route set", b.name)
		}
	}

	// Packed: the bad entry sits between two good ones, and both must
	// still be processed, in order. From a cold start the first good
	// entry is accepted as new and every later one by the upstream-
	// refresh rule, so acceptance does not depend on the fabric's load.
	c.Reboot()
	version := uint32(0)
	for _, b := range bad {
		version += 2
		misses := n.RegisterMisses()
		p := n.NewPackedProbe(3, c.mvW)
		p.Era = c.Era()
		p.Packed.Append(sim.ProbeEntry{Origin: okOrigin, Tag: okTag, Version: version - 1})
		p.Packed.Append(sim.ProbeEntry{Origin: b.origin, Tag: b.tag, Pid: b.pid, Version: version})
		p.Packed.Append(sim.ProbeEntry{Origin: okOrigin, Tag: okTag, Version: version})
		c.Handle(p, inPort)
		i := c.lookup(c.originIndex(okOrigin), tagIndex(c.inTrans, okTag), 0)
		if i < 0 || c.fwd[i].version != version || c.fwd[i].nhop != int32(inPort) {
			t.Fatalf("packed, %s: the entries around the bad one were not both accepted: register %d", b.name, i)
		}
		if live := c.LiveRoutes(); !slices.Equal(live, []topo.NodeID{okOrigin}) {
			t.Fatalf("packed, %s: live routes %v, want only %d", b.name, live, okOrigin)
		}
		if got := n.RegisterMisses(); got != misses+1 {
			t.Fatalf("packed, %s: register misses went %v -> %v, want +1", b.name, misses, got)
		}
	}

	// Tagged data from a fabric port. A tag that names no virtual node
	// of this switch finds no FwdT entry; an unknown pid falls back to
	// the pids the tag does have, as it always did.
	dstHost := g.MustNode("h3_1_0")
	data := func(tag int32, pid uint8) *sim.Packet {
		p := n.NewPacket()
		p.Kind, p.TTL, p.Era, p.HasTag = sim.Data, sim.InitialTTL, c.Era(), true
		p.Size, p.Dst, p.FlowID, p.Tag, p.Pid = 1000, dstHost, uint64(tag)<<8|uint64(pid), tag, pid
		return p
	}
	ownTag := int32(c.prog.VNodes[0])
	for _, tag := range []int32{nTags, -1, math.MinInt32, math.MaxInt32, okTag /* a neighbor's tag, not ours */} {
		before := drops(sim.DropNoRoute)
		c.Handle(data(tag, 0), inPort)
		if got := drops(sim.DropNoRoute); got != before+1 {
			t.Fatalf("data tag %d: drop_noroute went %v -> %v, want +1", tag, before, got)
		}
	}
	for _, pid := range []uint8{nPids, 255} {
		before := drops(sim.DropNoRoute)
		c.Handle(data(ownTag, pid), inPort)
		if got := drops(sim.DropNoRoute); got != before {
			t.Fatalf("data pid %d on a good tag was dropped; it must fall back to the tag's other pids", pid)
		}
	}
	// One flow under three pids (one real, two past the end) pins three
	// flowlets: the key holds all 8 bits of the pid, so an out-of-range
	// one lands on no other entry's slot.
	pinned := c.flowlets.Len()
	fid := flowletHash(4242, dstHost)
	seen := map[*pintable.Pin]uint8{}
	for _, pid := range []uint8{0, nPids, 255} {
		p := data(ownTag, pid)
		p.FlowID = 4242
		c.Handle(p, inPort)
		slot := c.flowlets.Find(flowletKey(tagIndex(c.ordOf, ownTag), pid, fid))
		if slot == nil {
			t.Fatalf("data pid %d: no flowlet pinned under its own key", pid)
		}
		if other, dup := seen[slot]; dup {
			t.Fatalf("data pids %d and %d share a flowlet slot", other, pid)
		}
		seen[slot] = pid
	}
	if c.flowlets.Len() != pinned+3 {
		t.Fatalf("three pids of one flow pinned %d flowlets, want 3", c.flowlets.Len()-pinned)
	}
	if nh, _, ok := c.Entry(nNodes, c.prog.VNodes[0], 0); ok || nh != -1 {
		t.Fatal("Entry for a destination past the node space must miss")
	}
	if c.HasRoute(-1) || c.HasRoute(nNodes) {
		t.Fatal("HasRoute outside the node space must be false")
	}
	if port, _ := c.BestNextHop(nNodes); port != -1 {
		t.Fatal("BestNextHop outside the node space must be -1")
	}
	e.Run(e.Now() + comp.Opts.ProbePeriodNs) // flush what the accepted entries queued

	t.Run("nodes that are not origins", notOriginsMiss)
	t.Run("the last register", lastRegisterIsAddressable)
}

// someTransition picks a sender tag the router's program has a
// transition for (the lowest, so the choice does not depend on map
// order) and the port such a probe arrives on.
func someTransition(c *Contra) (tag int32, inPort int) {
	tag = math.MaxInt32
	for u := range inTransitions(c.comp, c.prog) {
		tag = min(tag, int32(u))
	}
	return tag, c.comp.Topo.PortTo(c.prog.Switch, c.comp.PG.Node(pg.NodeID(tag)).Topo)
}

// notOriginsMiss runs a policy that admits one destination only, so
// that every other switch — hostless ones included — is a valid node id
// with no origin ordinal, like a host. Probes naming them are the miss
// an id past the node space is, and no route is learned.
func notOriginsMiss(t *testing.T) {
	g := topo.Fattree(4, 2)
	opts := core.Options{ProbePacking: true}
	_, n, routers, comp := deployOpts(t, g, "minimize(if .* e3_1 then path.util else inf)", opts, 12)
	only := g.MustNode("e3_1")
	if comp.NumOrigins != 1 || comp.OriginOrd[only] != 0 {
		t.Fatalf("the policy admits %d origins (e3_1 has ordinal %d), want exactly e3_1", comp.NumOrigins, comp.OriginOrd[only])
	}
	sw := g.MustNode("a0_0")
	c := routers[sw]
	if live := c.LiveRoutes(); !slices.Equal(live, []topo.NodeID{only}) {
		t.Fatalf("live routes %v, want only %d", live, only)
	}
	okTag, inPort := someTransition(c)
	drops := func(r sim.DropReason) int64 { return n.Totals().Drops[r] }
	for _, name := range []string{"c0", "a3_0", "e0_0", "h0_0_0"} {
		origin := g.MustNode(name)
		before, misses := drops(sim.DropProbeNoTrans), n.RegisterMisses()
		p := n.NewPacket()
		p.Kind, p.TTL, p.Era = sim.Probe, sim.InitialTTL, c.Era()
		p.Tag, p.Origin, p.Version = okTag, origin, 1<<20
		c.Handle(p, inPort)
		if got := drops(sim.DropProbeNoTrans); got != before+1 {
			t.Fatalf("probe from non-origin %s: drop_probe_notrans went %v -> %v, want +1", name, before, got)
		}
		q := n.NewPackedProbe(1, c.mvW)
		q.Era = c.Era()
		q.Packed.Append(sim.ProbeEntry{Origin: origin, Tag: okTag, Version: 1 << 20})
		c.Handle(q, inPort)
		if got := n.RegisterMisses(); got != misses+2 {
			t.Fatalf("non-origin %s: register misses went %v -> %v, want +2", name, misses, got)
		}
		if c.HasRoute(origin) || !slices.Equal(c.LiveRoutes(), []topo.NodeID{only}) {
			t.Fatalf("non-origin %s taught the router a route: live %v", name, c.LiveRoutes())
		}
		if port, _ := c.BestNextHop(origin); port != -1 {
			t.Fatalf("BestNextHop(%s) = %d, want -1", name, port)
		}
	}
	// Tagged data for a host behind a switch that is no origin.
	before := drops(sim.DropNoRoute)
	p := n.NewPacket()
	p.Kind, p.TTL, p.Era, p.HasTag = sim.Data, sim.InitialTTL, c.Era(), true
	p.Size, p.Dst, p.FlowID, p.Tag = 1000, g.MustNode("h0_0_0"), 7, int32(c.prog.VNodes[0])
	c.Handle(p, inPort)
	if got := drops(sim.DropNoRoute); got != before+1 {
		t.Fatalf("data for a host behind a non-origin: drop_noroute went %v -> %v, want +1", before, got)
	}
}

// lastRegisterIsAddressable teaches a cold router with several virtual
// nodes and pids the route whose register is the file's very last —
// highest origin ordinal, last local tag, last pid — and forwards a
// packet on it: the flowlet key holds the highest tag ordinal, and the
// register file ends exactly where the index arithmetic says.
func lastRegisterIsAddressable(t *testing.T) {
	g := withHosts(topo.Abilene(), "ATL", "SEA", "NYC")
	opts := core.Options{ProbePacking: true}
	_, n, routers, comp := deployOpts(t, g, diffPolicyWide, opts, 0)
	sw := g.MustNode("ATL")
	c := routers[sw]
	lastOrd := int32(len(c.prog.VNodes) - 1)
	lastPid := uint8(c.nPids - 1)
	if lastOrd == 0 {
		t.Fatal("the switch under test needs several virtual nodes")
	}
	var origin topo.NodeID
	for id, oi := range comp.OriginOrd {
		if int(oi) == comp.NumOrigins-1 {
			origin = topo.NodeID(id)
		}
	}
	// A sender tag that transitions to the last local tag.
	sender := int32(-1)
	for u, v := range inTransitions(c.comp, c.prog) {
		if c.ordOf[v] == lastOrd && (sender < 0 || int32(u) < sender) {
			sender = int32(u)
		}
	}
	if sender < 0 {
		t.Fatal("no transition into the last virtual node")
	}
	inPort := g.PortTo(sw, comp.PG.Node(pg.NodeID(sender)).Topo)
	p := n.NewPackedProbe(1, c.mvW)
	p.Era = c.Era()
	p.Packed.Append(sim.ProbeEntry{Origin: origin, Tag: sender, Pid: lastPid, Version: 1})
	c.Handle(p, inPort)
	i := c.lookup(c.originIndex(origin), lastOrd, lastPid)
	if i < 0 || int(i) != len(c.fwd)-1 {
		t.Fatalf("the accepted entry %d is not the last register %d", i, len(c.fwd)-1)
	}
	if r := c.rank(i); cap(r.V) != c.rankW || &r.V[:1][0] != &c.slab[len(c.slab)-c.stride+c.mvW] {
		t.Fatal("the last register's rank is not in the last window of the slab")
	}
	if oi, ord, pid := c.unreg(i); comp.Origins[oi] != origin || ord != lastOrd || pid != lastPid {
		t.Fatalf("the last register reads back as (%d, %d, %d), want (%d, %d, %d)",
			comp.Origins[oi], ord, pid, origin, lastOrd, lastPid)
	}
	lastTag := c.prog.VNodes[lastOrd]
	if nh, _, ok := c.Entry(origin, lastTag, lastPid); !ok || nh != inPort {
		t.Fatalf("Entry on the last register = (%d, %v), want port %d", nh, ok, inPort)
	}
	// Tagged data for a host behind that origin, arriving on another port.
	var dstHost topo.NodeID = -1
	for _, h := range g.Hosts() {
		if edge, _ := n.HostEdge(h); edge == origin {
			dstHost = h
		}
	}
	if dstHost < 0 {
		t.Fatalf("origin %d has no host; give it one", origin)
	}
	d := n.NewPacket()
	d.Kind, d.TTL, d.Era, d.HasTag = sim.Data, sim.InitialTTL, c.Era(), true
	d.Size, d.Dst, d.FlowID, d.Tag, d.Pid = 1000, dstHost, 9, int32(lastTag), lastPid
	before := n.Totals().Drops[sim.DropNoRoute]
	c.Handle(d, (inPort+1)%len(g.Ports(sw)))
	if got := n.Totals().Drops[sim.DropNoRoute]; got != before {
		t.Fatal("data on the last register's tag was dropped")
	}
	if c.flowlets.Find(flowletKey(lastOrd, lastPid, flowletHash(9, dstHost))) == nil {
		t.Fatal("no flowlet pinned under the highest tag ordinal")
	}
}

// TestRegisterFileMatchesStateAccounting pins the Figure 10 shape: each
// router's FwdT is one file of exactly origins x local tags x pids
// registers with one BestT slot per origin, and core's state accounting
// — which counts only the origins whose probes can reach the switch —
// never claims more than the file holds.
func TestRegisterFileMatchesStateAccounting(t *testing.T) {
	for _, tc := range []struct {
		name   string
		g      *topo.Graph
		policy string
	}{
		{"fattree:4:2", topo.Fattree(4, 2), "minimize(path.util)"},
		{"fattree:4:2 one destination", topo.Fattree(4, 2), "minimize(if .* e3_1 then path.util else inf)"},
		{"abilene+hosts", topo.AbileneWithHosts(0), diffPolicyWide},
		{"abilene+hosts two pids", topo.AbileneWithHosts(0), "minimize(if path.util < .8 then (1, 0, path.util) else (2, path.len, path.util))"},
	} {
		comp := compileOn(t, tc.g, tc.policy, core.Options{})
		origins := 0
		for _, sw := range tc.g.Switches() {
			if comp.Switch(sw).Origin != nil {
				origins++
			}
		}
		if comp.NumOrigins != origins {
			t.Fatalf("%s: NumOrigins = %d, %d switches originate probes", tc.name, comp.NumOrigins, origins)
		}
		for _, sw := range tc.g.Switches() {
			c, prog := New(comp, sw), comp.Switch(sw)
			want := comp.NumOrigins * len(prog.VNodes) * comp.Analysis.NumPids()
			floats := want * (len(comp.Analysis.MV) + comp.Policy.Width)
			if len(c.fwd) != want || len(c.best) != comp.NumOrigins || len(c.slab) != floats {
				t.Fatalf("%s %s: %d registers, %d BestT slots, %d slab floats; want %d, %d, %d", tc.name, tc.g.Node(sw).Name,
					len(c.fwd), len(c.best), len(c.slab), want, comp.NumOrigins, floats)
			}
			if accounted := prog.ReachableOrigins * len(prog.VNodes) * comp.Analysis.NumPids(); want < accounted {
				t.Fatalf("%s %s: the file holds %d registers, core accounts for %d", tc.name, tc.g.Node(sw).Name, want, accounted)
			}
		}
	}
}

// TestStaleEraPacketsAfterShrinkingInstall installs a policy whose
// product graph is smaller than the running one and then delivers what
// was still in flight: probes and tagged data stamped with the old era
// and carrying tags, pids that no longer exist. The era check disposes
// of them before any table is indexed; the same fields forged under the
// new era still only miss.
func TestStaleEraPacketsAfterShrinkingInstall(t *testing.T) {
	g := withHosts(topo.Abilene(), "ATL", "SEA")
	opts := core.Options{ProbePacking: true, SuppressEps: 0.02}
	e, n, routers, wide := deployOpts(t, g, diffPolicyWide, opts, 12)
	narrow := compileOn(t, g, diffPolicyNarrow, opts)
	sw := g.MustNode("ATL")
	c := routers[sw]
	// The highest tag and pid of the old program: past the end of the new.
	oldTag := int32(wide.PG.NumNodes() - 1)
	oldPid := uint8(wide.Analysis.NumPids() - 1)
	if int(oldTag) < narrow.PG.NumNodes() || int(oldPid) < narrow.Analysis.NumPids() {
		t.Fatal("the narrow policy does not shrink the tag and pid spaces")
	}
	oldEra := c.Era()
	for _, s := range g.Switches() {
		routers[s].Install(narrow, oldEra+1)
	}
	inPort := g.PortTo(sw, g.MustNode("HOU"))
	drops := func(r sim.DropReason) int64 { return n.Totals().Drops[r] }
	probe := func(era uint8, packed bool) *sim.Packet {
		if packed {
			p := n.NewPackedProbe(1, c.mvW)
			p.Era = era
			p.Packed.Append(sim.ProbeEntry{Origin: g.MustNode("SEA"), Tag: oldTag, Pid: oldPid, Version: 9})
			return p
		}
		p := n.NewPacket()
		p.Kind, p.TTL, p.Era = sim.Probe, sim.InitialTTL, era
		p.Origin, p.Tag, p.Pid, p.Version = g.MustNode("SEA"), oldTag, oldPid, 9
		return p
	}
	for _, packed := range []bool{false, true} {
		before := drops(sim.DropProbeStale)
		c.Handle(probe(oldEra, packed), inPort)
		if got := drops(sim.DropProbeStale); got != before+1 {
			t.Fatalf("old-era probe (packed=%v): drop_probe_stale went %v -> %v, want +1", packed, before, got)
		}
	}
	before := drops(sim.DropProbeNoTrans)
	c.Handle(probe(c.Era(), false), inPort)
	c.Handle(probe(c.Era(), true), inPort) // the entry is skipped, the packet is not a drop
	if got := drops(sim.DropProbeNoTrans); got != before+1 {
		t.Fatalf("new-era probe with a retired tag: drop_probe_notrans went %v -> %v, want +1", before, got)
	}
	if len(c.LiveRoutes()) != 0 {
		t.Fatal("retired tags taught the freshly flushed router a route")
	}

	// Re-converge under the new policy, then old-era tagged data is
	// re-decided from BestT (not dropped), and the retired tag under the
	// new era finds nothing.
	e.Run(e.Now() + 12*narrow.Opts.ProbePeriodNs)
	data := func(era uint8) *sim.Packet {
		p := n.NewPacket()
		p.Kind, p.TTL, p.Era, p.HasTag = sim.Data, sim.InitialTTL, era, true
		p.Size, p.Dst, p.FlowID, p.Tag, p.Pid = 1000, g.MustNode("HSEA"), 77, oldTag, oldPid
		return p
	}
	before = drops(sim.DropNoRoute)
	c.Handle(data(oldEra), inPort)
	if got := drops(sim.DropNoRoute); got != before {
		t.Fatal("old-era tagged data was dropped instead of re-decided at this switch")
	}
	c.Handle(data(c.Era()), inPort)
	if got := drops(sim.DropNoRoute); got != before+1 {
		t.Fatalf("new-era data with a retired tag: drop_noroute went %v -> %v, want +1", before, got)
	}
}

// TestProbePathSteadyStateAllocatesNothing is the end-to-end form of
// the per-function zero-alloc tests: on a warmed packed+suppressed
// fabric with no flows, whole probe periods — every switch's flush,
// every packed receive, rank evaluation, BestT upkeep, the engine and
// the packet pool underneath — run without touching the heap.
func TestProbePathSteadyStateAllocatesNothing(t *testing.T) {
	g := topo.Fattree(4, 2)
	opts := core.Options{ProbePacking: true, SuppressEps: 0.02, RefreshEvery: 4}
	e, _, _, comp := deployOpts(t, g, "minimize(path.util)", opts, 64)
	period := comp.Opts.ProbePeriodNs
	allocs := testing.AllocsPerRun(5, func() { e.Run(e.Now() + period) })
	if allocs != 0 {
		t.Fatalf("one probe period on a warmed idle fabric allocates %.1f times, want 0", allocs)
	}
}

// TestLoadedFabricSteadyStateAllocatesNothing is the loaded form of the
// test above, and the one a campaign cell actually resembles: the same
// warmed packed + suppressed fabric, now carrying long-lived flows
// between pods (so data and ACK packets are freed into the packet pool
// between every two flushes) and two flows paced slower than the flowlet
// timeout, one of them slower than the sweep horizon (so every one of
// their packets re-decides its flowlet and source pin, and the sweep
// deletes and the next packet re-inserts). Whole probe periods — sweeps
// included — must still run without touching the heap.
func TestLoadedFabricSteadyStateAllocatesNothing(t *testing.T) {
	g := topo.Fattree(4, 2)
	opts := core.Options{ProbePacking: true, SuppressEps: 0.02, RefreshEvery: 4}
	e, n, _, comp := deployOpts(t, g, "minimize(path.util)", opts, 64)
	period := comp.Opts.ProbePeriodNs
	host := func(name string) topo.NodeID { return g.MustNode(name) }
	const wire = (sim.MSS + sim.FrameHeader) * 8 // bits per CBR packet
	pace := func(gapNs int64) float64 { return wire / float64(gapNs) * 1e9 }
	now := e.Now()
	n.StartFlows([]sim.FlowSpec{
		{ID: 1, Src: host("h0_0_0"), Dst: host("h1_0_0"), Size: 1 << 32, Start: now},
		{ID: 2, Src: host("h2_1_1"), Dst: host("h0_1_0"), Size: 1 << 32, Start: now},
		{ID: 3, Src: host("h1_1_0"), Dst: host("h3_0_1"), RateBps: 2e9, Start: now},
		{ID: 4, Src: host("h3_1_1"), Dst: host("h2_0_0"), RateBps: 1e9, Start: now},
		// Flowlets time out between packets; the entries survive the sweep.
		{ID: 5, Src: host("h0_0_1"), Dst: host("h2_0_1"), RateBps: pace(3 * comp.Opts.FlowletTimeoutNs / 2), Start: now},
		// Swept between packets (the sweep horizon is 4 flowlet timeouts).
		{ID: 6, Src: host("h1_0_1"), Dst: host("h3_1_0"), RateBps: pace(24 * comp.Opts.FlowletTimeoutNs), Start: now},
	})
	var delivered int
	n.OnHostRx = func(*sim.Packet) { delivered++ }
	e.Run(e.Now() + 256*period) // windows open, queues and tables reach their working size
	if delivered == 0 {
		t.Fatal("no traffic delivered: the fabric under test is idle")
	}
	// One run, so the count is exact (AllocsPerRun divides in integers);
	// 64 periods cover four flowlet sweeps.
	allocs := testing.AllocsPerRun(1, func() { e.Run(e.Now() + 64*period) })
	if allocs != 0 {
		t.Fatalf("64 probe periods on a warmed, loaded fabric allocate %.0f times, want 0", allocs)
	}
}

// ---- the map reference ----

// refEntry is fwdEntry as it was when FwdT was map[fwdKey]*fwdEntry
// (minus the runner-up shadow, which only decision tracing maintains).
type refEntry struct {
	mv      [4]float64
	ntag    pg.NodeID
	nhop    int
	version uint32
	updated int64
	rank    policy.Rank

	pending   bool
	advValid  bool
	advNhop   int
	advNtag   pg.NodeID
	lastAdvAt int64
	lastAdvMV [4]float64
}

// refTables is the probe-learned state of one router, keyed by hash
// maps. It borrows everything static from the router under test (the
// compiled program, the horizons, the switch device for the clock and
// the link metrics) and shares none of its tables.
type refTables struct {
	c *Contra

	inTrans   map[pg.NodeID]pg.NodeID // the program's tag transitions and
	probeOut  map[pg.NodeID][]int     // probe-out ports, keyed by virtual node
	fwd       map[fwdKey]*refEntry
	best      map[topo.NodeID]fwdKey
	pend      [][]fwdKey
	lastProbe []int64
	version   uint32
	ev        *analysis.Evaluator

	sent [][]emission // by egress port, what the router must have emitted
}

func newRefTables(c *Contra) *refTables {
	r := &refTables{c: c}
	r.flushTables()
	return r
}

// inTransitions is the map Compile built for a switch program before it
// went flat: a probe carrying sender tag u moves to the program's virtual
// node v.
func inTransitions(comp *core.Compiled, prog *core.SwitchProgram) map[pg.NodeID]pg.NodeID {
	m := make(map[pg.NodeID]pg.NodeID)
	for _, v := range prog.VNodes {
		for _, u := range comp.PG.In(v) {
			m[u] = v
		}
	}
	return m
}

// probeOutMap is the program's probe-out map as Compile built it: each
// virtual node's ports toward its product graph successors, sorted.
func probeOutMap(comp *core.Compiled, prog *core.SwitchProgram) map[pg.NodeID][]int {
	m := make(map[pg.NodeID][]int)
	for _, v := range prog.VNodes {
		var ports []int
		for _, u := range comp.PG.Out(v) {
			if port := comp.Topo.PortTo(prog.Switch, comp.PG.Node(u).Topo); port >= 0 {
				ports = append(ports, port)
			}
		}
		slices.Sort(ports)
		m[v] = ports
	}
	return m
}

func (r *refTables) attach(sw *sim.SwitchDev) {
	r.lastProbe = make([]int64, sw.PortCount())
	r.pend = make([][]fwdKey, sw.PortCount())
	r.sent = make([][]emission, sw.PortCount())
	period := r.c.comp.Opts.ProbePeriodNs
	tick := r.originate
	if r.c.packing {
		tick = r.flush
	}
	sw.Net.Eng.Every(originStagger(r.c.prog.Switch, period), period, sim.TickFunc(tick))
}

// originate is the unpacked probe generator: one probe per pid per
// out-port of the sending state.
func (r *refTables) originate() {
	org := r.c.prog.Origin
	if org == nil {
		return
	}
	r.version++
	for _, pid := range org.Pids {
		for _, port := range r.probeOut[org.VNode] {
			r.sent[port] = append(r.sent[port], emission{entries: []wireEntry{{
				origin: r.c.prog.Switch, tag: int32(org.VNode), pid: uint8(pid), version: r.version,
			}}})
		}
	}
}

func (r *refTables) now() int64 { return r.c.sw.Now() }

func (r *refTables) expired(e *refEntry) bool { return r.now()-e.updated > r.c.expireNs }

func (r *refTables) portDead(port int) bool {
	now := r.now()
	return now-r.lastProbe[port] > r.c.deadNs && now > r.c.deadNs
}

func (r *refTables) alive(e *refEntry) bool { return !r.expired(e) && !r.portDead(e.nhop) }

// handle is handleProbe/handlePacked over the maps.
func (r *refTables) handle(packed bool, entries []wireEntry, inPort int, era uint8) {
	c := r.c
	now := r.now()
	r.lastProbe[inPort] = now
	if era != c.era {
		return
	}
	for _, en := range entries {
		if en.origin == c.prog.Switch {
			continue
		}
		v, ok := r.inTrans[pg.NodeID(en.tag)]
		if !ok {
			continue
		}
		mv := en.mv
		for i, m := range c.res.MV {
			switch m {
			case policy.Util:
				if u := c.sw.TxUtil(inPort); u > mv[i] {
					mv[i] = u
				}
			case policy.Lat:
				mv[i] += float64(c.sw.PortDelay(inPort)) / 1e9
			case policy.Len:
				mv[i]++
			}
		}
		key := fwdKey{origin: en.origin, vnode: v, pid: en.pid}
		e := r.fwd[key]
		accept := false
		switch {
		case e == nil:
			accept = true
		case en.version < e.version:
		case inPort == e.nhop && pg.NodeID(en.tag) == e.ntag:
			accept = true
		case r.expired(e):
			accept = true
		default:
			w := len(c.res.MV)
			accept = r.ev.BetterRank(int(en.pid), mv[:w], e.mv[:w])
		}
		if !accept {
			continue
		}
		if e == nil {
			e = &refEntry{}
			r.fwd[key] = e
		}
		e.mv, e.ntag, e.nhop, e.version, e.updated = mv, pg.NodeID(en.tag), inPort, en.version, now
		rank := r.ev.EvalPolicy(mv[:len(c.res.MV)], c.comp.PG.Node(v).Accept)
		e.rank = policy.Rank{Inf: rank.Inf, V: append([]float64(nil), rank.V...)}
		r.updateBest(en.origin, key, e)

		outPorts := r.probeOut[v]
		if len(outPorts) == 0 || (packed && e.pending) {
			continue
		}
		if c.suppressOn && r.suppressAdvert(e, now) {
			continue
		}
		if c.suppressOn {
			r.recordAdvert(e, now)
		}
		if packed {
			e.pending = true
			for _, port := range outPorts {
				r.pend[port] = append(r.pend[port], key)
			}
			continue
		}
		for _, port := range outPorts {
			r.sent[port] = append(r.sent[port], emission{entries: []wireEntry{{en.origin, int32(v), en.pid, en.version, mv}}})
		}
	}
}

func (r *refTables) suppressAdvert(e *refEntry, now int64) bool {
	if !e.advValid || e.advNhop != e.nhop || e.advNtag != e.ntag {
		return false
	}
	if now-e.lastAdvAt >= r.c.refreshNs {
		return false
	}
	for i := 0; i < len(r.c.res.MV); i++ {
		if d := math.Abs(e.mv[i] - e.lastAdvMV[i]); d > r.c.suppressEps {
			return false
		}
	}
	return true
}

func (r *refTables) recordAdvert(e *refEntry, now int64) {
	e.advValid, e.advNhop, e.advNtag, e.lastAdvAt, e.lastAdvMV = true, e.nhop, e.ntag, now, e.mv
}

// flush is flushPacked over the maps: every pending key is looked up
// again, per port, as it was.
func (r *refTables) flush() {
	c := r.c
	org := c.prog.Origin
	if org != nil {
		r.version++
	}
	for port, fp := range c.flushPorts {
		if !fp.adv {
			continue
		}
		em := emission{packed: true}
		if org != nil && fp.origin {
			for _, pid := range org.Pids {
				em.entries = append(em.entries, wireEntry{origin: c.prog.Switch, tag: int32(org.VNode), pid: uint8(pid), version: r.version})
			}
		}
		for _, key := range r.pend[port] {
			if e := r.fwd[key]; e != nil {
				em.entries = append(em.entries, wireEntry{key.origin, int32(key.vnode), key.pid, e.version, e.mv})
			}
		}
		r.sent[port] = append(r.sent[port], em)
	}
	now := r.now()
	for port := range r.pend {
		for _, key := range r.pend[port] {
			if e := r.fwd[key]; e != nil {
				e.pending = false
				if c.suppressOn {
					r.recordAdvert(e, now)
				}
			}
		}
		r.pend[port] = r.pend[port][:0]
	}
}

func (r *refTables) updateBest(origin topo.NodeID, key fwdKey, e *refEntry) {
	cur, ok := r.best[origin]
	if !ok || cur == key {
		r.rescanBest(origin)
		return
	}
	curE := r.fwd[cur]
	if curE == nil || !r.alive(curE) || e.rank.Better(curE.rank) {
		r.rescanBest(origin)
	}
}

func (r *refTables) rescanBest(origin topo.NodeID) {
	bestRank := policy.Infinite()
	var bestKey fwdKey
	found := false
	for _, v := range r.c.prog.VNodes {
		for pid := 0; pid < r.c.res.NumPids(); pid++ {
			key := fwdKey{origin: origin, vnode: v, pid: uint8(pid)}
			e := r.fwd[key]
			if e == nil || !r.alive(e) {
				continue
			}
			if !found || e.rank.Better(bestRank) {
				bestRank, bestKey, found = e.rank, key, true
			}
		}
	}
	if found && !bestRank.IsInf() {
		r.best[origin] = bestKey
	} else {
		delete(r.best, origin)
	}
}

func (r *refTables) bestEntry(dst topo.NodeID) (pg.NodeID, uint8, policy.Rank, bool) {
	key, ok := r.best[dst]
	if !ok {
		r.rescanBest(dst)
		if key, ok = r.best[dst]; !ok {
			return 0, 0, policy.Infinite(), false
		}
	}
	return key.vnode, key.pid, r.fwd[key].rank, true
}

func (r *refTables) bestHop(dst topo.NodeID) int {
	if key, ok := r.best[dst]; ok {
		return r.fwd[key].nhop
	}
	return -1
}

func (r *refTables) hasRoute(dst topo.NodeID) bool {
	if key, ok := r.best[dst]; ok && r.alive(r.fwd[key]) {
		return true
	}
	r.rescanBest(dst)
	key, ok := r.best[dst]
	return ok && r.alive(r.fwd[key])
}

func (r *refTables) liveRoutes() []topo.NodeID {
	var out []topo.NodeID
	for dst, key := range r.best {
		if r.alive(r.fwd[key]) {
			out = append(out, dst)
		}
	}
	slices.Sort(out)
	return out
}

// entry is lookupAlive over the maps.
func (r *refTables) entry(dst topo.NodeID, v pg.NodeID, pid uint8) (int, pg.NodeID, bool) {
	if e := r.fwd[fwdKey{dst, v, pid}]; e != nil && r.alive(e) {
		return e.nhop, e.ntag, true
	}
	for p := 0; p < r.c.res.NumPids(); p++ {
		if uint8(p) == pid {
			continue
		}
		if e := r.fwd[fwdKey{dst, v, uint8(p)}]; e != nil && r.alive(e) {
			return e.nhop, e.ntag, true
		}
	}
	return -1, 0, false
}

func (r *refTables) reboot() {
	r.flushTables()
	clear(r.lastProbe)
	r.version = 0
}

// flushTables is what Install and Reboot do to the maps; on an install
// the router under test has already swapped the program the reference
// reads through it, and the program's maps are rebuilt.
func (r *refTables) flushTables() {
	r.inTrans, r.probeOut = inTransitions(r.c.comp, r.c.prog), probeOutMap(r.c.comp, r.c.prog)
	r.fwd = map[fwdKey]*refEntry{}
	r.best = map[topo.NodeID]fwdKey{}
	r.ev = r.c.res.NewEvaluator()
	for i := range r.pend {
		r.pend[i] = r.pend[i][:0]
	}
}
