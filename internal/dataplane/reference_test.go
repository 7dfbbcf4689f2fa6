package dataplane

import (
	"math/rand"
	"testing"
	"unsafe"

	"contra/internal/core"
	"contra/internal/sim"
	"contra/internal/topo"
)

// This file keeps the bodies the router's register layouts replaced, as
// references the new layouts are driven against.

// refLoopSlot is one slot of the §5.5 loop-detection array as the
// router kept it before the struct-of-arrays loopTable: signature, TTL
// range and set flag side by side, 16 bytes a slot.
type refLoopSlot struct {
	sig    uint64
	minTTL uint8
	maxTTL uint8
	set    bool
}

type refLoopTable [loopSlots]refLoopSlot

// detect is the old Contra.loopDetect body.
func (t *refLoopTable) detect(pkt *sim.Packet) bool {
	sig := pktHash(pkt.FlowID, pkt.Dst, int64(pkt.Seq))
	slot := &t[sig%loopSlots]
	if !slot.set || slot.sig != sig {
		slot.set = true
		slot.sig = sig
		slot.minTTL = pkt.TTL
		slot.maxTTL = pkt.TTL
		return false
	}
	if pkt.TTL < slot.minTTL {
		slot.minTTL = pkt.TTL
	}
	if pkt.TTL > slot.maxTTL {
		slot.maxTTL = pkt.TTL
	}
	if int(slot.maxTTL)-int(slot.minTTL) >= core.LoopTTLDelta {
		slot.set = false // reset after firing
		return true
	}
	return false
}

// TestLoopTableMatchesReference drives the struct-of-arrays loop table
// and the [512]refLoopSlot body with the same random packet streams —
// few enough distinct packets that slots collide and packets revisit,
// TTLs over the whole byte (0 and 255 included, where the folded set bit
// sits at the edge of its encoding), resets from policy installs — and
// requires the same fire/no-fire answer for every packet.
func TestLoopTableMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var got loopTable
		var want refLoopTable
		flows := 1 + rng.Intn(2000)
		fires := 0
		for step := 0; step < 200_000; step++ {
			if rng.Intn(50_000) == 0 {
				got, want = loopTable{}, refLoopTable{}
			}
			pkt := &sim.Packet{
				FlowID: uint64(rng.Intn(flows)),
				Dst:    topo.NodeID(rng.Intn(4)),
				Seq:    int32(rng.Intn(8)),
			}
			switch rng.Intn(4) {
			case 0:
				pkt.TTL = uint8(rng.Intn(256))
			case 1:
				pkt.TTL = []uint8{0, 1, 254, 255}[rng.Intn(4)]
			default: // a packet walking a path: TTLs near each other
				pkt.TTL = uint8(60 - rng.Intn(2*core.LoopTTLDelta))
			}
			g, w := got.detect(pktHash(pkt.FlowID, pkt.Dst, int64(pkt.Seq)), pkt.TTL), want.detect(pkt)
			if g != w {
				t.Fatalf("seed %d step %d: packet %+v fired %v, reference %v", seed, step, *pkt, g, w)
			}
			if g {
				fires++
			}
		}
		if fires == 0 {
			t.Fatalf("seed %d: the detector never fired: the comparison was vacuous", seed)
		}
	}
}

// TestRegisterLayout holds the sizes the router's per-switch state is
// laid out for: a FwdT register and a suppression snapshot at 24 bytes
// each, their metric vectors living in the float slab; a packed probe's
// entry at 16 bytes, its vector in the buffer's float array; and the
// loop table at 5 KB (4 KB of signatures, 1 KB of TTL ranges).
func TestRegisterLayout(t *testing.T) {
	if n := unsafe.Sizeof(fwdEntry{}); n != 24 {
		t.Errorf("a FwdT register is %d bytes, want 24", n)
	}
	if n := unsafe.Sizeof(advSnap{}); n != 24 {
		t.Errorf("a suppression snapshot is %d bytes, want 24", n)
	}
	if n := unsafe.Sizeof(sim.ProbeEntry{}); n != 16 {
		t.Errorf("a packed probe entry is %d bytes, want 16", n)
	}
	if n := unsafe.Sizeof(loopTable{}); n != loopSlots*(8+2) {
		t.Errorf("the loop table is %d bytes, want %d", n, loopSlots*(8+2))
	}
}

// TestProbeStateSizedByPolicy deploys policies of metric-vector width 1,
// 2 and 3 with packing and suppression on, and holds every router's
// float slab to one window per register — its vector, its rank and the
// vector it last advertised, 2·mvW + rankW floats — and its pending list
// to one address per register at most, with none queued twice.
func TestProbeStateSizedByPolicy(t *testing.T) {
	g := topo.Fattree(4, 2)
	opts := core.Options{ProbePacking: true, SuppressEps: 0.02, RefreshEvery: 3}
	for _, tc := range []struct {
		policy string
		mvW    int
	}{
		{"minimize(path.util)", 1},
		{"minimize((path.util, path.len))", 2},
		{"minimize((path.len, path.lat, path.util))", 3},
	} {
		e, _, routers, comp := deployOpts(t, g, tc.policy, opts, 0)
		if got := len(comp.Analysis.MV); got != tc.mvW {
			t.Fatalf("%s: metric vector width %d, want %d", tc.policy, got, tc.mvW)
		}
		// Stop mid-period, with re-advertisements queued.
		e.Run(10*comp.Opts.ProbePeriodNs + comp.Opts.ProbePeriodNs/2)
		queued := 0
		for _, sw := range g.Switches() {
			c := routers[sw]
			name := g.Node(sw).Name
			if want := len(c.fwd) * (2*tc.mvW + comp.Policy.Width); len(c.slab) != want {
				t.Errorf("%s %s: %d slab floats for %d registers, want %d", tc.policy, name, len(c.slab), len(c.fwd), want)
			}
			if len(c.pend) > len(c.fwd) || cap(c.pend) > len(c.fwd) {
				t.Errorf("%s %s: pending list %d long (room for %d) over %d registers", tc.policy, name, len(c.pend), cap(c.pend), len(c.fwd))
			}
			seen := make(map[int32]bool)
			for _, i := range c.pend {
				if seen[i] || !c.fwd[i].pending {
					t.Fatalf("%s %s: register %d queued twice or not marked pending", tc.policy, name, i)
				}
				seen[i] = true
			}
			queued += len(c.pend)
		}
		if queued == 0 {
			t.Errorf("%s: nothing was pending mid-period; the check saw no list", tc.policy)
		}
	}
}
