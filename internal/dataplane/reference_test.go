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
// laid out for: a FwdT register within one cache line, and the loop
// table at 5 KB (4 KB of signatures, 1 KB of TTL ranges).
func TestRegisterLayout(t *testing.T) {
	if n := unsafe.Sizeof(fwdEntry{}); n > 64 {
		t.Errorf("a FwdT register is %d bytes, want at most 64", n)
	}
	if n := unsafe.Sizeof(loopTable{}); n != loopSlots*(8+2) {
		t.Errorf("the loop table is %d bytes, want %d", n, loopSlots*(8+2))
	}
}
