package scenario

import (
	"encoding/json"
	"errors"
	"testing"

	"contra/internal/sim"
)

// TestCellsRecycleSlabsWithoutChangingResults runs cells back to back
// in one process, as a campaign worker does: a WAN cell, an ECMP
// fat-tree cell on the first one's packet slabs, then the WAN cell again
// on slabs both have used. The WAN cell's result must not move by a
// byte.
func TestCellsRecycleSlabsWithoutChangingResults(t *testing.T) {
	wan := fct("abilene+hosts", SchemeContra, "websearch", 0.3, 2_000_000, 30, 6)
	wan.Workload.CapacityBps = 40e9
	wan.Policy = "minimize(if .* KC .* then (path.util, path.lat) else (1000, path.lat))"
	encode := func(s Scenario) []byte {
		res, err := Run(s)
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	first := encode(wan)
	encode(fct("fattree:4:2", SchemeECMP, "cache", 0.4, 3_000_000, 200, 1))
	if again := encode(wan); string(again) != string(first) {
		t.Fatalf("the WAN cell's result moved when it ran on recycled slabs:\nfirst %s\nagain %s", first, again)
	}
}

// TestOnlyAnAuditedCellHandsOnItsSlabs fails a cell's audit and checks
// that its network was not released (it can still draw a packet),
// while a cell that passes releases its own (drawing panics).
func TestOnlyAnAuditedCellHandsOnItsSlabs(t *testing.T) {
	defer func(audit func(*sim.Network) error) { auditNetwork = audit }(auditNetwork)
	released := func(n *sim.Network) (panicked bool) {
		defer func() { panicked = recover() != nil }()
		n.NewPacket()
		return false
	}
	for _, fail := range []bool{false, true} {
		var net *sim.Network
		auditNetwork = func(n *sim.Network) error {
			net = n
			if fail {
				return errors.New("injected audit failure")
			}
			return n.Audit()
		}
		_, err := Run(fct("fattree:4:2", SchemeECMP, "cache", 0.4, 2_000_000, 50, 1))
		if fail != (err != nil) {
			t.Fatalf("audit failing %v: Run returned %v", fail, err)
		}
		if net == nil {
			t.Fatal("the cell never reached its audit")
		}
		if got := released(net); got == fail {
			t.Errorf("audit failing %v: the network was released %v, want %v", fail, got, !fail)
		}
	}
}
