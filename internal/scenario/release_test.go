package scenario

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
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

// recycleCells alternate schemes and sizes, so that each runs on state
// a cell of another shape handed on: contra at fattree:8:1 with every
// artifact on (decision trace, telemetry, queue sampling, a throughput
// series), HULA at fattree:4:2, contra on Abilene, and the first cell
// again.
func recycleCells() []Scenario {
	big := fct("fattree:8:1", SchemeContra, "websearch", 0.4, 2_000_000, 60, 3)
	big.Observe = Observe{BinNs: 500_000, SampleQueues: true, TraceLevel: "decisions", MetricsIntervalNs: 500_000}
	big.ProbePacking = true
	hula := fct("fattree:4:2", SchemeHula, "cache", 0.5, 2_000_000, 80, 4)
	hula.ProbePacking = true
	wan := fct("abilene+hosts", SchemeContra, "websearch", 0.3, 2_000_000, 30, 6)
	wan.Workload.CapacityBps = 40e9
	wan.Policy = "minimize(if .* KC .* then (path.util, path.lat) else (1000, path.lat))"
	return []Scenario{big, hula, wan, big}
}

// encodeResult is everything a Result holds, artifacts included: its
// JSON, the throughput series, the decision trace and the telemetry.
func encodeResult(t *testing.T, res *Result) []byte {
	t.Helper()
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	if err := enc.Encode(res); err != nil {
		t.Fatal(err)
	}
	if err := enc.Encode(res.Series); err != nil {
		t.Fatal(err)
	}
	if res.Trace != nil {
		if err := res.Trace.WriteJSONL(&b); err != nil {
			t.Fatal(err)
		}
	}
	if res.Metrics != nil {
		if err := res.Metrics.WriteJSONL(&b); err != nil {
			t.Fatal(err)
		}
	}
	return b.Bytes()
}

// TestResultsHoldNoRecycledState runs recycleCells back to back in one
// process, as a campaign worker does. Nothing a result holds may alias
// what its cell handed on: the first cell's result, artifacts included,
// must encode the same after the next three ran on its state. And every
// cell must encode as a run of it alone in a fresh process does.
func TestResultsHoldNoRecycledState(t *testing.T) {
	cells := recycleCells()
	if out := os.Getenv("CONTRA_FRESH_CELL_OUT"); out != "" {
		// The fresh process: run the one cell named and write it out.
		i, err := strconv.Atoi(os.Getenv("CONTRA_FRESH_CELL"))
		if err != nil {
			t.Fatal(err)
		}
		res, err := Run(cells[i])
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(out, encodeResult(t, res), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	if testing.Short() {
		t.Skip("runs four cells in fresh processes")
	}
	var first *Result
	got := make([][]byte, len(cells))
	for i, cell := range cells {
		res, err := Run(cell)
		if err != nil {
			t.Fatalf("cell %d: %v", i, err)
		}
		got[i] = encodeResult(t, res)
		if i == 0 {
			first = res
			if res.Trace == nil || res.Metrics == nil || res.Queues == nil || len(res.Series) == 0 {
				t.Fatal("the first cell lacks an artifact it was meant to cover")
			}
		}
	}
	if again := encodeResult(t, first); !bytes.Equal(again, got[0]) {
		t.Errorf("the first cell's result changed while later cells ran on its state: %d bytes, then %d", len(got[0]), len(again))
	}
	for i, cell := range cells {
		out := filepath.Join(t.TempDir(), "cell.out")
		cmd := exec.Command(os.Args[0], "-test.run=^TestResultsHoldNoRecycledState$", "-test.count=1")
		cmd.Env = append(os.Environ(), "CONTRA_FRESH_CELL="+strconv.Itoa(i), "CONTRA_FRESH_CELL_OUT="+out)
		if msg, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("cell %d in a fresh process: %v\n%s", i, err, msg)
		}
		fresh, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got[i], fresh) {
			t.Errorf("cell %d (%s on %s) encodes %d bytes after %d cells in this process, %d in a fresh one, and they differ",
				i, cell.Scheme, cell.TopoSpec, len(got[i]), i, len(fresh))
		}
	}
}
