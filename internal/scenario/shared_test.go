package scenario

import (
	"bytes"
	"runtime"
	"testing"
)

// TestPreFailedCellLeavesTheSharedGraphAlone runs a clean Contra cell,
// a cell on the same topology and policy that fails a link before its
// routers deploy, and the clean cell again, in one process. The
// pre-failed cell fails its link in a graph of its own: the clean cell
// must encode the same both times, the shared graph must have no link
// down, and the pre-failed cell must encode as it does on an empty memo.
func TestPreFailedCellLeavesTheSharedGraphAlone(t *testing.T) {
	clean := fct("dc", SchemeContra, "cache", 0.3, 3_000_000, 60, 2)
	clean.Observe = Observe{BinNs: 500_000, TraceLevel: "decisions"}
	preFailed := clean
	preFailed.Events = []Event{{Kind: LinkDown, AtNs: 0, Link: "l0-s0"}}
	run := func(s Scenario) []byte {
		t.Helper()
		res, err := Run(s)
		if err != nil {
			t.Fatal(err)
		}
		return encodeResult(t, res)
	}
	ResetShared()
	first := run(clean)
	pre := run(preFailed)
	if again := run(clean); !bytes.Equal(again, first) {
		t.Errorf("the clean cell encodes %d bytes, then %d after a pre-failed cell on its topology, and they differ", len(first), len(again))
	}
	g, err := sharedTopology(clean.TopoSpec)
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range g.Links() {
		if l.Down {
			t.Errorf("link %d of the shared %s graph is down after a pre-failed cell", l.ID, clean.TopoSpec)
		}
	}
	ResetShared()
	if fresh := run(preFailed); !bytes.Equal(fresh, pre) {
		t.Errorf("the pre-failed cell encodes %d bytes after a clean cell on its topology, %d on an empty memo, and they differ", len(pre), len(fresh))
	}
}

// secondCellAllocs bounds the allocations of a second identical Contra
// cell at fattree:8:1: everything a cell's tables need comes from the
// cell before it, and the topology and program are the ones it built.
// Such a cell allocates about 40 times; compiling its program again
// adds about 70, building its graph again about 160.
const secondCellAllocs = 80

// TestSecondCellSharesItsTopologyAndProgram runs a packed, suppressed
// Contra cell at fattree:8:1 twice and counts the second run's
// allocations.
func TestSecondCellSharesItsTopologyAndProgram(t *testing.T) {
	cell := fct("fattree:8:1", SchemeContra, "websearch", 0.3, 2_000_000, 40, 3)
	cell.Policy = "minimize(path.util)"
	cell.ProbePacking, cell.SuppressEps, cell.RefreshEvery = true, 0.02, 4
	if _, err := Run(cell); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := Run(cell); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	allocs := after.Mallocs - before.Mallocs
	t.Logf("the second cell allocates %d times (%d bytes)", allocs, after.TotalAlloc-before.TotalAlloc)
	if allocs > secondCellAllocs {
		t.Errorf("the second identical cell allocates %d times, past %d: it built its topology or compiled its program again", allocs, secondCellAllocs)
	}
}

// TestSwapBackFindsTheDeployedProgram swaps a Contra cell's policy away
// and back. The swap back recompiles with the running program's filled
// options, and must find the program the cell deployed, not compile and
// keep a second one.
func TestSwapBackFindsTheDeployedProgram(t *testing.T) {
	cell := fct("dc", SchemeContra, "cache", 0.3, 3_000_000, 20, 2)
	cell.Policy = "minimize(path.util)"
	cell.Events = []Event{
		{Kind: PolicySwap, AtNs: 4_000_000, NewPolicy: "minimize(path.len)"},
		{Kind: PolicySwap, AtNs: 5_000_000, NewPolicy: cell.Policy},
	}
	ResetShared()
	if _, err := Run(cell); err != nil {
		t.Fatal(err)
	}
	if graphs, programs := SharedSizes(); graphs != 1 || programs != 2 {
		t.Errorf("a cell that swaps %s away and back left %d graphs and %d programs, want 1 and 2", cell.Policy, graphs, programs)
	}
}
