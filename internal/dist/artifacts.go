package dist

import (
	"fmt"
	"os"
	"path/filepath"

	"contra/internal/cliutil"
	"contra/internal/flowtrace"
)

// Artifacts names the directories a cell's per-cell artifacts go to, one
// file per cell named by flowtrace.FileStem of the cell name. An empty
// dir writes nothing. Every mode that runs cells (in-memory, sharded,
// fleet, fabric worker) takes this one value and writes the same bytes;
// dirs may be shared between shards and workers, since cell names are
// unique, content is deterministic, and writes are atomic.
type Artifacts struct {
	// Flow receives <cell>.flow.jsonl, the v1 flow trace, and turns flow
	// recording on for every cell run (scenario.RecordFlows never crosses
	// a wire or enters a key, so the runner sets it from this).
	Flow string
	// Trace receives <cell>.jsonl, the decision trace of a cell whose
	// scenario has a trace level.
	Trace string
	// Metrics receives <cell>.jsonl, the link telemetry of a cell whose
	// scenario has a metrics interval.
	Metrics string
}

// Prepare creates the dirs, after rejecting the one pairing that would
// silently lose data: Trace and Metrics both write <cell>.jsonl.
func (a Artifacts) Prepare() error {
	if a.Trace != "" && filepath.Clean(a.Trace) == filepath.Clean(a.Metrics) {
		return fmt.Errorf("dist: -trace-dir and -metrics-dir both name %s, where each writes <cell>.jsonl and the second would overwrite the first; give them separate dirs", filepath.Clean(a.Trace))
	}
	for _, dir := range []string{a.Flow, a.Trace, a.Metrics} {
		if dir == "" {
			continue
		}
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	return nil
}

// write puts the cell's artifacts on disk. With no dir set, or a failed
// cell, it touches nothing.
func (a Artifacts) write(rec *Record) error {
	res := rec.Result
	if res == nil || a == (Artifacts{}) {
		return nil
	}
	name := rec.Scenario.Name
	file := flowtrace.FileStem(name) + ".jsonl"
	var err error
	if a.Flow != "" && res.FlowTrace != nil {
		err = res.FlowTrace.WriteFile(filepath.Join(a.Flow, flowtrace.FileName(name)))
	}
	if err == nil && a.Trace != "" && res.Trace != nil {
		err = cliutil.WriteFileAtomic(filepath.Join(a.Trace, file), res.Trace.WriteJSONL)
	}
	if err == nil && a.Metrics != "" && res.Metrics != nil {
		err = cliutil.WriteFileAtomic(filepath.Join(a.Metrics, file), res.Metrics.WriteJSONL)
	}
	if err != nil {
		return fmt.Errorf("dist: writing artifacts of %s: %v", name, err)
	}
	return nil
}

// Commit is the one cell-completion step, under every campaign mode:
// artifacts first, then the record into the sink, then the checkpoint
// mark (ck may be nil). A crash between any two re-runs the cell, and
// the re-run rewrites identical bytes and Merge drops the duplicate
// record by key — so a cell the checkpoint calls done always has its
// artifacts and its record durable.
func Commit(rec *Record, art Artifacts, sink Sink, ck *Checkpoint) error {
	if err := art.write(rec); err != nil {
		return err
	}
	if err := sink.Emit(rec); err != nil {
		return err
	}
	if ck == nil {
		return nil
	}
	return ck.Mark(rec.Key)
}
