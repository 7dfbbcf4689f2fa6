package fabric

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"contra/internal/campaign"
	"contra/internal/dist"
)

// WorkerOptions tunes one worker process.
type WorkerOptions struct {
	// Dir is the worker's local durability directory (required): a
	// results.jsonl record stream and a done.ck key checkpoint. Every
	// completed cell is written there before it is uploaded, so a
	// worker killed at any instant re-sends finished results on
	// restart instead of re-running them. Reusing another (live)
	// worker's Dir is not supported.
	Dir string

	// WaitInterval is the idle poll interval when the coordinator has
	// nothing to lease; <= 0 defers to the coordinator's suggestion
	// (falling back to 500ms).
	WaitInterval time.Duration

	// Artifacts names the dirs each leased cell's flow trace, decision
	// trace and telemetry are written to, before the record is locally
	// durable (dist.Commit).
	Artifacts dist.Artifacts

	// crash, when set (fault-injection tests only), is consulted at
	// the named stages; returning true makes the worker die on the
	// spot with ErrWorkerCrashed, exactly as abruptly as a kill -9
	// minus the process exit.
	crash func(stage crashStage, key string) bool
}

// crashStage names the fault-injection points of a worker's cell loop.
type crashStage string

const (
	// crashLeased: a cell is leased but nothing ran yet — the lease
	// must expire and the cell re-run elsewhere.
	crashLeased crashStage = "leased"
	// crashRecorded: the cell ran and its record is locally durable,
	// but the upload never happened — a restarted worker must re-send
	// it without re-running.
	crashRecorded crashStage = "recorded"
)

// ErrWorkerCrashed is returned by RunWorker when the test-only crash
// hook fires; real crashes don't return at all.
var ErrWorkerCrashed = errors.New("fabric: worker crashed (injected)")

// WorkerStats summarizes one worker incarnation.
type WorkerStats struct {
	// Ran is how many cells this incarnation executed.
	Ran int
	// Resent is how many locally-checkpointed results were delivered
	// without re-running (the crash/resume path).
	Resent int
	// Failed is how many of Ran ended in a scenario error (including
	// cell timeouts).
	Failed int
}

// RunWorker drives one worker against a coordinator until the
// campaign completes, the context ends, or delivery permanently
// fails. The loop is: poll for a lease, run the cell (bounded by the
// grant's cell timeout, heartbeating at half the lease TTL), write the
// record locally, then upload with retry. At-least-once is the contract: on
// any ambiguity (lost lease, retried upload, restart) the worker errs
// toward delivering again and lets the coordinator deduplicate.
func RunWorker(ctx context.Context, client *Client, opts WorkerOptions) (WorkerStats, error) {
	var st WorkerStats
	if opts.Dir == "" {
		return st, fmt.Errorf("fabric: worker needs a durability dir")
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return st, err
	}
	if err := opts.Artifacts.Prepare(); err != nil {
		return st, err
	}
	streamPath := filepath.Join(opts.Dir, "results.jsonl")
	ckPath := filepath.Join(opts.Dir, "done.ck")

	// Load what previous incarnations finished; their records re-send
	// below (the coordinator may have restarted and lost them, or
	// deduplicate them in one round trip).
	local, err := loadLocalRecords(streamPath)
	if err != nil {
		return st, err
	}
	sink, err := dist.CreateJSONL(streamPath, true)
	if err != nil {
		return st, err
	}
	defer sink.Close()
	ck, err := dist.OpenCheckpoint(ckPath)
	if err != nil {
		return st, err
	}
	defer ck.Close()
	// Only keys whose records are actually durable count as done
	// (same cross-check as the shard resume path).
	ck.Retain(func(k string) bool { _, ok := local[k]; return ok })

	for key, rec := range local {
		if err := client.Result(ctx, 0, rec); err != nil {
			return st, fmt.Errorf("fabric: re-send %s: %w", key, err)
		}
		st.Resent++
	}

	for {
		if err := ctx.Err(); err != nil {
			return st, err
		}
		resp, err := client.Lease(ctx)
		if err != nil {
			return st, err
		}
		switch resp.Status {
		case StatusDone:
			return st, nil
		case StatusWait:
			if err := waitCtx(ctx, opts.waitFor(resp.RetryNs)); err != nil {
				return st, err
			}
			continue
		case StatusLease:
			// handled below
		default:
			return st, fmt.Errorf("fabric: unknown lease status %q", resp.Status)
		}
		g := resp.Grant
		if g.Scenario == nil {
			return st, fmt.Errorf("fabric: grant %d carries no scenario", g.LeaseID)
		}
		if got := g.Scenario.Key(); got != g.Key {
			// Version skew between worker and coordinator binaries: the
			// scenario hashed differently here. Running it would poison
			// the campaign's determinism contract, so die loudly.
			return st, fmt.Errorf("fabric: cell %d key mismatch: coordinator %s, worker computes %s",
				g.Index, g.Key, got)
		}
		if rec, ok := local[g.Key]; ok {
			// A cell this worker already ran came back (the coordinator
			// restarted and its stream lost the record, or the earlier
			// re-send raced): deliver the stored record, don't re-run.
			if err := client.Result(ctx, g.LeaseID, rec); err != nil {
				return st, fmt.Errorf("fabric: re-send %s: %w", g.Key, err)
			}
			st.Resent++
			continue
		}
		if opts.crash != nil && opts.crash(crashLeased, g.Key) {
			return st, ErrWorkerCrashed
		}
		rec, err := runLeased(ctx, client, g, sink, ck, opts)
		if err != nil {
			return st, err
		}
		local[g.Key] = rec
		if opts.crash != nil && opts.crash(crashRecorded, g.Key) {
			return st, ErrWorkerCrashed
		}
		if err := client.Result(ctx, g.LeaseID, rec); err != nil {
			return st, fmt.Errorf("fabric: deliver %s: %w", g.Key, err)
		}
		st.Ran++
		if rec.Err != "" {
			st.Failed++
		}
	}
}

// runLeased executes one granted cell through the campaign.Stream /
// dist.Sink path, heartbeating until the run completes, and returns
// the locally-durable record.
func runLeased(ctx context.Context, client *Client, g *Grant, sink dist.Sink, ck *dist.Checkpoint, opts WorkerOptions) (*dist.Record, error) {
	hbStop := make(chan struct{})
	hbDone := make(chan struct{})
	go func() {
		defer close(hbDone)
		interval := HeartbeatInterval(time.Duration(g.TTLNs))
		if interval <= 0 {
			interval = HeartbeatInterval(DefaultLeaseTTL)
		}
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-hbStop:
				return
			case <-ctx.Done():
				return
			case <-t.C:
				// A lost lease (a long GC pause or partition) does not
				// stop the cell: the result still uploads, and dedup
				// resolves the race with whoever re-leased it.
				_ = client.Heartbeat(ctx, g.LeaseID)
			}
		}
	}()
	defer func() { close(hbStop); <-hbDone }()

	var rec *dist.Record
	job := campaign.Job{Index: g.Index, Scenario: *g.Scenario}
	job.Scenario.RecordFlows = opts.Artifacts.Flow != ""
	err := campaign.Stream([]campaign.Job{job},
		campaign.Options{Workers: 1, CellTimeout: time.Duration(g.CellNs)},
		func(j *campaign.Job, o *campaign.Outcome) error {
			rec = &dist.Record{
				Campaign: g.Campaign,
				Key:      g.Key,
				Index:    j.Index,
				Scenario: &j.Scenario,
				Result:   o.Result,
				Err:      o.Err,
			}
			// Local durability before any upload.
			return dist.Commit(rec, opts.Artifacts, sink, ck)
		})
	if err != nil {
		return nil, err
	}
	if rec == nil {
		return nil, fmt.Errorf("fabric: cell %d emitted no outcome", g.Index)
	}
	return rec, nil
}

// waitFor resolves the idle poll delay from the coordinator's
// suggestion and the local override.
func (o WorkerOptions) waitFor(retryNs int64) time.Duration {
	if o.WaitInterval > 0 {
		return o.WaitInterval
	}
	if retryNs > 0 {
		return time.Duration(retryNs)
	}
	return 500 * time.Millisecond
}

// loadLocalRecords reads a worker's durable record stream into a
// by-key map; a missing file is an empty map.
func loadLocalRecords(path string) (map[string]*dist.Record, error) {
	recs, err := dist.ReadRecordsFile(path)
	if os.IsNotExist(err) {
		return map[string]*dist.Record{}, nil
	}
	if err != nil {
		return nil, err
	}
	out := make(map[string]*dist.Record, len(recs))
	for i := range recs {
		out[recs[i].Key] = &recs[i]
	}
	return out, nil
}

func waitCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
