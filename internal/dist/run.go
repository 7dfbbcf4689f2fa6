package dist

import (
	"fmt"

	"contra/internal/campaign"
)

// Options tunes one shard's streaming run.
type Options struct {
	// Workers bounds the scenario worker pool; <= 0 means 1.
	Workers int

	// Shard selects this process's slice of the expansion; the zero
	// value runs everything.
	Shard Shard

	// Checkpoint, when set, is consulted before running (completed
	// keys are skipped) and appended to after each record is emitted.
	Checkpoint *Checkpoint

	// Progress, when set, fires after each emitted outcome.
	Progress func(done, total int, o *campaign.Outcome)

	// Started, when set, fires when a worker picks a scenario up
	// (campaign.Options.Started).
	Started func(j *campaign.Job)

	// Artifacts names the per-cell artifact dirs (flow traces, decision
	// traces, telemetry); see Commit for the write ordering. Artifacts
	// shard with their cells: each shard writes only the cells it owns,
	// and a dir's union across shards covers the campaign.
	Artifacts Artifacts
}

// Stats summarizes one shard run.
type Stats struct {
	// Planned is the number of scenarios in this shard.
	Planned int
	// Skipped is how many of them the checkpoint already covered.
	Skipped int
	// Ran is how many executed this run (Planned - Skipped).
	Ran int
	// Failed is how many of Ran ended in a scenario error.
	Failed int
}

// Run executes one shard of a campaign, streaming every outcome to the
// sink as it completes. Scenario failures are recorded, not fatal; a
// sink or checkpoint write error aborts the run (it would otherwise
// lose results silently).
func Run(spec *campaign.Spec, opts Options, sink Sink) (Stats, error) {
	var st Stats
	if sink == nil {
		return st, fmt.Errorf("dist: nil sink")
	}
	if err := opts.Artifacts.Prepare(); err != nil {
		return st, err
	}
	jobs, err := spec.Jobs()
	if err != nil {
		return st, err
	}
	var mine []campaign.Job
	for _, j := range jobs {
		if !opts.Shard.Owns(j.Index) {
			continue
		}
		st.Planned++
		if opts.Checkpoint != nil && opts.Checkpoint.Done(j.Scenario.Key()) {
			st.Skipped++
			continue
		}
		j.Scenario.RecordFlows = opts.Artifacts.Flow != ""
		mine = append(mine, j)
	}
	err = campaign.Stream(mine, campaign.Options{
		Workers: opts.Workers, Progress: opts.Progress, Started: opts.Started,
	},
		func(j *campaign.Job, o *campaign.Outcome) error {
			rec := &Record{
				Campaign: spec.Name,
				Key:      j.Scenario.Key(),
				Index:    j.Index,
				Scenario: &j.Scenario,
				Result:   o.Result,
				Err:      o.Err,
			}
			if err := Commit(rec, opts.Artifacts, sink, opts.Checkpoint); err != nil {
				return err
			}
			st.Ran++
			if o.Err != "" {
				st.Failed++
			}
			return nil
		})
	return st, err
}
