package dist

import (
	"fmt"
	"sort"

	"contra/internal/campaign"
	"contra/internal/scenario"
)

// Collector assembles records into a campaign report. It is the one
// record→Report path: Merge feeds it shard files, and an in-memory
// campaign uses it directly as its Sink. Records are deduplicated by
// canonical scenario key (a crash between stream-write and
// checkpoint-mark makes the resumed run re-emit an identical record)
// and ordered by expansion index, so the report — and the JSON/CSV
// rendered from it — is byte-identical whatever the shard count, worker
// count, completion order, or number of crash/resume cycles.
type Collector struct {
	seen  map[string]*Record
	recs  []*Record
	name  string
	named bool
}

// Emit adds one record, rejecting conflicting duplicates and records
// from different campaigns, which indicate mixed-up shard files.
func (c *Collector) Emit(rec *Record) error {
	if !c.named {
		c.name, c.named = rec.Campaign, true
	} else if rec.Campaign != c.name {
		return fmt.Errorf("dist: record %q mixes campaign %q into a merge of %q", rec.Key, rec.Campaign, c.name)
	}
	if rec.Scenario == nil {
		return fmt.Errorf("dist: record %q has no scenario", rec.Key)
	}
	if prev, ok := c.seen[rec.Key]; ok {
		if prev.Index != rec.Index {
			return fmt.Errorf("dist: key %q at both index %d and %d", rec.Key, prev.Index, rec.Index)
		}
		return nil // duplicate from a crash/resume cycle
	}
	if c.seen == nil {
		c.seen = map[string]*Record{}
	}
	c.seen[rec.Key] = rec
	c.recs = append(c.recs, rec)
	return nil
}

// Close is a no-op; it makes a Collector a Sink.
func (c *Collector) Close() error { return nil }

// Report returns the collected outcomes in expansion order. Missing
// scenarios are tolerated (an unfinished sweep merges to a partial
// report).
func (c *Collector) Report() (*campaign.Report, error) {
	recs := c.recs
	sort.Slice(recs, func(i, j int) bool { return recs[i].Index < recs[j].Index })
	for i := 1; i < len(recs); i++ {
		if recs[i].Index == recs[i-1].Index {
			return nil, fmt.Errorf("dist: two scenarios claim expansion index %d (%q and %q)",
				recs[i].Index, recs[i-1].Key, recs[i].Key)
		}
	}
	report := &campaign.Report{Name: c.name, Outcomes: make([]campaign.Outcome, len(recs))}
	for i, rec := range recs {
		report.Outcomes[i] = campaign.Outcome{
			Scenario: *rec.Scenario,
			Result:   rec.Result,
			Err:      rec.Err,
		}
	}
	return report, nil
}

// Merge folds per-shard record streams back into a campaign report
// through a Collector.
func Merge(paths []string) (*campaign.Report, error) {
	if len(paths) == 0 {
		return nil, fmt.Errorf("dist: nothing to merge")
	}
	var c Collector
	for _, path := range paths {
		fileRecs, err := ReadRecordsFile(path)
		if err != nil {
			return nil, err
		}
		for i := range fileRecs {
			if err := c.Emit(&fileRecs[i]); err != nil {
				return nil, fmt.Errorf("%s: %w", path, err)
			}
		}
	}
	return c.Report()
}

// Schemes lists the distinct schemes of a report in first-appearance
// order — the column order of a comparison table rendered without the
// original spec in hand (the merge CLI path).
func Schemes(r *campaign.Report) []scenario.Scheme {
	var out []scenario.Scheme
	seen := map[scenario.Scheme]bool{}
	for _, o := range r.Outcomes {
		if !seen[o.Scenario.Scheme] {
			seen[o.Scenario.Scheme] = true
			out = append(out, o.Scenario.Scheme)
		}
	}
	return out
}
