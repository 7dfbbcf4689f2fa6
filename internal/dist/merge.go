package dist

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"sort"

	"contra/internal/campaign"
	"contra/internal/scenario"
)

// Collector assembles records into a campaign report. It is the one
// record→Report path: Merge feeds it record streams, and an in-memory
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

// Merge loads campaign results into one report. It is the only reader
// of results files and takes either kind, sniffed per file: a JSONL
// record stream goes through a Collector (key dedup, expansion order,
// mixed campaigns refused); a report JSON, as WriteJSON wrote it,
// carries no keys, so its outcomes follow as given, in file order, and
// without their scenarios.
func Merge(paths []string) (*campaign.Report, error) {
	if len(paths) == 0 {
		return nil, fmt.Errorf("dist: nothing to merge")
	}
	var c Collector
	var loaded []*campaign.Report
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		report, rerr := decodeReport(data)
		if rerr == nil {
			loaded = append(loaded, report)
			continue
		}
		recs, err := ReadRecords(bytes.NewReader(data))
		if err != nil {
			return nil, fmt.Errorf("%s: not a campaign report (%v) and not a record stream: %v", path, rerr, err)
		}
		for i := range recs {
			if err := c.Emit(&recs[i]); err != nil {
				return nil, fmt.Errorf("%s: %w", path, err)
			}
		}
	}
	report, err := c.Report()
	if err != nil {
		return nil, err
	}
	for _, r := range loaded {
		if report.Name == "" {
			report.Name = r.Name
		}
		report.Outcomes = append(report.Outcomes, r.Outcomes...)
	}
	return report, nil
}

// decodeReport strictly decodes a campaign report JSON. The strictness
// is what tells the two formats apart: a record line carries "key" and
// "index" fields a report does not have.
func decodeReport(data []byte) (*campaign.Report, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var r campaign.Report
	if err := dec.Decode(&r); err != nil {
		return nil, err
	}
	if dec.More() {
		return nil, fmt.Errorf("trailing data after the report object")
	}
	return &r, nil
}

// Schemes lists the distinct schemes of a report in first-appearance
// order — the column order of a comparison table rendered without the
// original spec in hand (the merge CLI path). An outcome that cannot be
// placed (campaign.Outcome.Cell) names no scheme.
func Schemes(r *campaign.Report) []scenario.Scheme {
	var out []scenario.Scheme
	seen := map[scenario.Scheme]bool{}
	for i := range r.Outcomes {
		c, ok := r.Outcomes[i].Cell()
		if ok && !seen[c.Scheme] {
			seen[c.Scheme] = true
			out = append(out, c.Scheme)
		}
	}
	return out
}
