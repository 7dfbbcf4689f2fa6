// Package agg turns raw per-scenario campaign outcomes into the
// paper's figure data: it groups results by experiment cell —
// (topology, scheme, load, event script) — collapses the seed axis of
// every campaign.Columns entry into mean/stddev/min/max via
// stats.Summary, and renders the aggregate as CSV. The evaluation's
// curves read straight off it: FCT versus offered load from the
// *_fct_ms columns of each (topo, script, scheme) across loads, and
// recovery time after disruptions from recovery_ms, whose summary
// spans every seed and every disruption window.
//
// Aggregation is deterministic: groups are sorted by cell key and
// every column is a pure function of the input results, so the same
// merged campaign yields byte-identical figure data.
package agg

import (
	"encoding/csv"
	"io"
	"sort"
	"strconv"

	"contra/internal/campaign"
	"contra/internal/scenario"
	"contra/internal/stats"
)

// Key identifies one experiment cell: every axis of the campaign
// matrix except the seed, which aggregation collapses.
type Key struct {
	Topo   string
	Scheme scenario.Scheme
	Load   float64
	Script string
}

// Group is one experiment cell with its seed axis collapsed.
type Group struct {
	Key
	// Seeds counts the distinct successful results folded in.
	Seeds int
	// Failed counts outcomes that ended in a scenario error.
	Failed int
	// Sums holds one stats.Summary per entry of campaign.Columns.
	Sums []stats.Summary
}

// Sum returns the summary of the named column.
func (g *Group) Sum(name string) *stats.Summary {
	return &g.Sums[campaign.Columns.Index(name)]
}

// Table is a deterministic, sorted collection of groups.
type Table struct {
	Groups []*Group
}

// FromOutcomes aggregates campaign outcomes, folding every observation
// of every campaign.Columns entry into its cell. A failed outcome counts
// toward Group.Failed when it can be placed (campaign.Outcome.Cell); in
// bare report JSON it cannot, so account for failures from the record
// streams.
func FromOutcomes(outcomes []campaign.Outcome) *Table {
	groups := map[Key]*Group{}
	for i := range outcomes {
		o := &outcomes[i]
		c, ok := o.Cell()
		if !ok {
			continue
		}
		k := Key{c.Topo, c.Scheme, c.Load, c.Script}
		g := groups[k]
		if g == nil {
			g = &Group{Key: k, Sums: make([]stats.Summary, len(campaign.Columns))}
			groups[k] = g
		}
		if o.Result == nil {
			g.Failed++
			continue
		}
		g.Seeds++
		for i := range campaign.Columns {
			for _, v := range campaign.Columns[i].Obs(o.Result) {
				g.Sums[i].Add(v)
			}
		}
	}
	t := &Table{}
	for _, g := range groups {
		t.Groups = append(t.Groups, g)
	}
	sort.Slice(t.Groups, func(i, j int) bool {
		a, b := t.Groups[i], t.Groups[j]
		if a.Topo != b.Topo {
			return a.Topo < b.Topo
		}
		if a.Script != b.Script {
			return a.Script < b.Script
		}
		if a.Load != b.Load {
			return a.Load < b.Load
		}
		return a.Scheme < b.Scheme
	})
	return t
}

// keyCols are the cell-identity columns of the aggregate CSV.
var keyCols = []string{"topo", "script", "load", "scheme", "seeds", "failed"}

func (g *Group) keyRow() []string {
	return []string{
		g.Topo, g.Script, strconv.FormatFloat(g.Load, 'g', -1, 64), string(g.Scheme),
		strconv.Itoa(g.Seeds), strconv.Itoa(g.Failed),
	}
}

func cell(v float64) string { return strconv.FormatFloat(v, 'g', 6, 64) }

// summaryCols renders a stats.Summary as mean/stddev/min/max, blank
// when the metric never applied to the cell.
func summaryCols(s *stats.Summary) []string {
	if s.Count() == 0 {
		return []string{"", "", "", ""}
	}
	return []string{cell(s.Mean()), cell(s.Stddev()), cell(s.Min()), cell(s.Max())}
}

// WriteCSV renders the full aggregate: one row per cell, four columns
// (mean, stddev, min, max) per metric.
func (t *Table) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	header := append([]string{}, keyCols...)
	for _, c := range campaign.Columns {
		header = append(header,
			c.Name+"_mean", c.Name+"_stddev", c.Name+"_min", c.Name+"_max")
	}
	if err := cw.Write(header); err != nil {
		return err
	}
	for _, g := range t.Groups {
		row := g.keyRow()
		for i := range g.Sums {
			row = append(row, summaryCols(&g.Sums[i])...)
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
