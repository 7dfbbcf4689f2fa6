package scenario

import (
	"fmt"
	"strings"
	"testing"
)

// TestBudgetStopsEveryPlayOrder spends a cell's event budget in each of
// play's runs: an FCT cell's warm-up and its drain, and a CBR cell's one
// run. Each fails with the budget error, stopped where its events ran
// out, and says so identically on a second run.
func TestBudgetStopsEveryPlayOrder(t *testing.T) {
	const warmup = 12 * 256_000 // the default probe period's warm-up
	for _, tc := range []struct {
		name   string
		s      Scenario
		budget int64
		from   int64 // the simulated time the error must name, at least
		to     int64 // and below
	}{
		{"fct warm-up", fct("dc", SchemeContra, "cache", 0.3, 2_000_000, 60, 1), 500, 0, warmup},
		{"fct drain", fct("dc", SchemeECMP, "cache", 0.3, 2_000_000, 60, 1), 30_000, warmup, 1 << 62},
		{"cbr", failover("", 20_000_000, 40_000_000, 4), 30_000, 0, 40_000_000},
	} {
		tc.s.BudgetEvents = tc.budget
		_, err := Run(tc.s)
		if err == nil || !strings.HasPrefix(err.Error(), ErrCellBudget+": ") {
			t.Fatalf("%s: Run returned %v, want a %q error", tc.name, err, ErrCellBudget)
		}
		var at int64
		if _, serr := fmt.Sscanf(err.Error()[strings.Index(err.Error(), " events at ")+1:], "events at %d ns", &at); serr != nil {
			t.Fatalf("%s: %q names no simulated time: %v", tc.name, err, serr)
		}
		if at < tc.from || at >= tc.to {
			t.Errorf("%s: stopped at %d ns, want in [%d, %d)", tc.name, at, tc.from, tc.to)
		}
		if _, again := Run(tc.s); again == nil || again.Error() != err.Error() {
			t.Errorf("%s: a second run failed with\n%v\nthe first with\n%v", tc.name, again, err)
		}
	}
}
