package main

import (
	"fmt"
	"math"
	"net/http"
	"testing"

	"cardpi/internal/faultinject"
	"cardpi/internal/pipeline"
	"cardpi/internal/workload"
)

// servedLines renders n generated queries over the setup's table as
// /estimate query texts: point and range predicates of mixed selectivity,
// so the residual spread varies across the query space.
func servedLines(t *testing.T, setup *pipeline.Setup, n int) []string {
	t.Helper()
	wl, err := workload.Generate(setup.Table, workload.Config{Count: n, Seed: 9, MinPreds: 1, MaxPreds: 4})
	if err != nil {
		t.Fatal(err)
	}
	lines := make([]string, len(wl.Queries))
	for i, lq := range wl.Queries {
		lines[i] = workload.QueryText(lq.Query)
	}
	return lines
}

// checkMonitorScoresReplies sends lines one /estimate at a time to a
// cache-off server and, after every reply, holds the monitor to the replies
// themselves: rolling_coverage is exactly the fraction of covered:true over
// the last min(n, 512) replies, cardpi_adaptive_width_mean their mean served
// width (hi - lo selectivity), and every reply made one observation. Each
// reply must come from the stage named servedBy.
func checkMonitorScoresReplies(t *testing.T, setup *pipeline.Setup, lines []string, servedBy string) {
	t.Helper()
	ts, _, reg := startServer(t, setup, serveOpts{})
	model := setup.Model.Name()
	series := func(family string) string { return fmt.Sprintf(`%s{model=%q}`, family, model) }
	const window = 512
	type served struct {
		covered bool
		width   float64
	}
	var replies []served
	observed := metricValue(t, reg, series("cardpi_adaptive_observations_total"))
	for i, line := range lines {
		code, er, body := getEstimate(t, ts.URL, line, "", "")
		if code != http.StatusOK {
			t.Fatalf("reply %d (%q): status %d: %s", i, line, code, body)
		}
		if er.ServedBy != servedBy {
			t.Fatalf("reply %d served by %q, want %q", i, er.ServedBy, servedBy)
		}
		replies = append(replies, served{er.Covered, er.HiSel - er.LoSel})
		win := replies[max(0, len(replies)-window):]
		hits, widthSum := 0, 0.0
		for _, r := range win {
			if r.covered {
				hits++
			}
			widthSum += r.width
		}
		if want := float64(hits) / float64(len(win)); er.RollCov != want {
			t.Fatalf("reply %d: rolling_coverage %v, want %v (%d of the last %d replies covered)",
				i, er.RollCov, want, hits, len(win))
		}
		got := metricValue(t, reg, series("cardpi_adaptive_width_mean"))
		if want := widthSum / float64(len(win)); !(math.Abs(got-want) <= 1e-12*math.Max(1, want)) {
			t.Fatalf("reply %d: cardpi_adaptive_width_mean %v, want the mean served width %v", i, got, want)
		}
	}
	if got := metricValue(t, reg, series("cardpi_adaptive_observations_total")) - observed; got != float64(len(lines)) {
		t.Fatalf("%d replies made %v observations, want one each", len(lines), got)
	}
}

// TestServeMonitorScoresServedInterval: the monitor's rolling coverage and
// width describe the intervals serve actually returned — mscn's localized
// (lcp) band on the primary, and the histogram split-CP fallback band when
// every primary call fails.
func TestServeMonitorScoresServedInterval(t *testing.T) {
	t.Run("lcp", func(t *testing.T) {
		setup, err := pipeline.Build(pipeline.Config{
			Dataset: "dmv", Model: "mscn", Method: "lcp",
			Alpha: 0.1, Rows: 2000, Queries: 400, Seed: 1, Epochs: 2,
		})
		if err != nil {
			t.Fatal(err)
		}
		checkMonitorScoresReplies(t, setup, servedLines(t, setup, 600), "primary")
	})
	t.Run("forced-fallback", func(t *testing.T) {
		setup := smallSetup(t)
		setup.PI = faultinject.WrapPI(setup.PI, faultinject.MustPlan(faultinject.Spec{Seed: 3, Error: 1}))
		checkMonitorScoresReplies(t, setup, servedLines(t, setup, 200), "fallback-1")
	})
}
