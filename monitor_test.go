package cardpi

import (
	"math"
	"strings"
	"sync"
	"testing"

	"cardpi/internal/obs"
)

// TestMonitorServedWindows pins what a caller feeds is what the monitor
// reports: rolling coverage is exactly the covered fraction of the last
// min(n, 512) served intervals, the width gauge their mean width, and
// seeding scores, dropped observations and a reset behave as documented.
func TestMonitorServedWindows(t *testing.T) {
	reg := obs.NewRegistry()
	m, err := NewMonitor("unit", 0, 1, reg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		m.ObserveScore(float64(i%7) / 100)
	}
	if got := m.RollingCoverage(); !math.IsNaN(got) {
		t.Fatalf("coverage after seeding only = %v, want NaN (no served interval yet)", got)
	}
	if got := m.Observations(); got != 100 {
		t.Fatalf("observations after seeding = %d, want 100", got)
	}
	type served struct {
		covered bool
		width   float64
	}
	var log []served
	for i := 0; i < 700; i++ {
		s := served{covered: i%3 != 0 && i%11 != 0, width: float64(i%13+1) / 64}
		m.Observe(float64(i%7)/100, s.covered, s.width)
		log = append(log, s)
		win := log[max(0, len(log)-telemetryWindow):]
		hits, widthSum := 0, 0.0
		for _, w := range win {
			if w.covered {
				hits++
			}
			widthSum += w.width
		}
		if got, want := m.RollingCoverage(), float64(hits)/float64(len(win)); got != want {
			t.Fatalf("after %d served: coverage %v, want %v", i+1, got, want)
		}
		m.mu.Lock()
		wm := m.widths.mean()
		m.mu.Unlock()
		if want := widthSum / float64(len(win)); math.Abs(wm-want) > 1e-12 {
			t.Fatalf("after %d served: width mean %v, want %v", i+1, wm, want)
		}
	}
	m.Observe(math.NaN(), true, 1)
	m.Observe(math.Inf(1), false, 1)
	if got := m.Observations(); got != 800 {
		t.Fatalf("observations = %d, want 800 (non-finite scores are dropped)", got)
	}
	if got := reg.Counter("cardpi_adaptive_dropped_observations_total", "", obs.L("model", "unit")).Value(); got != 2 {
		t.Fatalf("dropped = %d, want 2", got)
	}
	if got := reg.Histogram("cardpi_adaptive_interval_width", "", obs.WidthBuckets, obs.L("model", "unit")).Count(); got != 700 {
		t.Fatalf("width histogram count = %d, want 700", got)
	}
	m.Reset()
	if !math.IsNaN(m.RollingCoverage()) || m.DriftStatistic() != 0 || m.Drifted() {
		t.Fatalf("after Reset: coverage %v, statistic %v, drifted %v; want NaN, 0, false",
			m.RollingCoverage(), m.DriftStatistic(), m.Drifted())
	}
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`cardpi_adaptive_recalibrations_total{model="unit"} 1`,
		`cardpi_adaptive_width_mean{model="unit"} NaN`,
	} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("scrape missing %q", want)
		}
	}
}

// TestMonitorObserveResetConcurrent races the served-interval entry point
// against resets and lock-free readers; under -race it proves the read side
// never touches guarded state, and every loaded snapshot is consistent.
func TestMonitorObserveResetConcurrent(t *testing.T) {
	m, err := NewMonitor("unit", 0.01, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	threshold := math.Log(1 / m.significance)
	var writers, readers sync.WaitGroup
	stop := make(chan struct{})
	bad := make(chan string, 1)
	for w := 0; w < 2; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			for i := 0; i < 500; i++ {
				m.Observe(float64((w*500+i)%23)/10, i%4 != 0, float64(i%9)/10)
			}
		}(w)
	}
	writers.Add(1)
	go func() {
		defer writers.Done()
		for i := 0; i < 20; i++ {
			m.Reset()
		}
	}()
	readers.Add(1)
	go func() {
		defer readers.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			s := m.snap.Load()
			if s.drifted != (s.statistic >= threshold) || (!math.IsNaN(s.coverage) && (s.coverage < 0 || s.coverage > 1)) {
				select {
				case bad <- "inconsistent snapshot":
				default:
				}
			}
			_, _, _ = m.Drifted(), m.RollingCoverage(), m.DriftStatistic()
		}
	}()
	writers.Wait()
	close(stop)
	readers.Wait()
	select {
	case msg := <-bad:
		t.Fatal(msg)
	default:
	}
	if got := m.Observations(); got != 1000 {
		t.Fatalf("observations = %d, want 1000", got)
	}
}
