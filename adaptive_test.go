package cardpi

import (
	"math"
	"sync"
	"testing"

	"cardpi/internal/conformal"
	"cardpi/internal/dataset"
	"cardpi/internal/faultinject"
	"cardpi/internal/obs"
	"cardpi/internal/workload"
)

func TestAdaptiveCoverageOnStream(t *testing.T) {
	model, _, _, cal, test := fixture(t)
	a, err := NewAdaptive(model, cal.Subset(50), conformal.ResidualScore{},
		AdaptiveConfig{Alpha: 0.1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if a.Name() != "adaptive/histogram" {
		t.Fatalf("name = %s", a.Name())
	}
	hits := 0
	for _, lq := range test.Queries {
		iv, err := a.Interval(lq.Query)
		if err != nil {
			t.Fatal(err)
		}
		if iv.Contains(lq.Sel) {
			hits++
		}
		a.Observe(lq.Query, lq.Sel)
	}
	cov := float64(hits) / float64(len(test.Queries))
	if cov < 0.84 {
		t.Fatalf("adaptive coverage %v < 0.84", cov)
	}
	if a.CalibrationSize() != 50+len(test.Queries) {
		t.Fatalf("calibration size %d", a.CalibrationSize())
	}
	if a.Drifted() {
		t.Fatalf("drift alarm on exchangeable stream (stat %v)", a.DriftStatistic())
	}
}

func TestAdaptiveDetectsDrift(t *testing.T) {
	model, _, _, cal, _ := fixture(t)
	a, err := NewAdaptive(model, cal, conformal.ResidualScore{},
		AdaptiveConfig{Alpha: 0.1, Seed: 2, Significance: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	// Simulate data drift: the underlying table changed after the model's
	// statistics were built, so observed true selectivities diverge wildly
	// from what the model predicts.
	tab, err := dataset.GenerateDMV(dataset.GenConfig{Rows: 5000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	shifted, err := workload.Generate(tab, workload.Config{Count: 300, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, lq := range shifted.Queries {
		a.Observe(lq.Query, 1-lq.Sel)
	}
	if !a.Drifted() {
		t.Fatalf("drift not detected; stat %v", a.DriftStatistic())
	}
}

func TestAdaptiveWindow(t *testing.T) {
	model, _, _, cal, _ := fixture(t)
	a, err := NewAdaptive(model, cal, conformal.ResidualScore{},
		AdaptiveConfig{Alpha: 0.1, Window: 64, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if a.CalibrationSize() != 64 {
		t.Fatalf("windowed calibration size %d, want 64", a.CalibrationSize())
	}
}

func TestAdaptiveValidation(t *testing.T) {
	model, _, _, cal, _ := fixture(t)
	if _, err := NewAdaptive(model, cal, conformal.ResidualScore{}, AdaptiveConfig{Alpha: 0}); err == nil {
		t.Fatal("alpha=0 should fail")
	}
	if _, err := NewAdaptive(model, nil, conformal.ResidualScore{}, AdaptiveConfig{Alpha: 0.1}); err == nil {
		t.Fatal("empty initial calibration should fail")
	}
}

func TestCardinalityInterval(t *testing.T) {
	iv := CardinalityInterval(Interval{Lo: 0.1, Hi: 0.3}, 1000)
	if iv.Lo != 100 || iv.Hi != 300 {
		t.Fatalf("interval = %+v", iv)
	}
	clipped := CardinalityInterval(Interval{Lo: -0.5, Hi: 2}, 1000)
	if clipped.Lo != 0 || clipped.Hi != 1000 {
		t.Fatalf("clipped = %+v", clipped)
	}
}

// TestAdaptiveDriftAlarmEdgeTriggered drives the drift monitor with a
// deterministic stale-calibration fault (the model's predictions shift by a
// constant bias mid-stream) and pins the alarm contract: the alarm counter
// increments exactly once per drift episode no matter how long the drift
// persists, Recalibrate resets the monitor and the latch, and a later,
// distinct episode fires the alarm again.
func TestAdaptiveDriftAlarmEdgeTriggered(t *testing.T) {
	model, _, _, cal, test := fixture(t)
	// Faults start only after NewAdaptive's seeding pass (one
	// EstimateSelectivity call per calibration query), so calibration is
	// clean and the live stream is stale — the drift scenario.
	plan := faultinject.MustPlan(faultinject.Spec{
		Seed: 7, Stale: 1, Bias: 0.4, After: uint64(len(cal.Queries)),
	})
	faulty := faultinject.WrapEstimator(model, plan)
	reg := obs.NewRegistry()
	a, err := NewAdaptive(faulty, cal, conformal.ResidualScore{},
		AdaptiveConfig{Alpha: 0.1, Seed: 5, Significance: 0.01, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	alarms := reg.Counter("cardpi_adaptive_drift_alarms_total", "", obs.L("model", faulty.Name()))
	recals := reg.Counter("cardpi_adaptive_recalibrations_total", "", obs.L("model", faulty.Name()))
	if alarms.Value() != 0 {
		t.Fatalf("alarm fired during clean seeding: %d", alarms.Value())
	}

	// Episode 1: the stale model serves biased predictions against honest
	// truths. The alarm must fire — and fire exactly once, even though the
	// drift persists for the whole phase.
	phase1 := test.Queries[:200]
	for _, lq := range phase1 {
		a.Observe(lq.Query, lq.Sel)
	}
	if !a.Drifted() {
		t.Fatalf("stale-calibration fault not detected; stat %v", a.DriftStatistic())
	}
	if got := alarms.Value(); got != 1 {
		t.Fatalf("alarm counter = %d after a single persistent drift episode, want 1", got)
	}
	if plan.Injected(faultinject.Stale) == 0 {
		t.Fatal("fault plan never injected a stale estimate")
	}

	// Recalibrate against the (still biased) model: scores become
	// exchangeable again, the monitor and latch reset, the alarm stays at 1.
	if err := a.Recalibrate(cal); err != nil {
		t.Fatal(err)
	}
	if a.Drifted() {
		t.Fatal("monitor still alarmed after Recalibrate")
	}
	if got := recals.Value(); got != 1 {
		t.Fatalf("recalibration counter = %d, want 1", got)
	}
	for _, lq := range test.Queries[200:260] {
		a.Observe(lq.Query, lq.Sel)
	}
	if a.Drifted() {
		t.Fatalf("false alarm on a consistent post-recalibration stream; stat %v", a.DriftStatistic())
	}
	if got := alarms.Value(); got != 1 {
		t.Fatalf("alarm counter = %d on a quiet stream, want still 1", got)
	}

	// Episode 2: a genuinely new drift (inverted truths) re-arms the edge
	// trigger — the counter moves to exactly 2.
	for _, lq := range test.Queries[260:] {
		a.Observe(lq.Query, 1-lq.Sel)
	}
	if !a.Drifted() {
		t.Fatalf("second drift episode not detected; stat %v", a.DriftStatistic())
	}
	if got := alarms.Value(); got != 2 {
		t.Fatalf("alarm counter = %d after a second episode, want 2", got)
	}
}

// TestAdaptiveRecalibrateFailureKeepsState pins the validate-before-mutate
// contract: a recalibration whose workload yields an empty calibration set
// must error with the alarm latched, the martingale untouched, the
// calibration scores intact, and the recalibration counter unmoved — a failed
// recalibration can never disarm a live drift alarm.
func TestAdaptiveRecalibrateFailureKeepsState(t *testing.T) {
	model, _, _, cal, test := fixture(t)
	reg := obs.NewRegistry()
	a, err := NewAdaptive(model, cal, conformal.ResidualScore{},
		AdaptiveConfig{Alpha: 0.1, Seed: 6, Significance: 0.01, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	for _, lq := range test.Queries[:200] {
		a.Observe(lq.Query, 1-lq.Sel) // inverted truths: certain drift
	}
	if !a.Drifted() {
		t.Fatalf("drift not detected; stat %v", a.DriftStatistic())
	}
	sizeBefore := a.CalibrationSize()
	statBefore := a.DriftStatistic()

	// Every query in this workload is dropped (non-finite truth), so the
	// rebuilt calibration set is empty and the recalibration must refuse.
	poisoned := &workload.Workload{NormN: cal.NormN}
	for _, lq := range cal.Queries[:20] {
		poisoned.Queries = append(poisoned.Queries,
			workload.Labeled{Query: lq.Query, Sel: math.NaN(), Norm: lq.Norm})
	}
	if err := a.Recalibrate(poisoned); err == nil {
		t.Fatal("Recalibrate accepted a workload yielding an empty calibration set")
	}
	if !a.Drifted() {
		t.Fatal("failed recalibration disarmed the drift alarm")
	}
	if got := a.CalibrationSize(); got != sizeBefore {
		t.Errorf("failed recalibration changed calibration size %d -> %d", sizeBefore, got)
	}
	if got := a.DriftStatistic(); got != statBefore {
		t.Errorf("failed recalibration moved the drift statistic %v -> %v", statBefore, got)
	}
	recals := reg.Counter("cardpi_adaptive_recalibrations_total", "", obs.L("model", model.Name()))
	if got := recals.Value(); got != 0 {
		t.Errorf("recalibration counter = %d after a failed recalibration, want 0", got)
	}
}

// TestAdaptiveRecalibrateResetsTelemetryRings pins the ring-reset semantics:
// after a successful recalibration the rolling coverage reads NaN (no blended
// pre-drift samples) until fresh traffic refills the window.
func TestAdaptiveRecalibrateResetsTelemetryRings(t *testing.T) {
	model, _, _, cal, test := fixture(t)
	a, err := NewAdaptive(model, cal, conformal.ResidualScore{},
		AdaptiveConfig{Alpha: 0.1, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	for _, lq := range test.Queries[:100] {
		a.Observe(lq.Query, lq.Sel)
	}
	if math.IsNaN(a.RollingCoverage()) {
		t.Fatal("rolling coverage empty after 100 observations")
	}
	if err := a.Recalibrate(cal); err != nil {
		t.Fatal(err)
	}
	if got := a.RollingCoverage(); !math.IsNaN(got) {
		t.Fatalf("rolling coverage = %v immediately after recalibration, want NaN (reset rings)", got)
	}
	a.Observe(test.Queries[100].Query, test.Queries[100].Sel)
	if math.IsNaN(a.RollingCoverage()) {
		t.Fatal("rolling coverage still NaN after post-recalibration traffic")
	}
}

// TestAdaptiveRecalibrateRace exercises the recalibration commit under the
// race detector: serving traffic (Interval/Observe/Drifted/Name) races
// repeated Recalibrate calls, and every served interval must stay finite,
// ordered, and inside [0, 1].
func TestAdaptiveRecalibrateRace(t *testing.T) {
	model, _, _, cal, test := fixture(t)
	a, err := NewAdaptive(model, cal, conformal.ResidualScore{},
		AdaptiveConfig{Alpha: 0.1, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errCh := make(chan string, 64)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				lq := test.Queries[(w*200+i)%len(test.Queries)]
				iv, err := a.Interval(lq.Query)
				if err != nil {
					select {
					case errCh <- "Interval: " + err.Error():
					default:
					}
					return
				}
				if math.IsNaN(iv.Lo) || math.IsNaN(iv.Hi) || iv.Lo > iv.Hi || iv.Lo < 0 || iv.Hi > 1 {
					select {
					case errCh <- "invalid interval under concurrent recalibration":
					default:
					}
					return
				}
				a.Observe(lq.Query, lq.Sel)
				_ = a.Drifted()
				_ = a.Name()
				_ = a.RollingCoverage()
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			if err := a.Recalibrate(cal); err != nil {
				select {
				case errCh <- "Recalibrate: " + err.Error():
				default:
				}
				return
			}
		}
	}()
	wg.Wait()
	close(errCh)
	for msg := range errCh {
		t.Error(msg)
	}
}

// TestAdaptiveMonitorSnapshotConcurrent races Observe (on a drifting
// stream, so the alarm fires and clears) against lock-free Drifted /
// RollingCoverage / DriftStatistic readers and monitor resets. Every
// snapshot a reader loads must be internally consistent, and once the
// writers stop the published snapshot must equal what the locked state
// computes. Run under -race it also proves readers never touch guarded
// state.
func TestAdaptiveMonitorSnapshotConcurrent(t *testing.T) {
	model, _, _, cal, test := fixture(t)
	a, err := NewAdaptive(model, cal, conformal.ResidualScore{},
		AdaptiveConfig{Alpha: 0.1, Seed: 5, Significance: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	m := a.mon
	threshold := math.Log(1 / m.significance)
	var writers, readers sync.WaitGroup
	stop := make(chan struct{})
	errCh := make(chan string, 16)
	report := func(msg string) {
		select {
		case errCh <- msg:
		default:
		}
	}
	for w := 0; w < 2; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			for i := 0; i < 400; i++ {
				lq := test.Queries[(w*400+i)%len(test.Queries)]
				a.Observe(lq.Query, math.Min(1, lq.Sel+0.3))
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
	for r := 0; r < 2; r++ {
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
				if s.drifted != (s.statistic >= threshold) {
					report("snapshot drifted flag disagrees with its own statistic")
				}
				if c := s.coverage; !math.IsNaN(c) && (c < 0 || c > 1) {
					report("snapshot coverage outside [0, 1]")
				}
				_, _, _ = a.Drifted(), a.RollingCoverage(), a.DriftStatistic()
			}
		}()
	}
	writers.Wait()
	close(stop)
	readers.Wait()
	close(errCh)
	for msg := range errCh {
		t.Error(msg)
	}
	m.mu.Lock()
	wantDrift, wantCov, wantStat := m.mart.Rejects(m.significance), m.hits.mean(), m.mart.MaxLogValue()
	m.mu.Unlock()
	if a.Drifted() != wantDrift ||
		math.Float64bits(a.RollingCoverage()) != math.Float64bits(wantCov) ||
		math.Float64bits(a.DriftStatistic()) != math.Float64bits(wantStat) {
		t.Fatalf("published snapshot (%v, %v, %v) != locked state (%v, %v, %v)",
			a.Drifted(), a.RollingCoverage(), a.DriftStatistic(), wantDrift, wantCov, wantStat)
	}
}
