package recal

import (
	"context"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"cardpi/internal/dataset"
	"cardpi/internal/estimator"
	"cardpi/internal/obs"
	"cardpi/internal/workload"
)

// --- corrector fitting ---

func TestFitCorrectorRecoversAffineBias(t *testing.T) {
	// truth = 2·est exactly: in log space that is A = log 2, B = 1.
	var ests, truths []float64
	for i := 1; i <= 40; i++ {
		e := float64(i) / 100 // 0.01 .. 0.40
		ests = append(ests, e)
		truths = append(truths, 2*e)
	}
	c, err := FitCorrector(ests, truths)
	if err != nil {
		t.Fatalf("FitCorrector: %v", err)
	}
	if math.Abs(c.B-1) > 0.01 {
		t.Errorf("slope B = %v, want ~1", c.B)
	}
	if math.Abs(c.A-math.Log(2)) > 0.01 {
		t.Errorf("intercept A = %v, want ~%v", c.A, math.Log(2))
	}
	for i, e := range ests {
		got := c.Apply(e)
		if math.Abs(got-truths[i]) > 0.005 {
			t.Fatalf("Apply(%v) = %v, want ~%v", e, got, truths[i])
		}
	}
}

func TestFitCorrectorDegenerateVariance(t *testing.T) {
	// Constant estimates: slope unidentifiable, fallback keeps B=1 and puts
	// the mean log-residual in the intercept.
	ests := make([]float64, 16)
	truths := make([]float64, 16)
	for i := range ests {
		ests[i] = 0.05
		truths[i] = 0.2
	}
	c, err := FitCorrector(ests, truths)
	if err != nil {
		t.Fatalf("FitCorrector: %v", err)
	}
	if c.B != 1 {
		t.Errorf("degenerate fit slope B = %v, want exactly 1", c.B)
	}
	if got := c.Apply(0.05); math.Abs(got-0.2) > 1e-6 {
		t.Errorf("Apply(0.05) = %v, want ~0.2", got)
	}
}

func TestFitCorrectorSlopeClamp(t *testing.T) {
	// truth = est^10 has log-space slope 10; the clamp must cap it at 4.
	var ests, truths []float64
	for i := 1; i <= 20; i++ {
		e := float64(i) / 25
		ests = append(ests, e)
		truths = append(truths, math.Pow(e, 10))
	}
	c, err := FitCorrector(ests, truths)
	if err != nil {
		t.Fatalf("FitCorrector: %v", err)
	}
	if c.B != correctorMaxSlope {
		t.Errorf("slope B = %v, want clamped to %v", c.B, correctorMaxSlope)
	}
}

func TestFitCorrectorErrors(t *testing.T) {
	good := []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8}
	if _, err := FitCorrector(good, good[:4]); err == nil {
		t.Error("length mismatch: want error")
	}
	if _, err := FitCorrector(good[:4], good[:4]); err == nil {
		t.Error("too few samples: want error")
	}
	bad := append([]float64(nil), good...)
	bad[3] = math.NaN()
	if _, err := FitCorrector(bad, good); err == nil {
		t.Error("NaN estimate: want error")
	}
	bad[3] = math.Inf(1)
	if _, err := FitCorrector(bad, good); err == nil {
		t.Error("Inf estimate: want error")
	}
}

func TestCorrectorApplyClamps(t *testing.T) {
	if got := Identity().Apply(0.37); math.Abs(got-0.37) > 1e-9 {
		t.Errorf("identity Apply(0.37) = %v", got)
	}
	big := Corrector{A: 50, B: 1}
	if got := big.Apply(0.5); got != 1 {
		t.Errorf("overflowing correction = %v, want clamp to 1", got)
	}
	if got := Identity().Apply(math.NaN()); got != estimator.MinSel {
		t.Errorf("Apply(NaN) = %v, want floor %v", got, estimator.MinSel)
	}
	if got := Identity().Apply(math.Inf(1)); got != estimator.MinSel {
		t.Errorf("Apply(+Inf) = %v, want floor %v", got, estimator.MinSel)
	}
}

// --- supervisor helpers ---

// indexQuery encodes i into a query predicate so a Func base can derive a
// deterministic, per-sample estimate from the query alone.
func indexQuery(i int) workload.Query {
	return workload.Query{Preds: []dataset.Predicate{{Col: "x", Op: dataset.OpEq, Lo: int64(i)}}}
}

// indexBase reads indexQuery's payload back out: est = (i mod 90 + 1) / 200,
// spread over (0, 0.455] so the corrector has slope signal.
var indexBase = estimator.Func{N: "base", F: func(q workload.Query) float64 {
	return float64(q.Preds[0].Lo%90+1) / 200
}}

// fillWindow records n samples whose truth is a fixed multiplicative bias of
// the base estimate — exactly the regime the corrector is built to absorb.
func fillWindow(s *Supervisor, n int, bias float64) {
	for i := 0; i < n; i++ {
		q := indexQuery(i)
		truth := math.Min(1, bias*indexBase.F(q))
		s.Record(q, truth)
	}
}

// fillNoisyWindow is fillWindow with deterministic multiplicative noise on
// the truths, so the fitted corrector has real residuals and the conformal
// intervals have non-trivial width (the clean fill yields ~1e-11 widths).
func fillNoisyWindow(s *Supervisor, n int, bias float64) {
	for i := 0; i < n; i++ {
		q := indexQuery(i)
		truth := math.Min(1, bias*indexBase.F(q)*(1+0.4*math.Sin(float64(i))))
		s.Record(q, truth)
	}
}

// instantSleep records requested backoff durations and returns immediately.
type instantSleep struct {
	mu sync.Mutex
	ds []time.Duration
}

func (sl *instantSleep) sleep(_ context.Context, d time.Duration) error {
	sl.mu.Lock()
	sl.ds = append(sl.ds, d)
	sl.mu.Unlock()
	return nil
}

func (sl *instantSleep) durations() []time.Duration {
	sl.mu.Lock()
	defer sl.mu.Unlock()
	return append([]time.Duration(nil), sl.ds...)
}

// testConfig is a small, fast supervisor config; override fields per test.
func testConfig(swap func(*Candidate) error) Config {
	return Config{
		Base:          indexBase,
		Alpha:         0.1,
		Window:        64,
		MinObserved:   32,
		MinValidation: 8,
		MaxAttempts:   3,
		Backoff:       100 * time.Millisecond,
		MaxBackoff:    time.Minute,
		Swap:          swap,
	}
}

// waitStatus polls until cond(Status) or the deadline; fails the test on
// timeout.
func waitStatus(t *testing.T, s *Supervisor, what string, cond func(Status) bool) Status {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		st := s.Status()
		if cond(st) {
			return st
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s; status %+v", what, s.Status())
	return Status{}
}

// --- supervisor construction ---

func TestNewConfigValidation(t *testing.T) {
	swap := func(*Candidate) error { return nil }
	cases := []struct {
		name string
		mut  func(*Config)
	}{
		{"missing base", func(c *Config) { c.Base = nil }},
		{"missing swap", func(c *Config) { c.Swap = nil }},
		{"alpha zero", func(c *Config) { c.Alpha = 0 }},
		{"alpha one", func(c *Config) { c.Alpha = 1 }},
		{"window below min observed", func(c *Config) { c.Window = 16 }},
		{"min observed below fit+validation", func(c *Config) { c.MinObserved = 10 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := testConfig(swap)
			tc.mut(&cfg)
			if _, err := New(cfg); err == nil {
				t.Errorf("New accepted invalid config")
			}
		})
	}
	if _, err := New(testConfig(swap)); err != nil {
		t.Fatalf("New rejected valid config: %v", err)
	}
}

// --- window recording ---

func TestRecordDropsUnusableSamples(t *testing.T) {
	panicky := estimator.Func{N: "panicky", F: func(workload.Query) float64 { panic("boom") }}
	cfg := testConfig(func(*Candidate) error { return nil })
	cfg.Base = panicky
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Record(indexQuery(0), 0.5) // base panics
	cfg2 := testConfig(func(*Candidate) error { return nil })
	cfg2.Base = estimator.Func{N: "inf", F: func(workload.Query) float64 { return math.Inf(1) }}
	s2, err := New(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	s2.Record(indexQuery(0), 0.5) // non-finite estimate
	s3, _ := New(testConfig(func(*Candidate) error { return nil }))
	s3.Record(indexQuery(0), math.NaN())   // non-finite truth
	s3.Record(indexQuery(0), math.Inf(-1)) // non-finite truth
	for i, sup := range []*Supervisor{s, s2, s3} {
		if got := sup.Status().Observed; got != 0 {
			t.Errorf("supervisor %d: observed %d unusable samples, want 0", i, got)
		}
	}
}

// TestRecordBaseSkipsTheModel: RecordBase stores the estimate it is given
// without running the base model, and drops non-finite samples as Record
// does.
func TestRecordBaseSkipsTheModel(t *testing.T) {
	cfg := testConfig(func(*Candidate) error { return nil })
	cfg.Base = estimator.Func{N: "unused", F: func(workload.Query) float64 { panic("base model ran") }}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.RecordBase(0.25, 0.5)
	s.RecordBase(math.NaN(), 0.5)
	s.RecordBase(0.25, math.Inf(1))
	if got := s.Status().Observed; got != 1 {
		t.Fatalf("observed %d samples, want 1", got)
	}
	if got := s.samples[0]; got != (sample{est: 0.25, truth: 0.5}) {
		t.Fatalf("recorded %+v, want est 0.25 truth 0.5", got)
	}
}

func TestRecordRingOverwrites(t *testing.T) {
	s, err := New(testConfig(func(*Candidate) error { return nil }))
	if err != nil {
		t.Fatal(err)
	}
	fillWindow(s, 200, 1)
	if got := s.Status().Observed; got != 64 {
		t.Errorf("observed = %d after 200 records into a 64-window, want 64", got)
	}
}

// --- candidate build + validation ---

func TestBuildCandidateInsufficientWindow(t *testing.T) {
	s, err := New(testConfig(func(*Candidate) error { return nil }))
	if err != nil {
		t.Fatal(err)
	}
	fillWindow(s, 10, 1) // below MinObserved = 32
	cand, err := s.BuildCandidate()
	if err != nil {
		t.Fatalf("BuildCandidate: %v", err)
	}
	if cand.Report.Accepted {
		t.Error("insufficient window produced an accepted candidate")
	}
	if cand.Report.Reason != ReasonInsufficient {
		t.Errorf("reason = %q, want %q", cand.Report.Reason, ReasonInsufficient)
	}
	if cand.PI != nil {
		t.Error("insufficient candidate should have no PI head")
	}
}

func TestBuildCandidateAcceptsCorrectableBias(t *testing.T) {
	s, err := New(testConfig(func(*Candidate) error { return nil }))
	if err != nil {
		t.Fatal(err)
	}
	fillWindow(s, 64, 2) // truth = 2·est: a pure bias the corrector absorbs
	cand, err := s.BuildCandidate()
	if err != nil {
		t.Fatalf("BuildCandidate: %v", err)
	}
	rep := cand.Report
	if !rep.Accepted {
		t.Fatalf("candidate rejected (%s): %+v", rep.Reason, rep)
	}
	if rep.Coverage < 1-0.1-0.05 {
		t.Errorf("held-out coverage %v below tolerance floor", rep.Coverage)
	}
	if rep.ValSamples < 8 || rep.FitSamples < MinFitSamples {
		t.Errorf("split too small: fit %d val %d", rep.FitSamples, rep.ValSamples)
	}
	if cand.Model == nil || cand.PI == nil {
		t.Fatal("accepted candidate missing model or PI")
	}
	if got := cand.Model.Name(); got != "recal/base" {
		t.Errorf("model name = %q", got)
	}
	if got := cand.PI.Name(); got != "recal-cp/base" {
		t.Errorf("PI name = %q", got)
	}
	// The corrected chain's intervals must be valid selectivities.
	iv, err := cand.PI.Interval(indexQuery(7))
	if err != nil {
		t.Fatalf("candidate Interval: %v", err)
	}
	if !(iv.Lo >= 0 && iv.Hi <= 1 && iv.Lo <= iv.Hi) {
		t.Errorf("candidate interval [%v, %v] outside [0, 1]", iv.Lo, iv.Hi)
	}
}

func TestBuildCandidateRejectsPathologicalWidth(t *testing.T) {
	cfg := testConfig(func(*Candidate) error { return nil })
	cfg.WidthCap = 1e-9
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fillNoisyWindow(s, 64, 2)
	cand, err := s.BuildCandidate()
	if err != nil {
		t.Fatalf("BuildCandidate: %v", err)
	}
	if cand.Report.Accepted {
		t.Fatal("candidate accepted despite width cap of 1e-9")
	}
	if cand.Report.Reason != ReasonWidth {
		t.Errorf("reason = %q, want %q", cand.Report.Reason, ReasonWidth)
	}
}

// --- episode state machine ---

func TestEpisodeSuccessSwapsOnce(t *testing.T) {
	var mu sync.Mutex
	var swapped []*Candidate
	sl := &instantSleep{}
	cfg := testConfig(func(c *Candidate) error {
		mu.Lock()
		swapped = append(swapped, c)
		mu.Unlock()
		return nil
	})
	cfg.Sleep = sl.sleep
	cfg.Metrics = obs.NewRegistry()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fillWindow(s, 64, 2)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go s.Run(ctx)
	s.Trigger()
	st := waitStatus(t, s, "swap", func(st Status) bool { return st.Swaps == 1 })
	if st.State != "idle" {
		t.Errorf("state after success = %q, want idle", st.State)
	}
	if st.Episodes != 1 || st.Attempts != 1 || st.Rejected != 0 || st.FailedEpisodes != 0 {
		t.Errorf("counters after clean success: %+v", st)
	}
	if st.LastCoverage < 0.85 {
		t.Errorf("last validation coverage %v < 0.85", st.LastCoverage)
	}
	if len(sl.durations()) != 0 {
		t.Errorf("first-attempt success slept %v", sl.durations())
	}
	mu.Lock()
	defer mu.Unlock()
	if len(swapped) != 1 || !swapped[0].Report.Accepted {
		t.Fatalf("swap callback saw %d candidates", len(swapped))
	}
}

func TestEpisodeRejectionBacksOffExponentiallyThenFails(t *testing.T) {
	sl := &instantSleep{}
	swapCalls := 0
	cfg := testConfig(func(*Candidate) error { swapCalls++; return nil })
	cfg.WidthCap = 1e-9 // every candidate rejects on width
	cfg.Sleep = sl.sleep
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fillNoisyWindow(s, 64, 2)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go s.Run(ctx)
	s.Trigger()
	st := waitStatus(t, s, "failed episode", func(st Status) bool { return st.FailedEpisodes == 1 })
	if st.Swaps != 0 || swapCalls != 0 {
		t.Fatalf("rejected candidates reached the swap callback (%d swaps, %d calls)", st.Swaps, swapCalls)
	}
	if st.State != "failed" {
		t.Errorf("state = %q, want failed", st.State)
	}
	if st.Attempts != 3 || st.Rejected != 3 {
		t.Errorf("attempts %d rejected %d, want 3 and 3", st.Attempts, st.Rejected)
	}
	if st.LastReason != ReasonWidth {
		t.Errorf("last reason = %q, want %q", st.LastReason, ReasonWidth)
	}
	want := []time.Duration{100 * time.Millisecond, 200 * time.Millisecond}
	got := sl.durations()
	if len(got) != len(want) || got[0] != want[0] || got[1] != want[1] {
		t.Errorf("backoff schedule %v, want %v (doubling)", got, want)
	}
}

func TestEpisodeSwapErrorRejectsAndRetries(t *testing.T) {
	sl := &instantSleep{}
	cfg := testConfig(func(*Candidate) error { return fmt.Errorf("chain refused the candidate") })
	cfg.Sleep = sl.sleep
	cfg.MaxAttempts = 2
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fillWindow(s, 64, 2)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go s.Run(ctx)
	s.Trigger()
	st := waitStatus(t, s, "failed episode", func(st Status) bool { return st.FailedEpisodes == 1 })
	if st.Swaps != 0 {
		t.Errorf("swaps = %d after swap callback errors", st.Swaps)
	}
	if st.LastReason != ReasonSwap {
		t.Errorf("last reason = %q, want %q", st.LastReason, ReasonSwap)
	}
	if !strings.Contains(st.LastError, "refused") {
		t.Errorf("last error = %q, want the swap error surfaced", st.LastError)
	}
}

func TestDriftGateDropsKicksButTriggerBypasses(t *testing.T) {
	cfg := testConfig(func(*Candidate) error { return nil })
	cfg.Drifted = func() bool { return false }
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fillWindow(s, 64, 2)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go s.Run(ctx)
	s.Kick()
	time.Sleep(30 * time.Millisecond)
	if got := s.Status().Episodes; got != 0 {
		t.Fatalf("gated kick started %d episodes", got)
	}
	s.Trigger() // forced: bypasses the drift gate
	waitStatus(t, s, "forced episode", func(st Status) bool { return st.Swaps == 1 })
}

func TestFailedEpisodeRearmsOnNextKick(t *testing.T) {
	sl := &instantSleep{}
	cfg := testConfig(func(*Candidate) error { return nil })
	cfg.WidthCap = 1e-9
	cfg.MaxAttempts = 1
	cfg.Sleep = sl.sleep
	cfg.Drifted = func() bool { return true } // drift persists
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fillNoisyWindow(s, 64, 2)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go s.Run(ctx)
	s.Kick()
	waitStatus(t, s, "first failed episode", func(st Status) bool { return st.FailedEpisodes == 1 })
	s.Kick() // level-triggered: the persistent alarm re-arms the failed episode
	st := waitStatus(t, s, "second episode", func(st Status) bool { return st.Episodes == 2 })
	if st.FailedEpisodes != 2 {
		t.Errorf("failed episodes = %d, want 2", st.FailedEpisodes)
	}
}
