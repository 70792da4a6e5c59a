package recal

import (
	"context"
	"fmt"
	"math"
	"sync"
	"time"

	"cardpi/internal/conformal"
	"cardpi/internal/estimator"
	"cardpi/internal/obs"
	"cardpi/internal/workload"
)

// State is the supervisor's episode state machine position. Transitions:
// Idle → Recalibrating on an armed kick; Recalibrating → Idle on a validated
// swap, → Backoff after a rejected attempt with attempts remaining, → Failed
// when the attempt budget is exhausted; Backoff → Recalibrating on retry;
// Failed → Recalibrating on the next kick (drift is level-triggered upstream,
// so a persistent episode re-arms itself).
type State int32

// Supervisor states, exported in the cardpi_recal_state gauge.
const (
	// StateIdle means no episode is running.
	StateIdle State = iota
	// StateRecalibrating means a candidate build/validation attempt is running.
	StateRecalibrating
	// StateBackoff means the last attempt was rejected and the supervisor is
	// sleeping before the next one.
	StateBackoff
	// StateFailed means an episode exhausted its attempt budget without an
	// accepted candidate; the old chain keeps serving until the next kick.
	StateFailed
)

// String renders the state for status endpoints and logs.
func (s State) String() string {
	switch s {
	case StateIdle:
		return "idle"
	case StateRecalibrating:
		return "recalibrating"
	case StateBackoff:
		return "backoff"
	case StateFailed:
		return "failed"
	}
	return fmt.Sprintf("state(%d)", int32(s))
}

// Rejection reasons, used as the reason label on
// cardpi_recal_rejected_total and in ValidationReport.Reason.
const (
	// ReasonInsufficient: the rolling window holds too few samples to fit and
	// validate a candidate.
	ReasonInsufficient = "insufficient"
	// ReasonCoverage: held-out coverage fell below 1−α−CoverageTol.
	ReasonCoverage = "coverage"
	// ReasonWidth: held-out mean interval width exceeded WidthCap.
	ReasonWidth = "width"
	// ReasonSwap: the candidate validated but the swap callback refused it.
	ReasonSwap = "swap"
	// ReasonError: fitting or calibration failed outright (degenerate data,
	// non-finite parameters, a panicking base model).
	ReasonError = "error"
)

// sample is one labeled observation in the rolling window: the frozen base
// model's estimate at observation time and the true selectivity.
type sample struct {
	est   float64
	truth float64
}

// Config parameterises a Supervisor. Base, Alpha, and Swap are required;
// every zero-valued knob takes the documented default.
type Config struct {
	// Base is the frozen model whose estimates the corrector adjusts. Its
	// EstimateSelectivity must be safe for concurrent use.
	Base estimator.Estimator
	// Alpha is the target miscoverage rate of the candidate chain (interval
	// coverage target 1−Alpha). Must be in (0, 1).
	Alpha float64
	// Score is the nonconformity score for the rebuilt calibration set;
	// defaults to conformal.ResidualScore.
	Score conformal.Score
	// Window is the rolling-window capacity in labeled observations
	// (default 1024). Oldest samples are overwritten once full.
	Window int
	// MinObserved is the minimum window occupancy before a candidate is
	// attempted (default 256); below it attempts reject with
	// ReasonInsufficient.
	MinObserved int
	// MinValidation is the minimum held-out slice size (default 16).
	MinValidation int
	// CoverageTol is the tolerance below the 1−Alpha target the held-out
	// coverage may sit and still validate (default 0.05).
	CoverageTol float64
	// WidthCap rejects candidates whose mean held-out interval width exceeds
	// it — a chain that "covers" by answering [0, 1] is pathological, not
	// calibrated (default 0.9 in normalised selectivity).
	WidthCap float64
	// MaxAttempts bounds build/validate attempts per episode (default 5).
	MaxAttempts int
	// Backoff is the sleep after the first rejected attempt; it doubles per
	// attempt up to MaxBackoff (defaults 500ms and 30s).
	Backoff time.Duration
	// MaxBackoff caps the exponential backoff (default 30s).
	MaxBackoff time.Duration
	// Drifted gates non-forced kicks: when non-nil and false at kick time,
	// the kick is dropped (the alarm cleared before the supervisor woke).
	Drifted func() bool
	// Swap atomically installs a validated candidate into the serving chain.
	// An error rejects the candidate (ReasonSwap) and the episode retries;
	// the old chain must keep serving on every return path. Required.
	Swap func(c *Candidate) error
	// Metrics receives the cardpi_recal_* families (OBSERVABILITY.md); nil
	// records them without exporting (obs.Registry's nil rule).
	Metrics *obs.Registry
	// Logf, when non-nil, receives one line per episode transition.
	Logf func(format string, args ...any)
	// Sleep is the backoff clock, injectable for tests; defaults to a
	// context-aware timer sleep.
	Sleep func(ctx context.Context, d time.Duration) error
}

// ValidationReport is the held-out verdict on one candidate attempt.
type ValidationReport struct {
	// FitSamples is the number of window samples used to fit the corrector
	// and calibration scores.
	FitSamples int
	// ValSamples is the held-out slice size the verdict is computed on.
	ValSamples int
	// Coverage is the held-out empirical coverage in [0, 1] (NaN when the
	// attempt never reached validation).
	Coverage float64
	// MeanWidth is the held-out mean interval width in normalised
	// selectivity (NaN when the attempt never reached validation).
	MeanWidth float64
	// Accepted reports whether the candidate passed validation.
	Accepted bool
	// Reason is the Reason* constant explaining a rejection ("" when
	// accepted).
	Reason string
}

// Candidate is a fully built, validated (or rejected — check Report)
// recalibration candidate: the corrected estimator and its conformal
// interval head.
type Candidate struct {
	// Model is the corrected estimator; satisfies cardpi.Estimator.
	Model *Corrected
	// PI is the split-conformal head over Model; satisfies cardpi.PI. Nil
	// when the candidate was rejected before calibration.
	PI *CandidatePI
	// Report is the held-out validation verdict.
	Report ValidationReport
}

// Status is a point-in-time snapshot of the supervisor for /admin/recal.
// NaN gauges are sanitised to -1 so the snapshot always JSON-encodes.
type Status struct {
	// State is the episode state machine position ("idle", "recalibrating",
	// "backoff", "failed").
	State string `json:"state"`
	// Observed is the current rolling-window occupancy.
	Observed int `json:"observed"`
	// Window is the rolling-window capacity.
	Window int `json:"window"`
	// Episodes counts drift episodes started.
	Episodes int `json:"episodes"`
	// Attempts counts candidate build/validate attempts across episodes.
	Attempts int `json:"attempts"`
	// Swaps counts validated candidates atomically swapped into serving.
	Swaps int `json:"swaps"`
	// Rejected counts rejected candidate attempts.
	Rejected int `json:"rejected"`
	// FailedEpisodes counts episodes that exhausted their attempt budget.
	FailedEpisodes int `json:"failed_episodes"`
	// LastCoverage is the most recent held-out coverage (-1 before any
	// validation ran).
	LastCoverage float64 `json:"last_validation_coverage"`
	// LastWidth is the most recent held-out mean width (-1 before any
	// validation ran).
	LastWidth float64 `json:"last_validation_width"`
	// LastReason is the most recent rejection reason ("" if none).
	LastReason string `json:"last_reject_reason,omitempty"`
	// LastError is the most recent build/swap error string ("" if none).
	LastError string `json:"last_error,omitempty"`
}

// Supervisor runs the closed drift loop. Record/Kick/Trigger/Status are safe
// for concurrent use with one Run goroutine.
type Supervisor struct {
	cfg Config

	mu       sync.Mutex
	samples  []sample
	total    int // lifetime Record count; total % Window is the ring head
	state    State
	forced   bool
	episodes int
	attempts int
	swaps    int
	rejected int
	failed   int
	lastRep  ValidationReport
	lastErr  string

	kick chan struct{}

	attemptsC *obs.Counter
	successC  *obs.Counter
	failedC   *obs.Counter
	rejectedC map[string]*obs.Counter
	stateG    *obs.Gauge
	valCovG   *obs.Gauge
	valWidthG *obs.Gauge
	swapH     *obs.Histogram
}

// New validates cfg, applies defaults, registers metrics, and returns a
// supervisor ready for Run.
func New(cfg Config) (*Supervisor, error) {
	if cfg.Base == nil {
		return nil, fmt.Errorf("recal: Config.Base is required")
	}
	if cfg.Swap == nil {
		return nil, fmt.Errorf("recal: Config.Swap is required")
	}
	if cfg.Alpha <= 0 || cfg.Alpha >= 1 {
		return nil, fmt.Errorf("recal: alpha %v outside (0, 1)", cfg.Alpha)
	}
	if cfg.Score == nil {
		cfg.Score = conformal.ResidualScore{}
	}
	if cfg.Window <= 0 {
		cfg.Window = 1024
	}
	if cfg.MinObserved <= 0 {
		cfg.MinObserved = 256
	}
	if cfg.MinValidation <= 0 {
		cfg.MinValidation = 16
	}
	if cfg.CoverageTol <= 0 {
		cfg.CoverageTol = 0.05
	}
	if cfg.WidthCap <= 0 {
		cfg.WidthCap = 0.9
	}
	if cfg.MaxAttempts <= 0 {
		cfg.MaxAttempts = 5
	}
	if cfg.Backoff <= 0 {
		cfg.Backoff = 500 * time.Millisecond
	}
	if cfg.MaxBackoff <= 0 {
		cfg.MaxBackoff = 30 * time.Second
	}
	if cfg.Sleep == nil {
		cfg.Sleep = sleepCtx
	}
	if cfg.MinObserved < MinFitSamples+cfg.MinValidation {
		return nil, fmt.Errorf("recal: MinObserved %d cannot cover %d fit + %d validation samples",
			cfg.MinObserved, MinFitSamples, cfg.MinValidation)
	}
	if cfg.Window < cfg.MinObserved {
		return nil, fmt.Errorf("recal: window %d smaller than MinObserved %d", cfg.Window, cfg.MinObserved)
	}
	s := &Supervisor{
		cfg:     cfg,
		samples: make([]sample, 0, cfg.Window),
		kick:    make(chan struct{}, 1),
		lastRep: ValidationReport{Coverage: math.NaN(), MeanWidth: math.NaN()},
	}
	s.registerMetrics(cfg.Metrics)
	return s, nil
}

// registerMetrics creates the cardpi_recal_* families.
func (s *Supervisor) registerMetrics(reg *obs.Registry) {
	s.stateG = reg.Gauge("cardpi_recal_state",
		"Recalibration supervisor state: 0 idle, 1 recalibrating, 2 backoff, 3 failed (episode abandoned).")
	s.attemptsC = reg.Counter("cardpi_recal_attempts_total",
		"Candidate build/validate attempts across all drift episodes.")
	s.successC = reg.Counter("cardpi_recal_success_total",
		"Validated recalibration candidates atomically swapped into the serving chain.")
	s.failedC = reg.Counter("cardpi_recal_failed_episodes_total",
		"Drift episodes abandoned after exhausting the attempt budget; the old chain kept serving.")
	s.rejectedC = map[string]*obs.Counter{}
	for _, reason := range []string{ReasonInsufficient, ReasonCoverage, ReasonWidth, ReasonSwap, ReasonError} {
		s.rejectedC[reason] = reg.Counter("cardpi_recal_rejected_total",
			"Rejected recalibration candidates by reason; every rejection keeps the old chain serving.",
			obs.L("reason", reason))
	}
	s.valCovG = reg.Gauge("cardpi_recal_validation_coverage",
		"Held-out empirical coverage of the most recently validated candidate.")
	s.valWidthG = reg.Gauge("cardpi_recal_validation_width",
		"Held-out mean interval width (normalised selectivity) of the most recently validated candidate.")
	s.swapH = reg.Histogram("cardpi_recal_swap_seconds",
		"Latency of the atomic chain swap (pointer store + monitor reset) for accepted candidates.",
		obs.LatencyBuckets)
	reg.GaugeFunc("cardpi_recal_window_size",
		"Current rolling-window occupancy in labeled observations.", func() float64 {
			s.mu.Lock()
			defer s.mu.Unlock()
			return float64(len(s.samples))
		})
}

// Record adds one labeled observation to the rolling window, computing the
// frozen base model's estimate inline (panics are absorbed, non-finite
// samples dropped). Alloc-free once the window is warm. Call it from the
// serving path for every query whose ground truth is known.
func (s *Supervisor) Record(q workload.Query, trueSel float64) {
	if !isFinite(trueSel) {
		return
	}
	if est, ok := s.baseEstimate(q); ok {
		s.add(est, trueSel)
	}
}

// RecordBase is Record for a caller that already holds the frozen base
// model's estimate of the query, baseEst, and so need not run the model
// again. A non-finite baseEst or trueSel drops the sample, as Record does.
func (s *Supervisor) RecordBase(baseEst, trueSel float64) {
	if isFinite(baseEst) && isFinite(trueSel) {
		s.add(baseEst, trueSel)
	}
}

// Base returns the frozen model whose estimates Record takes.
func (s *Supervisor) Base() estimator.Estimator { return s.cfg.Base }

// add appends one finite sample to the rolling window.
func (s *Supervisor) add(est, trueSel float64) {
	s.mu.Lock()
	if len(s.samples) < s.cfg.Window {
		s.samples = append(s.samples, sample{est: est, truth: trueSel})
	} else {
		s.samples[s.total%s.cfg.Window] = sample{est: est, truth: trueSel}
	}
	s.total++
	s.mu.Unlock()
}

// baseEstimate runs the frozen model defensively: panics and non-finite
// outputs make the sample unusable rather than crashing the serving path.
func (s *Supervisor) baseEstimate(q workload.Query) (est float64, ok bool) {
	defer func() {
		if recover() != nil {
			ok = false
		}
	}()
	est = s.cfg.Base.EstimateSelectivity(q)
	return est, isFinite(est)
}

// Kick wakes the Run loop without blocking; redundant kicks coalesce. The
// loop re-checks Config.Drifted before starting an episode, so kicking on
// every drifted observation is cheap and keeps a Failed episode re-armed for
// as long as the drift persists (level-triggered).
func (s *Supervisor) Kick() {
	select {
	case s.kick <- struct{}{}:
	default:
	}
}

// Trigger forces an episode on the next wake-up regardless of the drift
// gate — the manual /admin/recal/trigger path.
func (s *Supervisor) Trigger() {
	s.mu.Lock()
	s.forced = true
	s.mu.Unlock()
	s.Kick()
}

// Run executes the supervision loop until ctx is cancelled. Start it in its
// own goroutine; only one Run per supervisor.
func (s *Supervisor) Run(ctx context.Context) {
	for {
		select {
		case <-ctx.Done():
			return
		case <-s.kick:
		}
		s.mu.Lock()
		forced := s.forced
		s.forced = false
		s.mu.Unlock()
		if !forced && s.cfg.Drifted != nil && !s.cfg.Drifted() {
			continue
		}
		s.runEpisode(ctx)
	}
}

// runEpisode drives one drift episode: bounded attempts with exponential
// backoff, fail-closed on every path including panics.
func (s *Supervisor) runEpisode(ctx context.Context) {
	defer func() {
		if r := recover(); r != nil {
			s.noteError(fmt.Sprintf("episode panic: %v", r))
			s.finishEpisode(false)
		}
	}()
	s.mu.Lock()
	s.episodes++
	ep := s.episodes
	s.mu.Unlock()
	s.logf("recal: episode %d starting (window %d/%d)", ep, s.Status().Observed, s.cfg.Window)
	backoff := s.cfg.Backoff
	for attempt := 1; attempt <= s.cfg.MaxAttempts; attempt++ {
		if ctx.Err() != nil {
			s.finishEpisode(false)
			return
		}
		s.setState(StateRecalibrating)
		s.mu.Lock()
		s.attempts++
		s.mu.Unlock()
		s.attemptsC.Inc()
		if s.attemptOnce(ep, attempt) {
			s.finishEpisode(true)
			return
		}
		if attempt < s.cfg.MaxAttempts {
			s.setState(StateBackoff)
			if err := s.cfg.Sleep(ctx, backoff); err != nil {
				s.finishEpisode(false)
				return
			}
			backoff *= 2
			if backoff > s.cfg.MaxBackoff {
				backoff = s.cfg.MaxBackoff
			}
		}
	}
	s.logf("recal: episode %d abandoned after %d attempts; old chain keeps serving", ep, s.cfg.MaxAttempts)
	s.finishEpisode(false)
}

// attemptOnce builds, validates, and (if accepted) swaps one candidate.
// Returns true only after a successful swap.
func (s *Supervisor) attemptOnce(ep, attempt int) bool {
	cand, err := s.BuildCandidate()
	if err != nil {
		s.noteError(err.Error())
		s.reject(ReasonError)
		s.logf("recal: episode %d attempt %d build error: %v", ep, attempt, err)
		return false
	}
	s.noteReport(cand.Report)
	if !cand.Report.Accepted {
		s.reject(cand.Report.Reason)
		s.logf("recal: episode %d attempt %d rejected (%s): coverage %.3f width %.4f on %d held-out",
			ep, attempt, cand.Report.Reason, cand.Report.Coverage, cand.Report.MeanWidth, cand.Report.ValSamples)
		return false
	}
	start := time.Now()
	if err := s.cfg.Swap(cand); err != nil {
		s.noteError(err.Error())
		s.reject(ReasonSwap)
		s.logf("recal: episode %d attempt %d swap refused: %v", ep, attempt, err)
		return false
	}
	s.swapH.Observe(time.Since(start).Seconds())
	s.mu.Lock()
	s.swaps++
	s.mu.Unlock()
	s.successC.Inc()
	s.logf("recal: episode %d attempt %d swapped in %s (coverage %.3f width %.4f on %d held-out)",
		ep, attempt, cand.PI.Name(), cand.Report.Coverage, cand.Report.MeanWidth, cand.Report.ValSamples)
	return true
}

// validationStride puts every 4th window sample in the held-out slice; the
// deterministic striping keeps fit and validation interleaved in time so
// both see the same mix of pre- and post-shift traffic.
const validationStride = 4

// BuildCandidate snapshots the rolling window and runs one shadow
// build/validate pass: stripe off a held-out slice, fit the corrector and
// split-conformal calibration on the rest, then score held-out coverage and
// width. It never mutates serving state; the verdict is in the candidate's
// Report. An error return means the build itself failed (ReasonError
// territory); a rejected candidate is a nil-error return with
// Report.Accepted == false.
func (s *Supervisor) BuildCandidate() (*Candidate, error) {
	s.mu.Lock()
	snap := make([]sample, len(s.samples))
	copy(snap, s.samples)
	s.mu.Unlock()

	rep := ValidationReport{Coverage: math.NaN(), MeanWidth: math.NaN()}
	if len(snap) < s.cfg.MinObserved {
		rep.Reason = ReasonInsufficient
		rep.FitSamples = len(snap)
		return &Candidate{Report: rep}, nil
	}
	var fitEsts, fitTruths []float64
	var val []sample
	var fit []sample
	for i, sm := range snap {
		if i%validationStride == validationStride-1 {
			val = append(val, sm)
		} else {
			fit = append(fit, sm)
			fitEsts = append(fitEsts, sm.est)
			fitTruths = append(fitTruths, sm.truth)
		}
	}
	rep.FitSamples = len(fit)
	rep.ValSamples = len(val)
	if len(val) < s.cfg.MinValidation || len(fit) < MinFitSamples {
		rep.Reason = ReasonInsufficient
		return &Candidate{Report: rep}, nil
	}

	corr, err := FitCorrector(fitEsts, fitTruths)
	if err != nil {
		return nil, err
	}
	corrEsts := make([]float64, len(fitEsts))
	for i, e := range fitEsts {
		corrEsts[i] = corr.Apply(e)
	}
	cp, err := conformal.CalibrateSplit(corrEsts, fitTruths, s.cfg.Score, s.cfg.Alpha)
	if err != nil {
		return nil, fmt.Errorf("recal: calibration failed: %w", err)
	}

	hits, widthSum := 0, 0.0
	finiteOK := true
	for _, sm := range val {
		iv := cp.Interval(corr.Apply(sm.est)).Clip(0, 1)
		if !isFinite(iv.Lo) || !isFinite(iv.Hi) || iv.Lo > iv.Hi {
			finiteOK = false
			break
		}
		if sm.truth >= iv.Lo && sm.truth <= iv.Hi {
			hits++
		}
		widthSum += iv.Hi - iv.Lo
	}
	if !finiteOK {
		rep.Reason = ReasonWidth
		return &Candidate{Report: rep}, nil
	}
	rep.Coverage = float64(hits) / float64(len(val))
	rep.MeanWidth = widthSum / float64(len(val))
	switch {
	case rep.Coverage < 1-s.cfg.Alpha-s.cfg.CoverageTol:
		rep.Reason = ReasonCoverage
	case rep.MeanWidth > s.cfg.WidthCap:
		rep.Reason = ReasonWidth
	default:
		rep.Accepted = true
	}

	model := NewCorrected(s.cfg.Base, corr)
	return &Candidate{
		Model:  model,
		PI:     &CandidatePI{model: model, cp: cp},
		Report: rep,
	}, nil
}

// Status returns a sanitised snapshot (NaN → -1, JSON-safe).
func (s *Supervisor) Status() Status {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Status{
		State:          s.state.String(),
		Observed:       len(s.samples),
		Window:         s.cfg.Window,
		Episodes:       s.episodes,
		Attempts:       s.attempts,
		Swaps:          s.swaps,
		Rejected:       s.rejected,
		FailedEpisodes: s.failed,
		LastCoverage:   sanitize(s.lastRep.Coverage),
		LastWidth:      sanitize(s.lastRep.MeanWidth),
		LastReason:     s.lastRep.Reason,
		LastError:      s.lastErr,
	}
}

// setState records the state and mirrors it to the gauge.
func (s *Supervisor) setState(st State) {
	s.mu.Lock()
	s.state = st
	s.mu.Unlock()
	s.stateG.Set(float64(st))
}

// finishEpisode closes an episode: Idle on success, Failed (plus the failed
// counter) otherwise.
func (s *Supervisor) finishEpisode(success bool) {
	if success {
		s.setState(StateIdle)
		return
	}
	s.mu.Lock()
	s.failed++
	s.mu.Unlock()
	s.failedC.Inc()
	s.setState(StateFailed)
}

// reject counts a rejected attempt under its reason label.
func (s *Supervisor) reject(reason string) {
	s.mu.Lock()
	s.rejected++
	s.lastRep.Reason = reason
	s.mu.Unlock()
	s.rejectedC[reason].Inc()
}

// noteReport stores the latest validation verdict and mirrors the gauges.
func (s *Supervisor) noteReport(rep ValidationReport) {
	s.mu.Lock()
	s.lastRep = rep
	s.mu.Unlock()
	if isFinite(rep.Coverage) {
		s.valCovG.Set(rep.Coverage)
	}
	if isFinite(rep.MeanWidth) {
		s.valWidthG.Set(rep.MeanWidth)
	}
}

// noteError stores the latest error string for Status.
func (s *Supervisor) noteError(msg string) {
	s.mu.Lock()
	s.lastErr = msg
	s.mu.Unlock()
}

// logf forwards to Config.Logf when set.
func (s *Supervisor) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

// sanitize maps non-finite telemetry to -1 so status JSON always encodes.
func sanitize(v float64) float64 {
	if !isFinite(v) {
		return -1
	}
	return v
}

// sleepCtx is the default context-aware backoff sleep.
func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}
