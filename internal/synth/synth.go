// Package synth implements the budget-aware per-workload estimator
// meta-search — "generate, don't tune": given a workload description and a
// budget, it enumerates the pipeline's model × method combo table plus a
// small hyperparameter lattice, prunes trials that can never fit the budget
// using the combo table's static estimates (before any training runs),
// builds and scores the survivors in parallel over a shared staged build
// graph (so trials share table loads, workload labeling, featurization, and
// model training), and emits a checksummed leaderboard artifact plus the
// winning .cpi bundle.
//
// Determinism contract: for a fixed Options (same workload, budget, seed),
// the leaderboard bytes and the winning bundle bytes are identical for any
// worker count. Everything that feeds a budget decision or a score is a
// deterministic function of the inputs — static cost estimates from the
// combo table, reproducible builds, a fixed trial enumeration order, and
// index-keyed result collection. Measured wall-clock never enters the
// leaderboard; it is reported only through the cardpi_synth_* metrics and
// the log.
package synth

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"runtime"
	"sort"
	"strings"
	"time"

	"cardpi/internal/conformal"
	"cardpi/internal/dataset"
	"cardpi/internal/obs"
	"cardpi/internal/par"
	"cardpi/internal/pipeline"
	"cardpi/internal/workload"
)

// LeaderboardKind is the sniffable "kind" field value of a leaderboard
// JSON document, letting inspect distinguish leaderboards from other JSON.
const LeaderboardKind = "cardpi-synth-leaderboard"

// LeaderboardSchemaVersion is the leaderboard document layout version.
const LeaderboardSchemaVersion = 1

// Default search knobs.
const (
	// defaultEvalQueries is the held-out scoring workload size.
	defaultEvalQueries = 500
	// evalSeedOff offsets the eval workload's seed from the root seed, far
	// from the pipeline's derived seeds (+1, +2, +3, +10) so eval queries
	// are disjoint from training and calibration by construction.
	evalSeedOff = 1000
	// coveragePenalty scales the coverage shortfall in the score: missing
	// the coverage target by 1 point costs as much as 10 full units of
	// width, so candidates that hit the target are preferred almost
	// lexicographically.
	coveragePenalty = 10.0
)

// Budget bounds the search. Zero-valued fields are unconstrained.
// TrainTime and NsPerQuery gate on the combo table's deterministic static
// estimates (never measured wall-clock, which would break reproducibility);
// ArtifactBytes gates twice — statically before training (lower bound) and
// exactly after serialisation (actual bundle bytes, which are reproducible).
type Budget struct {
	// TrainTime caps the estimated training cost per trial.
	TrainTime time.Duration
	// ArtifactBytes caps the serialised .cpi bundle size.
	ArtifactBytes int64
	// NsPerQuery caps the estimated per-query serve latency.
	NsPerQuery int64
	// TargetCoverage is the empirical coverage the winner should reach on
	// the held-out workload; 0 defaults to 1-Alpha.
	TargetCoverage float64
	// WidthObjective selects the width statistic to minimise: "mean"
	// (default) or "p90".
	WidthObjective string
}

// budgetJSON is the leaderboard's record of the budget (train time in
// nanoseconds so the document is unit-explicit).
type budgetJSON struct {
	TrainNs        int64   `json:"train_ns,omitempty"`
	ArtifactBytes  int64   `json:"artifact_bytes,omitempty"`
	NsPerQuery     int64   `json:"ns_per_query,omitempty"`
	TargetCoverage float64 `json:"target_coverage"`
	WidthObjective string  `json:"width_objective"`
}

// Lattice is the hyperparameter grid crossed with the combo table. Nil
// slices take the defaults noted per field. Method-specific knobs only
// expand trials of their method; the epoch knob only expands families that
// train by epochs (mscn, lwnn, naru).
type Lattice struct {
	// Epochs lists training-epoch overrides (0 = family default).
	// Default: [0].
	Epochs []int
	// CalFracs lists calibration-split fractions (0 = default 0.4).
	// Default: [0].
	CalFracs []float64
	// KDivs lists localized-CP k divisors (lcp trials only).
	// Default: [4, 8].
	KDivs []int
	// MinGroups lists Mondrian merge floors (mondrian trials only).
	// Default: [20, 10].
	MinGroups []int
}

func (l Lattice) withDefaults() Lattice {
	if len(l.Epochs) == 0 {
		l.Epochs = []int{0}
	}
	if len(l.CalFracs) == 0 {
		l.CalFracs = []float64{0}
	}
	if len(l.KDivs) == 0 {
		l.KDivs = []int{4, 8}
	}
	if len(l.MinGroups) == 0 {
		l.MinGroups = []int{20, 10}
	}
	return l
}

// Options configures one synthesis run. Dataset/CSVPath/Rows/Queries/Seed/
// Alpha describe the tenant workload exactly as pipeline.Config does.
type Options struct {
	// Dataset is the synthetic generator name; ignored when CSVPath is set.
	Dataset string
	// CSVPath, when non-empty, loads the table from a CSV file.
	CSVPath string
	// Rows is the generated table size.
	Rows int
	// Queries is the training+calibration workload size per trial.
	Queries int
	// Seed is the root random seed shared by every trial.
	Seed int64
	// Alpha is the miscoverage level (coverage target = 1-Alpha unless
	// Budget.TargetCoverage overrides it).
	Alpha float64
	// Budget bounds the search; see Budget.
	Budget Budget
	// Lattice is the hyperparameter grid; see Lattice.
	Lattice Lattice
	// Models restricts the search to these families (nil = all).
	Models []string
	// Methods restricts the search to these PI methods (nil = all).
	Methods []string
	// EvalQueries sizes the held-out scoring workload (0 = 500).
	EvalQueries int
	// Workers bounds trial parallelism (0 = NumCPU). Results are
	// identical for any value.
	Workers int
	// Metrics receives the cardpi_synth_* families; nil records them
	// without exporting (obs.Registry's nil rule).
	Metrics *obs.Registry
	// Logf, when non-nil, receives progress lines.
	Logf func(format string, args ...any)
}

func (o Options) logf(format string, args ...any) {
	if o.Logf != nil {
		o.Logf(format, args...)
	}
}

// Trial statuses, in leaderboard rank order.
const (
	// StatusScored marks a trial that was built and scored.
	StatusScored = "scored"
	// StatusRejected marks a trial built successfully but over budget on
	// its actual (exact) artifact size.
	StatusRejected = "rejected"
	// StatusPruned marks a trial eliminated before training by a static
	// budget bound.
	StatusPruned = "pruned"
	// StatusFailed marks a trial whose build or scoring errored.
	StatusFailed = "failed"
)

// Trial is one leaderboard entry: a (model, method, hyperparameter) point
// with its provenance, budget estimates, and — when scored — its held-out
// metrics. All fields are deterministic for a fixed Options.
type Trial struct {
	// ID is the trial's position in the fixed enumeration order.
	ID int `json:"id"`
	// Rank is the 1-based leaderboard rank; 0 for unscored trials.
	Rank int `json:"rank,omitempty"`
	// Model is the estimator family.
	Model string `json:"model"`
	// Method is the PI method.
	Method string `json:"method"`
	// Epochs is the training-epoch override (0 = family default).
	Epochs int `json:"epochs,omitempty"`
	// CalFrac is the calibration-split override (0 = default 0.4).
	CalFrac float64 `json:"cal_frac,omitempty"`
	// KDiv is the localized-CP k divisor (lcp trials only).
	KDiv int `json:"kdiv,omitempty"`
	// MinGroup is the Mondrian merge floor (mondrian trials only).
	MinGroup int `json:"min_group,omitempty"`
	// Status is scored | rejected | pruned | failed.
	Status string `json:"status"`
	// Reason records why a trial was pruned, rejected, or failed.
	Reason string `json:"reason,omitempty"`
	// Score is the scalar objective (lower is better); see scoring in
	// DESIGN.md. Present only for scored trials.
	Score float64 `json:"score,omitempty"`
	// Coverage is the empirical held-out coverage (scored trials).
	Coverage float64 `json:"coverage,omitempty"`
	// MeanWidth is the held-out mean interval width (scored trials).
	MeanWidth float64 `json:"mean_width,omitempty"`
	// P90Width is the held-out p90 interval width (scored trials).
	P90Width float64 `json:"p90_width,omitempty"`
	// ArtifactBytes is the exact serialised bundle size (built trials).
	ArtifactBytes int64 `json:"artifact_bytes,omitempty"`
	// EstMinArtifactBytes is the static artifact-size lower bound.
	EstMinArtifactBytes int64 `json:"est_min_artifact_bytes"`
	// EstTrainNs is the static training-cost estimate.
	EstTrainNs int64 `json:"est_train_ns"`
	// EstServeNs is the static per-query latency estimate.
	EstServeNs int64 `json:"est_serve_ns"`
}

// Leaderboard is the synthesis report artifact: run provenance, the budget,
// every trial with its outcome, and a self-checksum. Encode produces
// canonical bytes; Decode verifies them.
type Leaderboard struct {
	// Kind identifies the document (LeaderboardKind).
	Kind string `json:"kind"`
	// SchemaVersion is the document layout version.
	SchemaVersion int `json:"schema_version"`
	// Dataset is the synthetic dataset name or CSV table name.
	Dataset string `json:"dataset"`
	// Source is "generated" or "csv".
	Source string `json:"source"`
	// Rows is the generated table size.
	Rows int `json:"rows,omitempty"`
	// Queries is the per-trial workload size.
	Queries int `json:"queries"`
	// EvalQueries is the held-out scoring workload size.
	EvalQueries int `json:"eval_queries"`
	// Seed is the root seed shared by every trial.
	Seed int64 `json:"seed"`
	// Alpha is the miscoverage level.
	Alpha float64 `json:"alpha"`
	// Budget records the budget the run enforced.
	Budget budgetJSON `json:"budget"`
	// WinnerID is the winning trial's ID, -1 when nothing scored.
	WinnerID int `json:"winner_id"`
	// Trials lists every trial: scored by rank, then rejected, pruned,
	// and failed by ID.
	Trials []Trial `json:"trials"`
	// Checksum is the CRC-32 (hex) of the document serialised with this
	// field empty.
	Checksum string `json:"checksum"`
}

// Encode renders the leaderboard as canonical, checksummed JSON.
func (lb *Leaderboard) Encode() ([]byte, error) {
	cp := *lb
	cp.Checksum = ""
	raw, err := json.MarshalIndent(&cp, "", "  ")
	if err != nil {
		return nil, err
	}
	cp.Checksum = fmt.Sprintf("%08x", crc32.ChecksumIEEE(raw))
	out, err := json.MarshalIndent(&cp, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(out, '\n'), nil
}

// Decode parses leaderboard bytes and verifies the embedded checksum.
func Decode(b []byte) (*Leaderboard, error) {
	var lb Leaderboard
	if err := json.Unmarshal(b, &lb); err != nil {
		return nil, fmt.Errorf("synth: parsing leaderboard: %w", err)
	}
	if lb.Kind != LeaderboardKind {
		return nil, fmt.Errorf("synth: not a leaderboard document (kind %q)", lb.Kind)
	}
	if lb.SchemaVersion != LeaderboardSchemaVersion {
		return nil, fmt.Errorf("synth: leaderboard schema version %d, this build reads %d",
			lb.SchemaVersion, LeaderboardSchemaVersion)
	}
	want := lb.Checksum
	cp := lb
	cp.Checksum = ""
	raw, err := json.MarshalIndent(&cp, "", "  ")
	if err != nil {
		return nil, err
	}
	if got := fmt.Sprintf("%08x", crc32.ChecksumIEEE(raw)); got != want {
		return nil, fmt.Errorf("synth: leaderboard checksum mismatch: computed %s, stored %s (corrupt or hand-edited)", got, want)
	}
	return &lb, nil
}

// Result is a completed synthesis: the leaderboard, the winning trial (nil
// when every trial was pruned, rejected, or failed), and the winner's
// reproducible build.
type Result struct {
	// Leaderboard is the full trial report.
	Leaderboard *Leaderboard
	// Winner points at the winning trial inside Leaderboard.Trials, nil
	// when nothing scored.
	Winner *Trial
	// Setup is the winner's built pipeline (nil without a winner).
	Setup *pipeline.Setup
	// Config is the winner's build configuration, suitable for
	// pipeline.SaveBundle and for reproducing the build.
	Config pipeline.Config
	// Bundle is the winner's serialised .cpi artifact bytes.
	Bundle []byte
}

// trialResult carries a trial's outcome plus the per-trial build products
// that stay out of the leaderboard.
type trialResult struct {
	trial  Trial
	cfg    pipeline.Config
	setup  *pipeline.Setup
	bundle []byte
}

// enumerate expands the combo table × lattice into the fixed trial order:
// combo-table order outermost (models, then methods), then calibration
// fraction, epochs, and the method-specific knob. The order — and therefore
// every trial ID — is independent of budget, workers, and timing.
func enumerate(opts Options, lat Lattice) ([]Trial, error) {
	wantModel, err := nameFilter(opts.Models, "model")
	if err != nil {
		return nil, err
	}
	wantMethod, err := nameFilter(opts.Methods, "method")
	if err != nil {
		return nil, err
	}
	var trials []Trial
	for _, combo := range pipeline.Combos() {
		model, method := combo[0], combo[1]
		if !wantModel(model) || !wantMethod(method) {
			continue
		}
		epochs := []int{0}
		if hasEpochKnob(model) {
			epochs = lat.Epochs
		}
		kdivs, mingroups := []int{0}, []int{0}
		if method == "lcp" {
			kdivs = lat.KDivs
		}
		if method == "mondrian" {
			mingroups = lat.MinGroups
		}
		for _, cf := range lat.CalFracs {
			for _, ep := range epochs {
				for _, kd := range kdivs {
					for _, mg := range mingroups {
						trials = append(trials, Trial{
							ID: len(trials), Model: model, Method: method,
							Epochs: ep, CalFrac: cf, KDiv: kd, MinGroup: mg,
						})
					}
				}
			}
		}
	}
	if len(trials) == 0 {
		return nil, fmt.Errorf("synth: model/method filters matched no valid combo")
	}
	return trials, nil
}

// hasEpochKnob reports whether the family's training is epoch-driven.
func hasEpochKnob(model string) bool {
	switch model {
	case "mscn", "lwnn", "naru":
		return true
	}
	return false
}

// nameFilter validates an allow-list against the combo table and returns
// its membership predicate.
func nameFilter(names []string, kind string) (func(string) bool, error) {
	if len(names) == 0 {
		return func(string) bool { return true }, nil
	}
	set := make(map[string]bool, len(names))
	for _, n := range names {
		n = strings.ToLower(strings.TrimSpace(n))
		known := false
		for _, combo := range pipeline.Combos() {
			if (kind == "model" && combo[0] == n) || (kind == "method" && combo[1] == n) {
				known = true
				break
			}
		}
		if !known {
			return nil, fmt.Errorf("synth: unknown %s %q", kind, n)
		}
		set[n] = true
	}
	return func(s string) bool { return set[s] }, nil
}

// config assembles the trial's pipeline configuration.
func (t Trial) config(opts Options) pipeline.Config {
	return pipeline.Config{
		Dataset: opts.Dataset, CSVPath: opts.CSVPath,
		Model: t.Model, Method: t.Method,
		Alpha: opts.Alpha, Rows: opts.Rows, Queries: opts.Queries, Seed: opts.Seed,
		Epochs: t.Epochs, CalFrac: t.CalFrac,
		LocalizedKDiv: t.KDiv, MondrianMinGroup: t.MinGroup,
	}
}

// Synthesize runs the meta-search and returns the leaderboard and winner.
// It never writes files; callers persist Result.Bundle and the encoded
// leaderboard (see cmd/cardpi's synth subcommand for the atomic-write
// convention).
func Synthesize(opts Options) (*Result, error) {
	start := time.Now()
	if opts.EvalQueries <= 0 {
		opts.EvalQueries = defaultEvalQueries
	}
	if opts.Workers <= 0 {
		opts.Workers = runtime.NumCPU()
	}
	target := opts.Budget.TargetCoverage
	if target <= 0 {
		target = 1 - opts.Alpha
	}
	objective := strings.ToLower(opts.Budget.WidthObjective)
	if objective == "" {
		objective = "mean"
	}
	if objective != "mean" && objective != "p90" {
		return nil, fmt.Errorf("synth: unknown width objective %q (want mean | p90)", opts.Budget.WidthObjective)
	}
	lat := opts.Lattice.withDefaults()

	g := pipeline.NewGraph()
	baseCfg := pipeline.Config{Dataset: opts.Dataset, CSVPath: opts.CSVPath,
		Rows: opts.Rows, Seed: opts.Seed, Logf: opts.Logf}
	tab, err := g.Table(baseCfg)
	if err != nil {
		return nil, err
	}
	evalWl, err := pipeline.EvalWorkload(tab, opts.EvalQueries, opts.Seed+evalSeedOff)
	if err != nil {
		return nil, err
	}

	trials, err := enumerate(opts, lat)
	if err != nil {
		return nil, err
	}
	opts.logf("synth: %d trials over %d workers (eval %d queries, target coverage %.3f, objective %s)",
		len(trials), opts.Workers, opts.EvalQueries, target, objective)

	pool := par.NewPool(opts.Workers)
	results, err := par.Map(pool, len(trials), func(i int) (trialResult, error) {
		return runTrial(g, tab, evalWl, opts, trials[i], target, objective), nil
	})
	if err != nil {
		return nil, err
	}

	lb := assembleLeaderboard(opts, target, objective, results)
	res := &Result{Leaderboard: lb}
	if lb.WinnerID >= 0 {
		res.Winner = &lb.Trials[0]
		for i := range results {
			if results[i].trial.ID == lb.WinnerID {
				res.Setup = results[i].setup
				res.Config = results[i].cfg
				res.Bundle = results[i].bundle
			}
		}
	}
	publishMetrics(opts, lb, time.Since(start))
	opts.logf("synth: done in %s: %s", time.Since(start).Round(time.Millisecond), Summary(lb))
	return res, nil
}

// runTrial takes one trial through the budget gates, the shared build
// graph, and held-out scoring. Errors become StatusFailed entries rather
// than aborting the run.
func runTrial(g *pipeline.Graph, tab *dataset.Table, evalWl *workload.Workload,
	opts Options, t Trial, target float64, objective string) trialResult {
	cfg := t.config(opts)
	res := trialResult{cfg: cfg}

	t.EstMinArtifactBytes, _ = pipeline.EstimateMinArtifactBytes(t.Model, tab)
	t.EstTrainNs, _ = pipeline.EstimateTrainNs(t.Model, t.Method, opts.Rows, opts.Queries, t.Epochs)
	calSize := int(float64(opts.Queries) * calFracOf(t.CalFrac))
	t.EstServeNs, _ = pipeline.EstimateServeNs(t.Model, t.Method, calSize)

	b := opts.Budget
	switch {
	case b.ArtifactBytes > 0 && t.EstMinArtifactBytes > b.ArtifactBytes:
		t.Status, t.Reason = StatusPruned, fmt.Sprintf(
			"static artifact lower bound %d B exceeds budget %d B (model never trained)",
			t.EstMinArtifactBytes, b.ArtifactBytes)
	case b.TrainTime > 0 && t.EstTrainNs > b.TrainTime.Nanoseconds():
		t.Status, t.Reason = StatusPruned, fmt.Sprintf(
			"estimated train cost %s exceeds budget %s (model never trained)",
			time.Duration(t.EstTrainNs), b.TrainTime)
	case b.NsPerQuery > 0 && t.EstServeNs > b.NsPerQuery:
		t.Status, t.Reason = StatusPruned, fmt.Sprintf(
			"estimated serve latency %d ns/query exceeds budget %d ns/query (model never trained)",
			t.EstServeNs, b.NsPerQuery)
	}
	if t.Status == StatusPruned {
		res.trial = t
		return res
	}

	setup, err := g.Build(cfg)
	if err != nil {
		t.Status, t.Reason = StatusFailed, "build: "+err.Error()
		res.trial = t
		return res
	}
	var buf bytes.Buffer
	if err := pipeline.SaveBundle(&buf, setup, cfg); err != nil {
		t.Status, t.Reason = StatusFailed, "serialise: "+err.Error()
		res.trial = t
		return res
	}
	t.ArtifactBytes = int64(buf.Len())
	if b.ArtifactBytes > 0 && t.ArtifactBytes > b.ArtifactBytes {
		t.Status, t.Reason = StatusRejected, fmt.Sprintf(
			"artifact is %d B, exceeds budget %d B", t.ArtifactBytes, b.ArtifactBytes)
		res.trial = t
		return res
	}

	intervals := make([]conformal.Interval, len(evalWl.Queries))
	truths := make([]float64, len(evalWl.Queries))
	for i, lq := range evalWl.Queries {
		iv, err := setup.PI.Interval(lq.Query)
		if err != nil {
			t.Status, t.Reason = StatusFailed, "score: "+err.Error()
			res.trial = t
			return res
		}
		intervals[i] = iv
		truths[i] = lq.Sel
	}
	cov, err := conformal.Coverage(intervals, truths)
	if err != nil {
		t.Status, t.Reason = StatusFailed, "score: "+err.Error()
		res.trial = t
		return res
	}
	widths, err := conformal.Widths(intervals)
	if err != nil {
		t.Status, t.Reason = StatusFailed, "score: "+err.Error()
		res.trial = t
		return res
	}
	t.Coverage, t.MeanWidth, t.P90Width = cov, widths.Mean, widths.P90
	width := t.MeanWidth
	if objective == "p90" {
		width = t.P90Width
	}
	shortfall := target - cov
	if shortfall < 0 {
		shortfall = 0
	}
	t.Score = width + coveragePenalty*shortfall
	t.Status = StatusScored
	res.trial = t
	res.setup = setup
	res.bundle = append([]byte(nil), buf.Bytes()...)
	return res
}

// calFracOf resolves the calibration fraction for the serve-cost estimate.
func calFracOf(cf float64) float64 {
	if cf > 0 && cf < 1 {
		return cf
	}
	return 0.4
}

// statusOrder ranks statuses for the leaderboard layout.
func statusOrder(s string) int {
	switch s {
	case StatusScored:
		return 0
	case StatusRejected:
		return 1
	case StatusPruned:
		return 2
	default:
		return 3
	}
}

// assembleLeaderboard sorts trials (scored by ascending score with ID
// tie-break, then rejected, pruned, failed by ID), assigns ranks, and fills
// the provenance header.
func assembleLeaderboard(opts Options, target float64, objective string, results []trialResult) *Leaderboard {
	trials := make([]Trial, len(results))
	for i, r := range results {
		trials[i] = r.trial
	}
	sort.SliceStable(trials, func(i, j int) bool {
		si, sj := statusOrder(trials[i].Status), statusOrder(trials[j].Status)
		if si != sj {
			return si < sj
		}
		if si == 0 && trials[i].Score != trials[j].Score {
			return trials[i].Score < trials[j].Score
		}
		return trials[i].ID < trials[j].ID
	})
	winner := -1
	rank := 0
	for i := range trials {
		if trials[i].Status == StatusScored {
			rank++
			trials[i].Rank = rank
			if winner < 0 {
				winner = trials[i].ID
			}
		}
	}
	lb := &Leaderboard{
		Kind: LeaderboardKind, SchemaVersion: LeaderboardSchemaVersion,
		Dataset: opts.Dataset, Source: "generated",
		Rows: opts.Rows, Queries: opts.Queries, EvalQueries: opts.EvalQueries,
		Seed: opts.Seed, Alpha: opts.Alpha,
		Budget: budgetJSON{
			TrainNs:        opts.Budget.TrainTime.Nanoseconds(),
			ArtifactBytes:  opts.Budget.ArtifactBytes,
			NsPerQuery:     opts.Budget.NsPerQuery,
			TargetCoverage: target,
			WidthObjective: objective,
		},
		WinnerID: winner,
		Trials:   trials,
	}
	if opts.CSVPath != "" {
		lb.Source = "csv"
	}
	return lb
}

// Counts tallies leaderboard trials by status.
func Counts(lb *Leaderboard) map[string]int {
	out := map[string]int{}
	for _, t := range lb.Trials {
		out[t.Status]++
	}
	return out
}

// Summary renders a one-line outcome ("12 scored, 4 pruned, winner mscn/cqr
// score 0.031") for logs and admin responses.
func Summary(lb *Leaderboard) string {
	c := Counts(lb)
	s := fmt.Sprintf("%d scored, %d rejected, %d pruned, %d failed",
		c[StatusScored], c[StatusRejected], c[StatusPruned], c[StatusFailed])
	if lb.WinnerID >= 0 && len(lb.Trials) > 0 {
		w := lb.Trials[0]
		s += fmt.Sprintf("; winner %s/%s score %.6f", w.Model, w.Method, w.Score)
	} else {
		s += "; no winner"
	}
	return s
}

// publishMetrics emits the cardpi_synth_* families for one run.
func publishMetrics(opts Options, lb *Leaderboard, wall time.Duration) {
	reg := opts.Metrics
	reg.Counter("cardpi_synth_runs_total", "Completed synthesis runs.").Inc()
	counts := Counts(lb)
	for _, status := range []string{StatusScored, StatusRejected, StatusPruned, StatusFailed} {
		reg.Counter("cardpi_synth_trials_total",
			"Synthesis trials by outcome status.", obs.L("status", status)).Add(uint64(counts[status]))
	}
	if lb.WinnerID >= 0 && len(lb.Trials) > 0 {
		reg.Gauge("cardpi_synth_best_score",
			"Winning trial's score (width + coverage-shortfall penalty) of the last synthesis run.").Set(lb.Trials[0].Score)
	}
	reg.Gauge("cardpi_synth_wall_seconds",
		"Wall-clock duration of the last synthesis run.").Set(wall.Seconds())
}
