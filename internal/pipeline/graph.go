package pipeline

import (
	"fmt"
	"sync"

	"cardpi"
	"cardpi/internal/dataset"
	"cardpi/internal/mscn"
	"cardpi/internal/workload"
)

// The staged build graph. Build used to be a monolithic sequence; it is now
// a composition of five named stages — LoadTable → GenerateWorkload →
// Featurize → TrainModel → Calibrate — each memoised under a content-derived
// key. A fresh graph per Build call reproduces the legacy behaviour exactly
// (every stage misses once), while a long-lived graph shared across many
// builds (the synth meta-search) collapses repeated prefixes: two trials
// that differ only in the PI method load the table, label the workload,
// featurize, and train the model once.
//
// Memo keys are derived purely from the Config fields a stage consumes (see
// the *Key methods), never from wall-clock or pointer identity, so a key
// collision implies bit-identical outputs. Memoised values are shared by
// pointer; everything cached is immutable after construction (tables,
// trained models, featurizers), matching the concurrency contract the serve
// path already relies on.

// Stage names one node of the staged build graph.
type Stage string

// The five stages of the build graph, in dependency order.
const (
	// StageLoadTable loads or generates the base table.
	StageLoadTable Stage = "load-table"
	// StageGenerateWorkload generates, labels, and splits the query
	// workload.
	StageGenerateWorkload Stage = "generate-workload"
	// StageFeaturize constructs the query featurizers bound to a table.
	StageFeaturize Stage = "featurize"
	// StageTrainModel trains the point estimator (and, for cqr, the
	// quantile pair).
	StageTrainModel Stage = "train-model"
	// StageCalibrate calibrates the PI method around the trained model.
	StageCalibrate Stage = "calibrate"
)

// StageStats counts memo-cache activity for one stage. Hits and Misses are
// scheduling-independent for a fixed set of builds: a caller that creates
// the memo cell counts a miss, every other caller a hit, so misses equal
// the number of unique keys regardless of worker interleaving.
type StageStats struct {
	// Hits is the number of stage invocations served from the memo cache.
	Hits int
	// Misses is the number of stage invocations that computed the value.
	Misses int
}

// Graph is a staged build pipeline with a content-keyed memo cache. The
// zero value is not usable; construct with NewGraph. A Graph is safe for
// concurrent use: concurrent builds that reach the same stage key block on
// a single computation and share its result.
type Graph struct {
	mu    sync.Mutex
	memo  map[memoKey]*memoCell
	stats map[Stage]*StageStats
}

type memoKey struct {
	stage Stage
	key   string
}

type memoCell struct {
	once sync.Once
	val  any
	err  error
}

// NewGraph returns an empty build graph.
func NewGraph() *Graph {
	return &Graph{
		memo:  make(map[memoKey]*memoCell),
		stats: make(map[Stage]*StageStats),
	}
}

// memoize returns the cached value for (stage, key), computing it with fn
// exactly once. The first caller to install the cell counts a miss; all
// others count hits (even if they block waiting for the computation).
func (g *Graph) memoize(stage Stage, key string, fn func() (any, error)) (any, error) {
	g.mu.Lock()
	st := g.stats[stage]
	if st == nil {
		st = &StageStats{}
		g.stats[stage] = st
	}
	mk := memoKey{stage: stage, key: key}
	cell, ok := g.memo[mk]
	if ok {
		st.Hits++
	} else {
		st.Misses++
		cell = &memoCell{}
		g.memo[mk] = cell
	}
	g.mu.Unlock()
	cell.once.Do(func() { cell.val, cell.err = fn() })
	return cell.val, cell.err
}

// Stats returns a snapshot of per-stage memo hit/miss counts.
func (g *Graph) Stats() map[Stage]StageStats {
	g.mu.Lock()
	defer g.mu.Unlock()
	out := make(map[Stage]StageStats, len(g.stats))
	for s, st := range g.stats {
		out[s] = *st
	}
	return out
}

// tableKey derives the LoadTable memo key from the fields that determine
// table contents: the CSV path for file sources, or (dataset, rows, seed)
// for generated ones.
func (c Config) tableKey() string {
	if c.CSVPath != "" {
		return "csv|" + c.CSVPath
	}
	return fmt.Sprintf("gen|%s|%d|%d", lower(c.Dataset), c.Rows, c.Seed)
}

// workloadKey extends the table key with everything that determines the
// labeled workload and its train/calibration split.
func (c Config) workloadKey() string {
	return fmt.Sprintf("%s|wl|%d|%d|%d|%d|split|%d|%g",
		c.tableKey(), c.Queries, c.Seed+workloadSeedOff, minPreds, maxPreds,
		c.Seed+splitSeedOff, c.calSplit())
}

// modelKey extends the workload key (training data) with the family, seed,
// and epoch override. Families that ignore the workload (spn, naru,
// histogram) are still keyed on it; that is conservative — a key mismatch
// can only cause a redundant recomputation, never a wrong share.
func (c Config) modelKey() string {
	return fmt.Sprintf("%s|model|%s|%d|%d", c.workloadKey(), lower(c.Model), c.Seed, c.Epochs)
}

// calibrateKey extends the model key with the method and every calibration
// hyperparameter.
func (c Config) calibrateKey() string {
	return fmt.Sprintf("%s|cal|%s|%g|kdiv=%d|mingroup=%d|gbm=%d",
		c.modelKey(), lower(c.Method), c.Alpha, c.kDiv(), c.minGroup(), c.Seed+gbmSeedOff)
}

// Featurized bundles the per-table query featurizers the Featurize stage
// produces: the generic featurizer (used by the lw-s-cp and lcp wrappers)
// and the MSCN set featurizer (used by mscn point and quantile training).
// Both are stateless after construction and safe to share across
// concurrent trials.
type Featurized struct {
	// Feats is the generic query-feature function bound to the table.
	Feats cardpi.FeatureFunc
	// MSCN is the set featurizer for the mscn family.
	MSCN *mscn.Featurizer
}

// newFeaturized constructs the featurizer bundle for a table.
func newFeaturized(tab *dataset.Table) *Featurized {
	return &Featurized{Feats: Featurizer(tab), MSCN: mscn.NewSingleFeaturizer(tab)}
}

// Table runs (or replays) the LoadTable stage for cfg.
func (g *Graph) Table(cfg Config) (*dataset.Table, error) {
	v, err := g.memoize(StageLoadTable, cfg.tableKey(), func() (any, error) {
		return BuildTable(cfg.Dataset, cfg.CSVPath, cfg.Rows, cfg.Seed, cfg.logf)
	})
	if err != nil {
		return nil, err
	}
	return v.(*dataset.Table), nil
}

// splitWorkload is the memoised value of the GenerateWorkload stage.
type splitWorkload struct {
	train, cal *workload.Workload
}

// Workloads runs (or replays) the GenerateWorkload stage: generate and
// label cfg.Queries queries over tab, then split them into train and
// calibration sets.
func (g *Graph) Workloads(cfg Config, tab *dataset.Table) (train, cal *workload.Workload, err error) {
	v, err := g.memoize(StageGenerateWorkload, cfg.workloadKey(), func() (any, error) {
		wl, err := workload.Generate(tab, workload.Config{
			Count: cfg.Queries, Seed: cfg.Seed + workloadSeedOff, MinPreds: minPreds, MaxPreds: maxPreds,
		})
		if err != nil {
			return nil, err
		}
		cs := cfg.calSplit()
		parts, err := wl.Split(cfg.Seed+splitSeedOff, 1-cs, cs)
		if err != nil {
			return nil, err
		}
		return &splitWorkload{train: parts[0], cal: parts[1]}, nil
	})
	if err != nil {
		return nil, nil, err
	}
	sw := v.(*splitWorkload)
	return sw.train, sw.cal, nil
}

// Features runs (or replays) the Featurize stage for cfg's table.
func (g *Graph) Features(cfg Config, tab *dataset.Table) (*Featurized, error) {
	v, err := g.memoize(StageFeaturize, cfg.tableKey(), func() (any, error) {
		return newFeaturized(tab), nil
	})
	if err != nil {
		return nil, err
	}
	return v.(*Featurized), nil
}

// Model runs (or replays) the TrainModel stage: train cfg.Model on the
// training split. Trained models are immutable and safe to share across
// trials, so a memo hit skips training entirely (observable via OnTrain).
func (g *Graph) Model(cfg Config, tab *dataset.Table, train *workload.Workload) (cardpi.Estimator, error) {
	fz, err := g.Features(cfg, tab)
	if err != nil {
		return nil, err
	}
	v, err := g.memoize(StageTrainModel, cfg.modelKey(), func() (any, error) {
		return buildModel(cfg.Model, tab, train, cfg.Seed, cfg.Epochs, fz)
	})
	if err != nil {
		return nil, err
	}
	return v.(cardpi.Estimator), nil
}

// quantilePair is the memoised value of the cqr quantile-model training.
type quantilePair struct {
	lo, hi cardpi.Estimator
}

// QuantileModels runs (or replays) the pinball-loss quantile training for
// cqr, memoised under the TrainModel stage (it is model training, keyed
// separately from the point model).
func (g *Graph) QuantileModels(cfg Config, tab *dataset.Table, train *workload.Workload) (lo, hi cardpi.Estimator, err error) {
	fz, err := g.Features(cfg, tab)
	if err != nil {
		return nil, nil, err
	}
	key := fmt.Sprintf("%s|quantile|%s|%g|%d|%d", cfg.workloadKey(), lower(cfg.Model), cfg.Alpha, cfg.Seed, cfg.Epochs)
	v, err := g.memoize(StageTrainModel, key, func() (any, error) {
		qlo, qhi, err := buildQuantileModels(cfg.Model, tab, train, cfg.Alpha, cfg.Seed, cfg.Epochs, fz)
		if err != nil {
			return nil, err
		}
		return &quantilePair{lo: qlo, hi: qhi}, nil
	})
	if err != nil {
		return nil, nil, err
	}
	qp := v.(*quantilePair)
	return qp.lo, qp.hi, nil
}

// PI runs (or replays) the Calibrate stage: wrap the trained model with the
// configured PI method, calibrated on cal.
func (g *Graph) PI(cfg Config, m cardpi.Estimator, tab *dataset.Table, train, cal *workload.Workload) (cardpi.PI, error) {
	fz, err := g.Features(cfg, tab)
	if err != nil {
		return nil, err
	}
	v, err := g.memoize(StageCalibrate, cfg.calibrateKey(), func() (any, error) {
		return buildPI(cfg, m, tab, train, cal, fz, g)
	})
	if err != nil {
		return nil, err
	}
	return v.(cardpi.PI), nil
}

// Build composes the five stages for cfg, sharing whatever prefixes the
// graph has already computed. Build(cfg) on a fresh graph is bit-identical
// to the pre-graph monolithic sequence.
func (g *Graph) Build(cfg Config) (*Setup, error) {
	if err := ValidateCombo(cfg.Model, cfg.Method); err != nil {
		return nil, err
	}
	tab, err := g.Table(cfg)
	if err != nil {
		return nil, err
	}
	train, cal, err := g.Workloads(cfg, tab)
	if err != nil {
		return nil, err
	}
	cfg.logf("training %s...", cfg.Model)
	m, err := g.Model(cfg, tab, train)
	if err != nil {
		return nil, err
	}
	cfg.logf("calibrating %s at coverage %.2f...", cfg.Method, 1-cfg.Alpha)
	pi, err := g.PI(cfg, m, tab, train, cal)
	if err != nil {
		return nil, err
	}
	return &Setup{Table: tab, Model: m, PI: pi, Train: train, Cal: cal}, nil
}
