// Package pipeline is the reusable train → calibrate → serve build path of
// the cardpi demo and server: it loads or generates a table, generates and
// splits a labeled workload, trains the chosen estimator family, and
// calibrates the chosen PI method — the exact sequence the cardpi command
// used to inline. It also defines the versioned artifact bundle (bundle.go)
// that freezes the result of that sequence to disk, so serving can skip
// every training and calibration step and still produce bit-identical
// intervals.
package pipeline

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"cardpi"
	"cardpi/internal/conformal"
	"cardpi/internal/dataset"
	"cardpi/internal/estimator"
	"cardpi/internal/gbm"
	"cardpi/internal/histogram"
	"cardpi/internal/lwnn"
	"cardpi/internal/mscn"
	"cardpi/internal/naru"
	"cardpi/internal/spn"
	"cardpi/internal/workload"
)

// Seed derivation offsets. Every stage derives its seed from the one
// user-visible -seed flag with a fixed offset, so a (dataset, rows, seed)
// triple fully determines the table, the workload, the split, and every
// model — the property the artifact loader relies on to regenerate the
// table and the lwnn feature pipeline instead of storing them.
const (
	// workloadSeedOff seeds workload generation (seed + 1).
	workloadSeedOff = 1
	// splitSeedOff seeds the train/calibration split (seed + 2).
	splitSeedOff = 2
	// gbmSeedOff seeds the locally weighted difficulty model (seed + 3).
	gbmSeedOff = 3
	// modelSeedOff seeds model training (seed + 10).
	modelSeedOff = 10
)

// Workload shape: single-table demo queries carry 1–4 predicates and the
// workload splits 60/40 into train/calibration.
const (
	minPreds  = 1
	maxPreds  = 4
	trainFrac = 0.6
	calFrac   = 0.4
)

// Training defaults per family. lwnnSampleSize is pinned explicitly (rather
// than relying on lwnn's internal default) because the artifact loader must
// rebuild the identical feature pipeline at load time.
const (
	mscnEpochs     = 25
	lwnnEpochs     = 30
	lwnnSampleSize = 1000
)

// Mondrian and localized calibration knobs.
const (
	mondrianMinGroup = 20
	localizedKDiv    = 4
)

// OnTrain, when non-nil, is invoked with the entry point's name every time
// a training code path runs (model training, quantile-model training, the
// locally weighted difficulty fit). Tests install it to prove that loading
// an artifact never trains; it is never set in production.
var OnTrain func(what string)

func noteTraining(what string) {
	if OnTrain != nil {
		OnTrain(what)
	}
}

// Config selects what Build constructs. The zero value is not usable; the
// CLI populates every field from flags.
type Config struct {
	// Dataset names the synthetic generator (dmv | census | forest |
	// power); ignored when CSVPath is set.
	Dataset string
	// CSVPath, when non-empty, loads the table from a CSV file instead of
	// generating one.
	CSVPath string
	// Model is the estimator family to train.
	Model string
	// Method is the PI method to calibrate.
	Method string
	// Alpha is the miscoverage level (coverage = 1 - Alpha).
	Alpha float64
	// Rows is the generated table size.
	Rows int
	// Queries is the training+calibration workload size.
	Queries int
	// Seed is the root random seed; see the seed derivation offsets.
	Seed int64
	// Epochs, when positive, overrides the family's training epochs
	// (mscn, lwnn, and their CQR quantile variants). Used by fast tests.
	Epochs int
	// CalFrac, when in (0,1), overrides the calibration fraction of the
	// workload split (the training split gets 1-CalFrac). Zero keeps the
	// default 0.4. Part of the synth hyperparameter lattice.
	CalFrac float64
	// LocalizedKDiv, when positive, overrides the localized-CP
	// neighbourhood divisor (k = len(cal)/LocalizedKDiv). Zero keeps the
	// default 4. Part of the synth hyperparameter lattice.
	LocalizedKDiv int
	// MondrianMinGroup, when positive, overrides the minimum per-group
	// calibration size below which Mondrian groups merge. Zero keeps the
	// default 20. Part of the synth hyperparameter lattice.
	MondrianMinGroup int
	// Logf, when non-nil, receives progress lines ("training spn...").
	Logf func(format string, args ...any)
}

// calSplit resolves the calibration fraction, defaulting to calFrac.
func (c Config) calSplit() float64 {
	if c.CalFrac > 0 && c.CalFrac < 1 {
		return c.CalFrac
	}
	return calFrac
}

// kDiv resolves the localized-CP k divisor, defaulting to 4.
func (c Config) kDiv() int {
	if c.LocalizedKDiv > 0 {
		return c.LocalizedKDiv
	}
	return localizedKDiv
}

// minGroup resolves the Mondrian merge floor, defaulting to 20.
func (c Config) minGroup() int {
	if c.MondrianMinGroup > 0 {
		return c.MondrianMinGroup
	}
	return mondrianMinGroup
}

func (c Config) logf(format string, args ...any) {
	if c.Logf != nil {
		c.Logf(format, args...)
	}
}

// Setup is the assembled result Build and LoadBundle produce: everything
// the demo loop and the server share.
type Setup struct {
	// Table is the base table.
	Table *dataset.Table
	// Model is the trained point estimator.
	Model cardpi.Estimator
	// PI is the calibrated interval wrapper around Model.
	PI cardpi.PI
	// Train is the training split; nil when the setup was loaded from an
	// artifact (training data is not stored in bundles).
	Train *workload.Workload
	// Cal is the calibration split, stored in bundles so serving can seed
	// the adaptive monitor and fallback without re-counting ground truth.
	Cal *workload.Workload
}

// Build runs the full pipeline: validate the combo, load or generate the
// table, generate and split the workload, train the model, calibrate the
// method. It is a thin composition over a fresh staged build graph (see
// graph.go); reuse one Graph across calls to share stage prefixes.
func Build(cfg Config) (*Setup, error) {
	return NewGraph().Build(cfg)
}

// BuildTable loads the table from csvPath when set, and otherwise generates
// the named synthetic dataset. logf may be nil.
func BuildTable(dsName, csvPath string, rows int, seed int64, logf func(string, ...any)) (*dataset.Table, error) {
	if logf == nil {
		logf = func(string, ...any) {}
	}
	if csvPath != "" {
		logf("loading %s...", csvPath)
		f, err := os.Open(csvPath)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		tab, err := dataset.FromCSV(strings.TrimSuffix(filepath.Base(csvPath), ".csv"), f)
		if err != nil {
			return nil, err
		}
		logf("loaded %d rows, %d columns", tab.NumRows(), tab.NumCols())
		return tab, nil
	}
	gen := map[string]func(dataset.GenConfig) (*dataset.Table, error){
		"dmv": dataset.GenerateDMV, "census": dataset.GenerateCensus,
		"forest": dataset.GenerateForest, "power": dataset.GeneratePower,
	}[strings.ToLower(dsName)]
	if gen == nil {
		return nil, fmt.Errorf("unknown dataset %q (want dmv | census | forest | power)", dsName)
	}
	logf("generating %s (%d rows)...", dsName, rows)
	return gen(dataset.GenConfig{Rows: rows, Seed: seed})
}

// BuildModel trains the named estimator family. epochs > 0 overrides the
// family default (mscn and lwnn only; the other families have no epoch
// knob). It is the uncached TrainModel stage; the graph memoises it.
func BuildModel(name string, tab *dataset.Table, train *workload.Workload, seed int64, epochs int) (cardpi.Estimator, error) {
	return buildModel(name, tab, train, seed, epochs, nil)
}

// buildModel implements BuildModel. fz, when non-nil, supplies memoised
// featurizers from the graph's Featurize stage; nil constructs fresh ones
// (identical bytes — featurizer construction is deterministic and
// workload-independent).
func buildModel(name string, tab *dataset.Table, train *workload.Workload, seed int64, epochs int, fz *Featurized) (cardpi.Estimator, error) {
	noteTraining("model/" + strings.ToLower(name))
	switch strings.ToLower(name) {
	case "spn":
		return spn.Train(tab, spn.Config{Seed: seed + modelSeedOff})
	case "mscn":
		return mscn.Train(mscnFeaturizer(tab, fz), train, mscn.Config{Epochs: pick(epochs, mscnEpochs), Seed: seed + modelSeedOff})
	case "lwnn":
		return lwnn.Train(tab, train, lwnn.Config{Epochs: pick(epochs, lwnnEpochs), SampleSize: lwnnSampleSize, Seed: seed + modelSeedOff})
	case "naru":
		// epochs == 0 keeps naru's own default.
		return naru.Train(tab, naru.Config{Epochs: epochs, Seed: seed + modelSeedOff})
	case "histogram":
		return histogram.NewSingle(tab, histogram.Config{}), nil
	default:
		return nil, fmt.Errorf("unknown model %q", name)
	}
}

// mscnFeaturizer returns the shared featurizer when available.
func mscnFeaturizer(tab *dataset.Table, fz *Featurized) *mscn.Featurizer {
	if fz != nil {
		return fz.MSCN
	}
	return mscn.NewSingleFeaturizer(tab)
}

// lower is strings.ToLower, named for key-derivation readability.
func lower(s string) string { return strings.ToLower(s) }

func pick(override, def int) int {
	if override > 0 {
		return override
	}
	return def
}

// EvalWorkload generates a held-out labeled workload with the pipeline's
// standard query shape (1–4 predicates per query). The caller picks a seed
// disjoint from the training workload's derived seeds; synth uses it to
// score trials on queries none of them trained or calibrated on.
func EvalWorkload(tab *dataset.Table, count int, seed int64) (*workload.Workload, error) {
	return workload.Generate(tab, workload.Config{Count: count, Seed: seed, MinPreds: minPreds, MaxPreds: maxPreds})
}

// Featurizer returns the query-feature function the lw-s-cp and lcp methods
// use, bound to the table. The artifact loader rebuilds the identical
// function from the reloaded table.
func Featurizer(tab *dataset.Table) cardpi.FeatureFunc {
	return estimator.NewFeaturizer(tab).AppendFeaturize
}

// PredCountGroup is the Mondrian grouping of the single-table demo: queries
// grouped by predicate count.
func PredCountGroup(q workload.Query) string {
	return fmt.Sprintf("%d-preds", len(q.Preds))
}

// BuildPI calibrates the configured method around the trained model. The
// combo has already been validated, so cqr only sees pinball-capable
// families. It is a thin composition over a fresh graph's Calibrate stage.
func BuildPI(cfg Config, m cardpi.Estimator, tab *dataset.Table, train, cal *workload.Workload) (cardpi.PI, error) {
	return NewGraph().PI(cfg, m, tab, train, cal)
}

// buildPI is the uncached Calibrate stage. fz supplies the table's
// featurizers; g serves the cqr quantile-model training (so a shared graph
// memoises it alongside the point models).
func buildPI(cfg Config, m cardpi.Estimator, tab *dataset.Table, train, cal *workload.Workload, fz *Featurized, g *Graph) (cardpi.PI, error) {
	switch strings.ToLower(cfg.Method) {
	case "s-cp":
		return cardpi.WrapSplitCP(m, cal, conformal.ResidualScore{}, cfg.Alpha)
	case "lw-s-cp":
		noteTraining("difficulty/gbm")
		return cardpi.WrapLocallyWeighted(m, train, cal, fz.Feats, conformal.ResidualScore{}, cfg.Alpha,
			gbm.Config{NumTrees: 60, MaxDepth: 4, Seed: cfg.Seed + gbmSeedOff})
	case "lcp":
		return cardpi.WrapLocalized(m, cal, fz.Feats, conformal.ResidualScore{}, cfg.Alpha, len(cal.Queries)/cfg.kDiv())
	case "mondrian":
		return cardpi.WrapMondrian(m, cal, PredCountGroup, conformal.ResidualScore{}, cfg.Alpha, cfg.minGroup())
	case "cqr":
		qlo, qhi, err := g.QuantileModels(cfg, tab, train)
		if err != nil {
			return nil, err
		}
		return cardpi.WrapCQR(qlo, qhi, cal, cfg.Alpha)
	default:
		return nil, fmt.Errorf("unknown method %q", cfg.Method)
	}
}

// BuildQuantileModels trains the τ=α/2 and τ=1−α/2 pinball-loss variants of
// the family for CQR. epochs > 0 overrides the family default.
func BuildQuantileModels(modelName string, tab *dataset.Table, train *workload.Workload,
	alpha float64, seed int64, epochs int) (lo, hi cardpi.Estimator, err error) {
	return buildQuantileModels(modelName, tab, train, alpha, seed, epochs, nil)
}

// buildQuantileModels implements BuildQuantileModels; fz, when non-nil,
// supplies the memoised mscn featurizer.
func buildQuantileModels(modelName string, tab *dataset.Table, train *workload.Workload,
	alpha float64, seed int64, epochs int, fz *Featurized) (lo, hi cardpi.Estimator, err error) {
	noteTraining("quantile/" + strings.ToLower(modelName))
	switch strings.ToLower(modelName) {
	case "mscn":
		f := mscnFeaturizer(tab, fz)
		cfg := mscn.Config{Epochs: pick(epochs, mscnEpochs), Seed: seed + modelSeedOff}
		if lo, err = mscn.TrainQuantile(f, train, alpha/2, cfg); err != nil {
			return nil, nil, err
		}
		if hi, err = mscn.TrainQuantile(f, train, 1-alpha/2, cfg); err != nil {
			return nil, nil, err
		}
		return lo, hi, nil
	case "lwnn":
		cfg := lwnn.Config{Epochs: pick(epochs, lwnnEpochs), SampleSize: lwnnSampleSize, Seed: seed + modelSeedOff}
		if lo, err = lwnn.TrainQuantile(tab, train, alpha/2, cfg); err != nil {
			return nil, nil, err
		}
		if hi, err = lwnn.TrainQuantile(tab, train, 1-alpha/2, cfg); err != nil {
			return nil, nil, err
		}
		return lo, hi, nil
	default:
		return nil, nil, fmt.Errorf("model %q has no pinball-loss variant (cqr needs %s)", modelName, pinballModelNames(" or "))
	}
}
