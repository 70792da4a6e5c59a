package experiments

import (
	"fmt"
	"math/rand"

	"cardpi"
	"cardpi/internal/conformal"
	"cardpi/internal/dataset"
	"cardpi/internal/estimator"
	"cardpi/internal/gbm"
	"cardpi/internal/lwnn"
	"cardpi/internal/mscn"
	"cardpi/internal/naru"
	"cardpi/internal/par"
	"cardpi/internal/workload"
)

// singleTableData bundles one dataset with its train/calibration/test split.
type singleTableData struct {
	table *dataset.Table
	train *workload.Workload
	cal   *workload.Workload
	test  *workload.Workload
	// testLow is the low-selectivity (< 0.1) slice of the test set — the
	// regime the paper's plots focus on, where prediction-interval widths
	// are discernible.
	testLow *workload.Workload
}

// buildSingle generates a named dataset and a 50/25/25 workload split, the
// paper's default partitioning.
func buildSingle(name string, s Scale) (*singleTableData, error) {
	gen := map[string]func(dataset.GenConfig) (*dataset.Table, error){
		"dmv":    dataset.GenerateDMV,
		"census": dataset.GenerateCensus,
		"forest": dataset.GenerateForest,
		"power":  dataset.GeneratePower,
	}[name]
	if gen == nil {
		return nil, fmt.Errorf("experiments: unknown dataset %q", name)
	}
	tab, err := gen(dataset.GenConfig{Rows: s.Rows, Seed: s.Seed})
	if err != nil {
		return nil, err
	}
	// Queries carry at least two predicates and at most 10% selectivity:
	// the regime the paper's workloads concentrate on (at 11.6M rows almost
	// every generated conjunctive query is low-selectivity).
	wl, err := workload.Generate(tab, workload.Config{
		Count: s.Queries, Seed: s.Seed + 1, MinPreds: 2, MaxPreds: 5, MaxSelectivity: 0.1,
	})
	if err != nil {
		return nil, err
	}
	parts, err := wl.Split(s.Seed+2, 0.5, 0.25, 0.25)
	if err != nil {
		return nil, err
	}
	d := &singleTableData{table: tab, train: parts[0], cal: parts[1], test: parts[2]}
	d.testLow = lowSelSlice(d.test, 0.1)
	return d, nil
}

// lowSelSlice filters a workload to queries below the selectivity bound,
// falling back to the full workload when the slice would be tiny.
func lowSelSlice(wl *workload.Workload, bound float64) *workload.Workload {
	out := &workload.Workload{Table: wl.Table, Schema: wl.Schema, NormN: wl.NormN}
	for _, lq := range wl.Queries {
		if lq.Sel < bound {
			out.Queries = append(out.Queries, lq)
		}
	}
	if len(out.Queries) < 20 {
		return wl
	}
	return out
}

// modelKit bundles everything the UQ wrappers need for one learned model.
type modelKit struct {
	name  string
	model cardpi.Estimator
	// qlo/qhi are the CQR quantile models (nil when CQR is inapplicable,
	// i.e. for the unsupervised Naru).
	qlo, qhi cardpi.Estimator
	// trainFunc retrains the model family on a sub-workload (Jackknife+
	// for supervised models).
	trainFunc cardpi.TrainFunc
	// foldModels are pre-trained leave-fold-out models (Jackknife+ for
	// data-driven models trained over tuple folds).
	foldModels []cardpi.Estimator
	feats      cardpi.FeatureFunc
}

func mscnEpochs(s Scale) int { return s.Epochs }
func lwnnEpochs(s Scale) int { return s.Epochs }
func naruEpochs(s Scale) int { return max(2, s.Epochs/5) }
func naruHidden(s Scale) int { return 40 }
func mscnHidden(s Scale) int { return 32 }

// kitMSCN trains MSCN plus its CQR quantile variants on a single table.
func kitMSCN(d *singleTableData, s Scale, withQuantiles bool) (*modelKit, error) {
	f := mscn.NewSingleFeaturizer(d.table)
	cfg := mscn.Config{Hidden: mscnHidden(s), Epochs: mscnEpochs(s), Seed: s.Seed + 10}
	m, err := mscn.Train(f, d.train, cfg)
	if err != nil {
		return nil, err
	}
	kit := &modelKit{name: "mscn", model: m}
	if withQuantiles {
		lo, err := mscn.TrainQuantile(f, d.train, s.Alpha/2, cfg)
		if err != nil {
			return nil, err
		}
		hi, err := mscn.TrainQuantile(f, d.train, 1-s.Alpha/2, cfg)
		if err != nil {
			return nil, err
		}
		kit.qlo, kit.qhi = lo, hi
	}
	kit.trainFunc = func(wl *workload.Workload, seed int64) (cardpi.Estimator, error) {
		c := cfg
		c.Seed = seed
		return mscn.Train(f, wl, c)
	}
	kit.feats = kitFeatures(d)
	return kit, nil
}

// kitMSCNJoins trains MSCN over a star schema's join workload.
func kitMSCNJoins(sch *dataset.Schema, train *workload.Workload, s Scale, withQuantiles bool) (*modelKit, error) {
	f := mscn.NewSchemaFeaturizer(sch)
	cfg := mscn.Config{Hidden: mscnHidden(s), Epochs: mscnEpochs(s), Seed: s.Seed + 11}
	m, err := mscn.Train(f, train, cfg)
	if err != nil {
		return nil, err
	}
	kit := &modelKit{name: "mscn", model: m}
	if withQuantiles {
		lo, err := mscn.TrainQuantile(f, train, s.Alpha/2, cfg)
		if err != nil {
			return nil, err
		}
		hi, err := mscn.TrainQuantile(f, train, 1-s.Alpha/2, cfg)
		if err != nil {
			return nil, err
		}
		kit.qlo, kit.qhi = lo, hi
	}
	kit.trainFunc = func(wl *workload.Workload, seed int64) (cardpi.Estimator, error) {
		c := cfg
		c.Seed = seed
		return mscn.Train(f, wl, c)
	}
	kit.feats = estimator.NewJoinFeaturizer(sch).AppendFeaturize
	return kit, nil
}

// kitLWNN trains LW-NN plus quantile variants.
func kitLWNN(d *singleTableData, s Scale, withQuantiles bool) (*modelKit, error) {
	cfg := lwnn.Config{Epochs: lwnnEpochs(s), Seed: s.Seed + 12}
	m, err := lwnn.Train(d.table, d.train, cfg)
	if err != nil {
		return nil, err
	}
	kit := &modelKit{name: "lwnn", model: m}
	if withQuantiles {
		lo, err := lwnn.TrainQuantile(d.table, d.train, s.Alpha/2, cfg)
		if err != nil {
			return nil, err
		}
		hi, err := lwnn.TrainQuantile(d.table, d.train, 1-s.Alpha/2, cfg)
		if err != nil {
			return nil, err
		}
		kit.qlo, kit.qhi = lo, hi
	}
	kit.trainFunc = func(wl *workload.Workload, seed int64) (cardpi.Estimator, error) {
		c := cfg
		c.Seed = seed
		return lwnn.Train(d.table, wl, c)
	}
	kit.feats = kitFeatures(d)
	return kit, nil
}

// kitNaru trains the data-driven model; Jackknife+ fold models are trained
// over tuple folds (the unsupervised model never sees queries).
func kitNaru(d *singleTableData, s Scale, withFolds bool) (*modelKit, error) {
	cfg := naru.Config{
		Hidden: naruHidden(s), Epochs: naruEpochs(s), Samples: s.Samples, Seed: s.Seed + 13,
	}
	m, err := naru.Train(d.table, cfg)
	if err != nil {
		return nil, err
	}
	kit := &modelKit{name: "naru", model: m}
	kit.feats = kitFeatures(d)
	if !withFolds {
		return kit, nil
	}
	r := rand.New(rand.NewSource(s.Seed + 14))
	perm := r.Perm(d.table.NumRows())
	rowFold := conformal.FoldAssignments(perm, s.K)
	// Fold models are independent; train them on a bounded worker pool
	// (deterministic: each fold has its own seed and output slot, so results
	// do not depend on which worker trains which fold).
	kit.foldModels = make([]cardpi.Estimator, s.K)
	err = par.ForEach(s.K, func(f int) error {
		var rows []int
		for i, rf := range rowFold {
			if rf != f {
				rows = append(rows, i)
			}
		}
		sub := d.table.SelectRows(rows)
		c := cfg
		c.Seed = s.Seed + 15 + int64(f)
		fm, err := naru.Train(sub, c)
		if err != nil {
			return err
		}
		kit.foldModels[f] = fm
		return nil
	})
	if err != nil {
		return nil, err
	}
	return kit, nil
}

// methodEval is one (model, method) evaluation row.
type methodEval struct {
	method string
	eval   *cardpi.Evaluation
}

// wrapMethods builds the applicable UQ wrappers for a kit and evaluates each
// on the test workload. Methods follow the paper's order: JK-CV+, S-CP,
// LW-S-CP, CQR (the latter only for supervised models).
func wrapMethods(kit *modelKit, train, cal, test *workload.Workload, s Scale, score conformal.Score) ([]methodEval, error) {
	var out []methodEval
	appendEval := func(method string, pi cardpi.PI) error {
		ev, err := cardpi.Evaluate(pi, test)
		if err != nil {
			return err
		}
		out = append(out, methodEval{method: method, eval: ev})
		return nil
	}

	// Jackknife+ with cross validation.
	var jk *cardpi.JackknifeCV
	var err error
	if kit.trainFunc != nil {
		jk, err = cardpi.WrapJackknifeCV(kit.trainFunc, train, s.K, s.Alpha, s.Seed+20)
	} else if kit.foldModels != nil {
		r := rand.New(rand.NewSource(s.Seed + 21))
		foldOf := conformal.FoldAssignments(r.Perm(len(cal.Queries)), s.K)
		jk, err = cardpi.WrapJackknifeCVModels(kit.model, kit.foldModels, cal, foldOf, s.Alpha)
	}
	if err != nil {
		return nil, fmt.Errorf("jk-cv+ (%s): %w", kit.name, err)
	}
	if jk != nil {
		if err := appendEval("jk-cv+", jk); err != nil {
			return nil, err
		}
	}

	scp, err := cardpi.WrapSplitCP(kit.model, cal, score, s.Alpha)
	if err != nil {
		return nil, fmt.Errorf("s-cp (%s): %w", kit.name, err)
	}
	if err := appendEval("s-cp", scp); err != nil {
		return nil, err
	}

	lw, err := cardpi.WrapLocallyWeighted(kit.model, train, cal, kit.feats, score, s.Alpha,
		gbm.Config{NumTrees: 60, MaxDepth: 4, Seed: s.Seed + 22})
	if err != nil {
		return nil, fmt.Errorf("lw-s-cp (%s): %w", kit.name, err)
	}
	if err := appendEval("lw-s-cp", lw); err != nil {
		return nil, err
	}

	if kit.qlo != nil && kit.qhi != nil {
		cqr, err := cardpi.WrapCQR(kit.qlo, kit.qhi, cal, s.Alpha)
		if err != nil {
			return nil, fmt.Errorf("cqr (%s): %w", kit.name, err)
		}
		if err := appendEval("cqr", cqr); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// addEvalRows appends standard rows (model, method, coverage, widths) to a
// report and records coverage/width metrics keyed model/method.
func addEvalRows(r *Report, model string, evals []methodEval) {
	for _, me := range evals {
		e := me.eval
		r.AddRow(model, me.method,
			fmt.Sprintf("%.3f", e.Coverage),
			fmt.Sprintf("%.5f", e.Widths.Mean),
			fmt.Sprintf("%.5f", e.Widths.Median),
			fmt.Sprintf("%.5f", e.Widths.P90),
			e.MeanPITime.String(),
		)
		r.Metric(model+"/"+me.method+"/coverage", e.Coverage)
		r.Metric(model+"/"+me.method+"/meanWidth", e.Widths.Mean)
	}
}

// standardHeaders are the columns of per-(model, method) reports.
func standardHeaders() []string {
	return []string{"model", "method", "coverage", "meanWidth", "medianWidth", "p90Width", "latency"}
}
