// Modelzoo: the paper's headline comparison (Figure 1) as a program — three
// learned cardinality estimators (MSCN, Naru, LW-NN) wrapped by all four
// uncertainty-quantification algorithms, evaluated for coverage, width and
// inference latency on one table.
package main

import (
	"fmt"
	"log"
	"math/rand"

	"cardpi"
	"cardpi/internal/conformal"
	"cardpi/internal/dataset"
	"cardpi/internal/estimator"
	"cardpi/internal/gbm"
	"cardpi/internal/lwnn"
	"cardpi/internal/mscn"
	"cardpi/internal/naru"
	"cardpi/internal/workload"
)

const alpha = 0.1

func main() {
	tab, err := dataset.GenerateDMV(dataset.GenConfig{Rows: 8000, Seed: 1})
	if err != nil {
		log.Fatal(err)
	}
	wl, err := workload.Generate(tab, workload.Config{
		Count: 1500, Seed: 2, MinPreds: 2, MaxPreds: 5, MaxSelectivity: 0.1,
	})
	if err != nil {
		log.Fatal(err)
	}
	parts, err := wl.Split(3, 0.5, 0.25, 0.25)
	if err != nil {
		log.Fatal(err)
	}
	train, cal, test := parts[0], parts[1], parts[2]

	feats := estimator.NewFeaturizer(tab).AppendFeaturize

	fmt.Printf("%-8s %-9s %-9s %-11s %s\n", "model", "method", "coverage", "meanWidth", "latency")

	// --- MSCN: supervised, q-error loss, CQR-able. ---
	f := mscn.NewSingleFeaturizer(tab)
	cfg := mscn.Config{Epochs: 20, Seed: 4}
	mscnModel, err := mscn.Train(f, train, cfg)
	if err != nil {
		log.Fatal(err)
	}
	mscnLo, err := mscn.TrainQuantile(f, train, alpha/2, cfg)
	if err != nil {
		log.Fatal(err)
	}
	mscnHi, err := mscn.TrainQuantile(f, train, 1-alpha/2, cfg)
	if err != nil {
		log.Fatal(err)
	}
	mscnTrainer := func(w *workload.Workload, seed int64) (cardpi.Estimator, error) {
		c := cfg
		c.Seed = seed
		return mscn.Train(f, w, c)
	}
	report("mscn", mscnModel, mscnLo, mscnHi, mscnTrainer, nil, feats, train, cal, test)

	// --- Naru: unsupervised, data-driven; CQR is inapplicable, Jackknife+
	// folds are over tuples. ---
	ncfg := naru.Config{Hidden: 40, Epochs: 4, Samples: 150, Seed: 5}
	naruModel, err := naru.Train(tab, ncfg)
	if err != nil {
		log.Fatal(err)
	}
	var naruFolds []cardpi.Estimator
	r := rand.New(rand.NewSource(6))
	rowFold := conformal.FoldAssignments(r.Perm(tab.NumRows()), 5)
	for fold := 0; fold < 5; fold++ {
		var rows []int
		for i, rf := range rowFold {
			if rf != fold {
				rows = append(rows, i)
			}
		}
		c := ncfg
		c.Seed = 7 + int64(fold)
		fm, err := naru.Train(tab.SelectRows(rows), c)
		if err != nil {
			log.Fatal(err)
		}
		naruFolds = append(naruFolds, fm)
	}
	report("naru", naruModel, nil, nil, nil, naruFolds, feats, train, cal, test)

	// --- LW-NN: supervised, MSE loss over heuristic features, CQR-able. ---
	lcfg := lwnn.Config{Epochs: 30, Seed: 8}
	lwnnModel, err := lwnn.Train(tab, train, lcfg)
	if err != nil {
		log.Fatal(err)
	}
	lwnnLo, err := lwnn.TrainQuantile(tab, train, alpha/2, lcfg)
	if err != nil {
		log.Fatal(err)
	}
	lwnnHi, err := lwnn.TrainQuantile(tab, train, 1-alpha/2, lcfg)
	if err != nil {
		log.Fatal(err)
	}
	lwnnTrainer := func(w *workload.Workload, seed int64) (cardpi.Estimator, error) {
		c := lcfg
		c.Seed = seed
		return lwnn.Train(tab, w, c)
	}
	report("lwnn", lwnnModel, lwnnLo, lwnnHi, lwnnTrainer, nil, feats, train, cal, test)
}

func report(name string, model, qlo, qhi cardpi.Estimator, trainer cardpi.TrainFunc,
	folds []cardpi.Estimator, feats cardpi.FeatureFunc, train, cal, test *workload.Workload) {
	show := func(method string, pi cardpi.PI) {
		ev, err := cardpi.Evaluate(pi, test)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-8s %-9s %-9.3f %-11.5f %s\n", name, method, ev.Coverage, ev.Widths.Mean, ev.MeanPITime)
	}

	var jk cardpi.PI
	var err error
	if trainer != nil {
		jk, err = cardpi.WrapJackknifeCV(trainer, train, 5, alpha, 100)
	} else {
		r := rand.New(rand.NewSource(101))
		foldOf := conformal.FoldAssignments(r.Perm(len(cal.Queries)), len(folds))
		jk, err = cardpi.WrapJackknifeCVModels(model, folds, cal, foldOf, alpha)
	}
	if err != nil {
		log.Fatal(err)
	}
	show("jk-cv+", jk)

	scp, err := cardpi.WrapSplitCP(model, cal, conformal.ResidualScore{}, alpha)
	if err != nil {
		log.Fatal(err)
	}
	show("s-cp", scp)

	lw, err := cardpi.WrapLocallyWeighted(model, train, cal, feats, conformal.ResidualScore{}, alpha,
		gbm.Config{NumTrees: 60, MaxDepth: 4, Seed: 102})
	if err != nil {
		log.Fatal(err)
	}
	show("lw-s-cp", lw)

	if qlo != nil && qhi != nil {
		cqr, err := cardpi.WrapCQR(qlo, qhi, cal, alpha)
		if err != nil {
			log.Fatal(err)
		}
		show("cqr", cqr)
	}
}
