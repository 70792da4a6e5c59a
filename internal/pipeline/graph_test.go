package pipeline

import (
	"bytes"
	"strings"
	"testing"

	"cardpi"
	"cardpi/internal/conformal"
	"cardpi/internal/dataset"
	"cardpi/internal/gbm"
	"cardpi/internal/workload"
)

// legacyBuildSequence is the pre-graph monolithic Build, kept verbatim as
// the bit-identity oracle for the staged-graph refactor: the graph-composed
// Build must reproduce its output byte for byte.
func legacyBuildSequence(cfg Config) (*Setup, error) {
	if err := ValidateCombo(cfg.Model, cfg.Method); err != nil {
		return nil, err
	}
	tab, err := BuildTable(cfg.Dataset, cfg.CSVPath, cfg.Rows, cfg.Seed, nil)
	if err != nil {
		return nil, err
	}
	wl, err := workload.Generate(tab, workload.Config{
		Count: cfg.Queries, Seed: cfg.Seed + workloadSeedOff, MinPreds: minPreds, MaxPreds: maxPreds,
	})
	if err != nil {
		return nil, err
	}
	parts, err := wl.Split(cfg.Seed+splitSeedOff, trainFrac, calFrac)
	if err != nil {
		return nil, err
	}
	train, cal := parts[0], parts[1]
	m, err := BuildModel(cfg.Model, tab, train, cfg.Seed, cfg.Epochs)
	if err != nil {
		return nil, err
	}
	pi, err := legacyBuildPI(cfg, m, tab, train, cal)
	if err != nil {
		return nil, err
	}
	return &Setup{Table: tab, Model: m, PI: pi, Train: train, Cal: cal}, nil
}

// legacyBuildPI is the pre-graph BuildPI, verbatim (fresh featurizers per
// call, package-constant hyperparameters).
func legacyBuildPI(cfg Config, m cardpi.Estimator, tab *dataset.Table, train, cal *workload.Workload) (cardpi.PI, error) {
	ff := Featurizer(tab)
	switch strings.ToLower(cfg.Method) {
	case "s-cp":
		return cardpi.WrapSplitCP(m, cal, conformal.ResidualScore{}, cfg.Alpha)
	case "lw-s-cp":
		return cardpi.WrapLocallyWeighted(m, train, cal, ff, conformal.ResidualScore{}, cfg.Alpha,
			gbm.Config{NumTrees: 60, MaxDepth: 4, Seed: cfg.Seed + gbmSeedOff})
	case "lcp":
		return cardpi.WrapLocalized(m, cal, ff, conformal.ResidualScore{}, cfg.Alpha, len(cal.Queries)/localizedKDiv)
	case "mondrian":
		return cardpi.WrapMondrian(m, cal, PredCountGroup, conformal.ResidualScore{}, cfg.Alpha, mondrianMinGroup)
	case "cqr":
		qlo, qhi, err := BuildQuantileModels(cfg.Model, tab, train, cfg.Alpha, cfg.Seed, cfg.Epochs)
		if err != nil {
			return nil, err
		}
		return cardpi.WrapCQR(qlo, qhi, cal, cfg.Alpha)
	default:
		return nil, nil
	}
}

// TestGraphBuildMatchesLegacyAllCombos extends the all-combos round-trip
// matrix with the refactor's bit-identity proof: for every valid model ×
// method pair, the graph-composed Build produces the same intervals and the
// same .cpi bytes as the pre-refactor monolithic sequence. The graph side
// shares one Graph across all combos, so the test also proves that memo
// sharing does not perturb outputs.
func TestGraphBuildMatchesLegacyAllCombos(t *testing.T) {
	g := NewGraph()
	for _, model := range Models {
		model := model
		t.Run(model.Name, func(t *testing.T) {
			// Legacy side: train the family once via the verbatim old
			// sequence, then rebuild only the method calibration per combo
			// (exactly how the pre-refactor matrix shared models).
			legacyBase, err := legacyBuildSequence(testConfig(model.Name, "s-cp"))
			if err != nil {
				t.Fatal(err)
			}
			probe, err := workload.Generate(legacyBase.Table, workload.Config{
				Count: 200, Seed: 99, MinPreds: minPreds, MaxPreds: maxPreds,
			})
			if err != nil {
				t.Fatal(err)
			}
			for _, method := range Methods {
				if method.NeedsPinball && !model.Pinball {
					continue
				}
				cfg := testConfig(model.Name, method.Name)
				legacyPI, err := legacyBuildPI(cfg, legacyBase.Model, legacyBase.Table, legacyBase.Train, legacyBase.Cal)
				if err != nil {
					t.Fatalf("%s: legacy: %v", method.Name, err)
				}
				legacy := &Setup{Table: legacyBase.Table, Model: legacyBase.Model, PI: legacyPI,
					Train: legacyBase.Train, Cal: legacyBase.Cal}

				got, err := g.Build(cfg)
				if err != nil {
					t.Fatalf("%s: graph: %v", method.Name, err)
				}

				var wantBuf, gotBuf bytes.Buffer
				if err := SaveBundle(&wantBuf, legacy, cfg); err != nil {
					t.Fatalf("%s: legacy save: %v", method.Name, err)
				}
				if err := SaveBundle(&gotBuf, got, cfg); err != nil {
					t.Fatalf("%s: graph save: %v", method.Name, err)
				}
				if !bytes.Equal(wantBuf.Bytes(), gotBuf.Bytes()) {
					t.Fatalf("%s: graph-composed bundle bytes differ from the pre-refactor sequence", method.Name)
				}
				for qi, lq := range probe.Queries {
					want, wantErr := legacy.PI.Interval(lq.Query)
					gotIv, gotErr := got.PI.Interval(lq.Query)
					if (wantErr == nil) != (gotErr == nil) {
						t.Fatalf("%s: query %d error mismatch: %v vs %v", method.Name, qi, wantErr, gotErr)
					}
					if want != gotIv {
						t.Fatalf("%s: query %d interval [%v,%v] != legacy [%v,%v]",
							method.Name, qi, gotIv.Lo, gotIv.Hi, want.Lo, want.Hi)
					}
				}
			}
		})
	}
}

// TestGraphMemoSharesModelPrefix proves the memo contract the synth
// meta-search relies on: two trials that differ only in the PI method share
// the table, workload, featurization, and — critically — the trained model.
// The model trains exactly once (observed via OnTrain), and the stage stats
// account for every hit and miss.
func TestGraphMemoSharesModelPrefix(t *testing.T) {
	g := NewGraph()
	var trainings []string
	OnTrain = func(what string) { trainings = append(trainings, what) }
	defer func() { OnTrain = nil }()

	a, err := g.Build(testConfig("histogram", "s-cp"))
	if err != nil {
		t.Fatal(err)
	}
	b, err := g.Build(testConfig("histogram", "mondrian"))
	if err != nil {
		t.Fatal(err)
	}
	modelTrainings := 0
	for _, w := range trainings {
		if w == "model/histogram" {
			modelTrainings++
		}
	}
	if modelTrainings != 1 {
		t.Fatalf("model trained %d times across 2 trials sharing a prefix, want 1 (log: %v)", modelTrainings, trainings)
	}
	if a.Model != b.Model {
		t.Fatal("trials sharing a model prefix got distinct model instances")
	}
	if a.Table != b.Table || a.Train != b.Train || a.Cal != b.Cal {
		t.Fatal("trials sharing a prefix got distinct table/workload instances")
	}

	stats := g.Stats()
	for stage, want := range map[Stage]StageStats{
		StageLoadTable:        {Hits: 1, Misses: 1},
		StageGenerateWorkload: {Hits: 1, Misses: 1},
		StageTrainModel:       {Hits: 1, Misses: 1},
		StageCalibrate:        {Hits: 0, Misses: 2},
	} {
		if got := stats[stage]; got != want {
			t.Errorf("stage %s stats %+v, want %+v", stage, got, want)
		}
	}
	// Featurize is consulted by both the TrainModel and Calibrate stages,
	// so it sees four lookups with a single miss.
	if got := stats[StageFeaturize]; got.Misses != 1 || got.Hits != 3 {
		t.Errorf("featurize stats %+v, want 1 miss / 3 hits", got)
	}

	// A config differing in a stage input (different method hyperparameter)
	// must not share the calibration, but still shares everything upstream.
	cfg := testConfig("histogram", "mondrian")
	cfg.MondrianMinGroup = 10
	if _, err := g.Build(cfg); err != nil {
		t.Fatal(err)
	}
	stats = g.Stats()
	if got := stats[StageCalibrate]; got.Misses != 3 {
		t.Errorf("calibrate misses %d after distinct-hyperparameter build, want 3", got.Misses)
	}
	if got := stats[StageTrainModel]; got.Misses != 1 || got.Hits != 2 {
		t.Errorf("train-model stats %+v after third build, want 1 miss / 2 hits", got)
	}
}
