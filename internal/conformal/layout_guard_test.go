package conformal_test

import (
	"bytes"
	"testing"

	"cardpi"
	"cardpi/internal/conformal"
	"cardpi/internal/pipeline"
)

// TestServingUnitTakesGroupLayout pins that the lcp unit `cardpi serve`
// builds for the serve benchmark (dmv, 20k rows, 2000 queries, mscn/lcp)
// answers its queries through the selection strategy over the sparse group
// layout — freshly calibrated and rehydrated from its .cpi encoding alike —
// so BenchmarkLocalDelta/servebench-shaped and servebench's miss workload
// time that kernel and not the row-by-row fallback, and that a one-row call
// over it allocates nothing once the scratch pool is warm. The layout
// depends on the calibration features alone, so one training epoch
// suffices.
func TestServingUnitTakesGroupLayout(t *testing.T) {
	setup, err := pipeline.Build(pipeline.Config{
		Dataset: "dmv", Model: "mscn", Method: "lcp", Alpha: 0.1,
		Rows: 20000, Queries: 2000, Seed: 1, Epochs: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	pi, ok := setup.PI.(*cardpi.Localized)
	if !ok {
		t.Fatalf("pipeline built %T for lcp, want *cardpi.Localized", setup.PI)
	}
	lcp := pi.Calibration()
	var buf bytes.Buffer
	if _, err := lcp.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	rehydrated, err := conformal.ReadLocalized(&buf)
	if err != nil {
		t.Fatal(err)
	}
	probes, err := pipeline.EvalWorkload(setup.Table, 200, 7)
	if err != nil {
		t.Fatal(err)
	}
	feat := pipeline.Featurizer(setup.Table)
	for name, l := range map[string]*conformal.Localized{"calibrated": lcp, "rehydrated": rehydrated} {
		for i, lq := range probes.Queries {
			if !l.TakesGroupLayout(feat(lq.Query, nil)) {
				t.Fatalf("%s: probe %d (%v) does not take the selection strategy over the group layout", name, i, lq.Query)
			}
		}
		layout, block := l.LayoutBytes()
		if 2*layout > block {
			t.Errorf("%s: group layout holds %d bytes, more than half the %d-byte feature block", name, layout, block)
		}
		if conformal.RaceEnabled {
			continue
		}
		q, out := [][]float64{feat(probes.Queries[0].Query, nil)}, make([]float64, 1)
		if err := l.Deltas(q, out); err != nil { // warm the scratch pool
			t.Fatal(err)
		}
		if allocs := testing.AllocsPerRun(50, func() {
			if err := l.Deltas(q, out); err != nil {
				t.Fatal(err)
			}
		}); allocs != 0 {
			t.Errorf("%s: one-row Deltas over the group layout allocates %.1f times per call, want 0", name, allocs)
		}
	}
}
