package core

import (
	"context"
	"math"
	"testing"
)

// fitSmallModel configures and trains a small supervised model so the
// network is materialized and has non-trivial weights.
func fitSmallModel(t *testing.T, rt *Runtime, name string) {
	t.Helper()
	if err := rt.Config(ModelSpec{Name: name, Algo: AdamOpt, Hidden: []int{6}, LR: 0.01}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 32; i++ {
		x := []float64{float64(i) / 32, float64(31-i) / 32}
		if err := rt.RecordExample(name, x, []float64{x[0] - x[1]}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := rt.Fit(name, 3, 8); err != nil {
		t.Fatal(err)
	}
}

// TestCompileEagerAtInstall covers the eager compile entry point,
// Test-mode Config: errors for unknown and unmaterialized models, and
// after install a compiled plan that later predictors reuse.
func TestCompileEagerAtInstall(t *testing.T) {
	rt := NewRuntime(Train, 1)
	if _, err := rt.Predictor("nope"); err == nil {
		t.Error("Predictor on unknown model succeeded")
	}
	if err := rt.Config(ModelSpec{Name: "m", Algo: AdamOpt, Hidden: []int{4}}); err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Predictor("m"); err == nil {
		t.Error("Predictor before materialize succeeded")
	}
	fitSmallModel(t, rt, "m2")
	data, err := rt.SaveModel("m2")
	if err != nil {
		t.Fatal(err)
	}
	ts := NewRuntime(Test, 1)
	ts.LoadModel("m2", data)
	if err := ts.Config(ModelSpec{Name: "m2", Algo: AdamOpt, Hidden: []int{6}}); err != nil {
		t.Fatalf("Test-mode Config of a materialized model: %v", err)
	}
	m, _ := ts.getModel("m2")
	installed := m.plan
	if installed == nil {
		t.Fatal("Test-mode Config did not compile the plan")
	}
	if _, err := ts.Predictor("m2"); err != nil {
		t.Fatal(err)
	}
	if m.plan != installed {
		t.Error("Predictor recompiled the plan Config installed")
	}
}

// TestCompiledPredictorBitIdentical checks that Predictor closures —
// now backed by compiled plan instances — return bit-identical results
// to the lock-guarded shared-network path.
func TestCompiledPredictorBitIdentical(t *testing.T) {
	rt := NewRuntime(Train, 7)
	fitSmallModel(t, rt, "m")
	pred, err := rt.Predictor("m")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		in := []float64{float64(i) * 0.13, 1 - float64(i)*0.09}
		want, err := rt.PredictCtx(context.Background(), "m", in)
		if err != nil {
			t.Fatal(err)
		}
		got := pred(in)
		for j := range want {
			if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
				t.Fatalf("input %d: compiled predictor %v, want %v", i, got, want)
			}
		}
	}
}

// TestPredictorSeesPublishedWeights pins the recompile-on-publish
// contract: a predictor taken before training observes the new weights
// after a weight publication, because its per-call version check
// triggers a plan recompile.
func TestPredictorSeesPublishedWeights(t *testing.T) {
	rt := NewRuntime(Train, 11)
	fitSmallModel(t, rt, "m")
	pred, err := rt.Predictor("m")
	if err != nil {
		t.Fatal(err)
	}
	in := []float64{0.4, 0.7}
	before := append([]float64(nil), pred(in)...)

	// Publish new weights through another round of offline training.
	if _, err := rt.Fit("m", 3, 8); err != nil {
		t.Fatal(err)
	}
	want, err := rt.PredictCtx(context.Background(), "m", in)
	if err != nil {
		t.Fatal(err)
	}
	got := pred(in)
	for j := range want {
		if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
			t.Fatalf("stale predictor after publish: %v, want %v", got, want)
		}
	}
	same := true
	for j := range before {
		if before[j] != got[j] {
			same = false
		}
	}
	if same {
		t.Fatal("training left the prediction unchanged; test cannot distinguish staleness")
	}

	// A predictor taken after a publication must track the next one the
	// same way.
	pred2, err := rt.Predictor("m")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Fit("m", 1, 8); err != nil {
		t.Fatal(err)
	}
	want2, err := rt.PredictCtx(context.Background(), "m", in)
	if err != nil {
		t.Fatal(err)
	}
	got2 := pred2(in)
	for j := range want2 {
		if math.Float64bits(got2[j]) != math.Float64bits(want2[j]) {
			t.Fatalf("stale Predictor after publish: %v, want %v", got2, want2)
		}
	}
}
