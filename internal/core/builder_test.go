package core

import (
	"testing"

	"github.com/autonomizer/autonomizer/internal/nn"
	"github.com/autonomizer/autonomizer/internal/stats"
)

// TestCustomBuilder exercises the paper's extension point: a callback
// that constructs an arbitrary network instead of the built-in
// families.
func TestCustomBuilder(t *testing.T) {
	built := 0
	rt := NewRuntime(Train, 30)
	err := rt.Config(ModelSpec{
		Name: "custom", Algo: AdamOpt, LR: 0.01,
		Builder: func(inSize, outSize int, rng *stats.RNG) *nn.Network {
			built++
			return nn.NewNetwork(
				nn.NewDense(inSize, 12, rng),
				nn.NewTanh(),
				nn.NewDense(12, outSize, rng),
			)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := stats.NewRNG(31)
	for i := 0; i < 300; i++ {
		x := rng.Float64()
		if err := rt.RecordExample("custom", []float64{x}, []float64{1 - x}); err != nil {
			t.Fatal(err)
		}
	}
	if built != 1 {
		t.Fatalf("builder called %d times, want 1", built)
	}
	loss, err := rt.Fit("custom", 40, 16)
	if err != nil {
		t.Fatal(err)
	}
	if loss > 0.01 {
		t.Errorf("custom network did not learn: loss %v", loss)
	}
	out, err := rt.Predict("custom", []float64{0.3})
	if err != nil {
		t.Fatal(err)
	}
	if out[0] < 0.5 || out[0] > 0.9 {
		t.Errorf("Predict(0.3) = %v, want ~0.7", out[0])
	}
}

// TestCustomBuilderRL pairs the callback with Q-learning: the builder
// runs once, since the DQN target is a compiled plan of that network.
func TestCustomBuilderRL(t *testing.T) {
	built := 0
	rt := NewRuntime(Train, 32)
	err := rt.Config(ModelSpec{
		Name: "q", Algo: QLearn, Actions: 2,
		Builder: func(inSize, outSize int, rng *stats.RNG) *nn.Network {
			built++
			return nn.NewDNN(inSize, []int{8}, outSize, rng)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	rt.Extract("S", 0.5)
	if err := rt.NNRL("q", "S", 0, false, "out"); err != nil {
		t.Fatal(err)
	}
	if built != 1 {
		t.Errorf("builder called %d times, want 1 (the target is a compiled plan)", built)
	}
	if a, err := rt.WriteBackAction("out"); err != nil || a < 0 || a > 1 {
		t.Errorf("action = %d, %v", a, err)
	}
}

// TestMultipleModels mirrors the Canny annotation, which configures two
// models (SigmaNN and MinNN) in one execution.
func TestMultipleModels(t *testing.T) {
	rt := NewRuntime(Train, 33)
	for _, name := range []string{"SigmaNN", "MinNN"} {
		if err := rt.Config(ModelSpec{Name: name, Algo: AdamOpt, Hidden: []int{4}}); err != nil {
			t.Fatal(err)
		}
	}
	if got := rt.ModelNames(); len(got) != 2 || got[0] != "MinNN" || got[1] != "SigmaNN" {
		t.Fatalf("ModelNames = %v", got)
	}
	// Each model trains independently.
	rt.Extract("IMG", 1, 2)
	rt.DB().Put("SIGMA", []float64{0.5})
	if err := rt.NN("SigmaNN", "IMG", "SIGMA"); err != nil {
		t.Fatal(err)
	}
	rt.Extract("HIST", 3, 4, 5)
	rt.DB().Put("LO", []float64{0.1})
	rt.DB().Put("HI", []float64{0.9})
	if err := rt.NN("MinNN", "HIST", "LO", "HI"); err != nil {
		t.Fatal(err)
	}
	if n, err := rt.ModelParamCount("SigmaNN"); err != nil || n == 0 {
		t.Errorf("SigmaNN params: %d, %v", n, err)
	}
	if n, err := rt.ModelParamCount("MinNN"); err != nil || n == 0 {
		t.Errorf("MinNN params: %d, %v", n, err)
	}
	if rt.NNCallCount() != 2 {
		t.Errorf("NNCallCount = %d", rt.NNCallCount())
	}
}

// TestRLTestModeRoundTrip covers the TR→TS lifecycle for Q-learning
// models: train, save, reload in a TS runtime, act greedily.
func TestRLTestModeRoundTrip(t *testing.T) {
	tr := NewRuntime(Train, 34)
	spec := ModelSpec{Name: "q", Algo: QLearn, Actions: 2, Hidden: []int{8},
		EpsilonDecaySteps: 200}
	if err := tr.Config(spec); err != nil {
		t.Fatal(err)
	}
	// Teach "always act 1" with a reward gradient.
	for i := 0; i < 600; i++ {
		tr.Extract("S", float64(i%5)/5)
		act := 0
		if err := tr.NNRL("q", "S", float64(act), false, "out"); err != nil {
			t.Fatal(err)
		}
		a, _ := tr.WriteBackAction("out")
		reward := -1.0
		if a == 1 {
			reward = 1
		}
		tr.Extract("S", float64((i+1)%5)/5)
		if err := tr.NNRL("q", "S", reward, i%20 == 19, "out"); err != nil {
			t.Fatal(err)
		}
	}
	data, err := tr.SaveModel("q")
	if err != nil {
		t.Fatal(err)
	}

	ts := NewRuntime(Test, 35)
	ts.LoadModel("q", data)
	if err := ts.Config(spec); err != nil {
		t.Fatal(err)
	}
	// TS-mode actions are greedy and deterministic.
	ts.Extract("S", 0.4)
	if err := ts.NNRL("q", "S", 0, false, "out"); err != nil {
		t.Fatal(err)
	}
	a1, _ := ts.WriteBackAction("out")
	ts.Extract("S", 0.4)
	if err := ts.NNRL("q", "S", 0, false, "out"); err != nil {
		t.Fatal(err)
	}
	a2, _ := ts.WriteBackAction("out")
	if a1 != a2 {
		t.Errorf("TS-mode actions not deterministic: %d vs %d", a1, a2)
	}
	if got, err := ts.Predict("q", []float64{0.4}); err != nil || len(got) != 2 {
		t.Errorf("TS Predict = %v, %v", got, err)
	}
}
