package core

import (
	"context"
	"errors"
	"math"
	"testing"

	"github.com/autonomizer/autonomizer/internal/auerr"
	"github.com/autonomizer/autonomizer/internal/nn"
	"github.com/autonomizer/autonomizer/internal/stats"
)

// sameBits reports whether two vectors are bit-for-bit equal.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestCompileErrorContract pins the error contract that replaced the
// fallback ladder. A network the plan compiler rejects — here a
// convolution first on a DNN spec, whose plan input is the flat
// {inSize} — fails Test-mode Config and Train-mode Predictor/PredictCtx
// with ErrSpecInvalid: never ErrInvariant, never a silent fallback to
// the network forward. Train-mode au_NN of a Q-learning model whose
// layer the compiler does not know fails the same way at the first
// replayed update, which compiles the DQN target plan. A DNN whose first
// layer is not Dense compiles and predicts bit-identically to
// Network.Predict.
func TestCompileErrorContract(t *testing.T) {
	ctx := context.Background()
	wantSpecInvalid := func(what string, err error) {
		t.Helper()
		if !errors.Is(err, auerr.ErrSpecInvalid) || errors.Is(err, auerr.ErrInvariant) {
			t.Errorf("%s: err = %v, want ErrSpecInvalid and not ErrInvariant", what, err)
		}
	}

	conv := ModelSpec{Name: "conv", Algo: AdamOpt,
		Builder: func(inSize, outSize int, rng *stats.RNG) *nn.Network {
			return nn.NewNetwork(nn.NewConv2D(1, 2, 3, 3, 1, 1, rng), nn.NewFlatten(), nn.NewDense(2*inSize, outSize, rng))
		}}
	tr := NewRuntime(Train, 3)
	if err := tr.Config(conv); err != nil {
		t.Fatal(err)
	}
	in := make([]float64, 16)
	if err := tr.RecordExample("conv", in, []float64{1}); err != nil {
		t.Fatal(err)
	}
	pred, err := tr.Predictor("conv")
	wantSpecInvalid("Train-mode Predictor", err)
	if pred != nil {
		t.Error("Predictor returned a function alongside its error")
	}
	out, err := tr.PredictCtx(ctx, "conv", in)
	wantSpecInvalid("Train-mode PredictCtx", err)
	if out != nil {
		t.Errorf("PredictCtx returned %v alongside its error", out)
	}
	data, err := tr.SaveModel("conv")
	if err != nil {
		t.Fatal(err)
	}
	ts := NewRuntime(Test, 3)
	ts.LoadModel("conv", data)
	wantSpecInvalid("Test-mode Config", ts.Config(conv))
	if names := ts.ModelNames(); len(names) != 0 {
		t.Errorf("uncompilable model was registered: %v", names)
	}

	q := ModelSpec{Name: "q", Algo: QLearn, Actions: 2, BatchSize: 4,
		Builder: func(inSize, outSize int, rng *stats.RNG) *nn.Network {
			return nn.NewNetwork(opaqueLayer{nn.NewDense(inSize, outSize, rng)})
		}}
	if err := tr.Config(q); err != nil {
		t.Fatal(err)
	}
	var nnrlErr error
	for i := 0; i < 200 && nnrlErr == nil; i++ {
		tr.Extract("S", float64(i%7), 1)
		nnrlErr = tr.NNRL("q", "S", 1, false, "a")
	}
	wantSpecInvalid("Train-mode NNRL", nnrlErr)

	tanh := ModelSpec{Name: "tanh", Algo: AdamOpt, LR: 0.01,
		Builder: func(inSize, outSize int, rng *stats.RNG) *nn.Network {
			return nn.NewNetwork(nn.NewTanh(), nn.NewDense(inSize, 5, rng), nn.NewReLU(), nn.NewDense(5, outSize, rng))
		}}
	if err := tr.Config(tanh); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 16; i++ {
		x := []float64{float64(i) / 8, 1 - float64(i)/16, float64(i%3) - 1}
		if err := tr.RecordExample("tanh", x, []float64{x[0] * x[1]}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := tr.Fit("tanh", 2, 4); err != nil {
		t.Fatal(err)
	}
	pred, err = tr.Predictor("tanh")
	if err != nil {
		t.Fatalf("Tanh-first DNN does not compile: %v", err)
	}
	if data, err = tr.SaveModel("tanh"); err != nil {
		t.Fatal(err)
	}
	ts.LoadModel("tanh", data)
	if err := ts.Config(tanh); err != nil {
		t.Fatalf("Test-mode Config of a Tanh-first DNN: %v", err)
	}
	m, _ := tr.getModel("tanh")
	for i := 0; i < 8; i++ {
		x := []float64{float64(i) * 0.3, -0.2 * float64(i), 0.5}
		want := m.net.Predict(x)
		got, err := tr.PredictCtx(ctx, "tanh", x)
		if err != nil {
			t.Fatal(err)
		}
		served, err := ts.PredictCtx(ctx, "tanh", x)
		if err != nil {
			t.Fatal(err)
		}
		if !sameBits(got, want) || !sameBits(pred(x), want) || !sameBits(served, want) {
			t.Fatalf("input %d: plan %v / predictor %v / Test mode %v, network %v", i, got, pred(x), served, want)
		}
	}
}

// opaqueLayer is a layer kind the plan compiler does not know.
type opaqueLayer struct{ nn.Layer }

// TestTestModeNNRLRunsPlan checks the Test-mode au_NN path for Q-learning
// models: on every frame the Q-values are bit-identical to the Train
// runtime's network forward on the same saved weights, the action is
// their argmax, and the plan compiled at Config is reused throughout.
func TestTestModeNNRLRunsPlan(t *testing.T) {
	cases := []struct {
		name string
		spec ModelSpec
		size int
	}{
		{"dnn", ModelSpec{Name: "q", Algo: QLearn, Actions: 4, Hidden: []int{16, 8}, BatchSize: 8}, 6},
		{"cnn", ModelSpec{Name: "q", Type: CNN, Algo: QLearn, Actions: 4, InputShape: []int{1, 16, 16}, BatchSize: 8}, 256},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rng := stats.NewRNG(5)
			state := func() []float64 {
				s := make([]float64, tc.size)
				for i := range s {
					s[i] = 2*rng.Float64() - 1
				}
				return s
			}
			tr := NewRuntime(Train, 21)
			if err := tr.Config(tc.spec); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 64; i++ {
				tr.Extract("S", state()...)
				if err := tr.NNRL("q", "S", rng.Float64(), i%16 == 15, "out"); err != nil {
					t.Fatal(err)
				}
			}
			data, err := tr.SaveModel("q")
			if err != nil {
				t.Fatal(err)
			}
			trained, _ := tr.getModel("q")

			ts := NewRuntime(Test, 22)
			ts.LoadModel("q", data)
			if err := ts.Config(tc.spec); err != nil {
				t.Fatal(err)
			}
			m, _ := ts.getModel("q")
			installed := m.plan
			for i := 0; i < 200; i++ {
				s := state()
				want := trained.net.Predict(s, tc.spec.InputShape...)
				ts.Extract("S", s...)
				if err := ts.NNRL("q", "S", 0, false, "out"); err != nil {
					t.Fatal(err)
				}
				a, err := ts.WriteBackAction("out")
				if err != nil {
					t.Fatal(err)
				}
				if a != stats.ArgMax(want) {
					t.Fatalf("frame %d: action %d, network argmax %d", i, a, stats.ArgMax(want))
				}
				if !sameBits(m.qvals, want) {
					t.Fatalf("frame %d: plan Q-values %v, network %v", i, m.qvals, want)
				}
				if m.plan != installed || m.shared.inst.Plan() != installed {
					t.Fatalf("frame %d recompiled the plan", i)
				}
			}
		})
	}
}
