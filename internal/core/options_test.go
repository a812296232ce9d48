package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"log/slog"
	"strings"
	"testing"

	"github.com/autonomizer/autonomizer/internal/auerr"
	"github.com/autonomizer/autonomizer/internal/stats"
)

// TestNewRuntimeWithOptions pins the functional-option constructor:
// seeds are honored (same seed, same predictions), loggers are
// injected, and the legacy NewRuntime is exactly WithSeed.
func TestNewRuntimeWithOptions(t *testing.T) {
	spec := ModelSpec{Name: "m", Algo: AdamOpt, Hidden: []int{4}, LR: 0.01}
	train := func(rt *Runtime) []float64 {
		t.Helper()
		if err := rt.ConfigCtx(context.Background(), spec); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 50; i++ {
			x := float64(i) / 50
			if err := rt.RecordExample("m", []float64{x, 1 - x}, []float64{x}); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := rt.FitCtx(context.Background(), "m", 2, 8); err != nil {
			t.Fatal(err)
		}
		out, err := rt.PredictCtx(context.Background(), "m", []float64{0.5, 0.5})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}

	a := train(NewRuntimeWith(Train, WithSeed(7)))
	b := train(NewRuntime(Train, 7))
	if a[0] != b[0] {
		t.Errorf("NewRuntimeWith(WithSeed(7)) diverges from NewRuntime(_, 7): %v vs %v", a, b)
	}
	c := train(NewRuntimeWith(Train, WithSeed(8)))
	if a[0] == c[0] {
		t.Errorf("different seeds produced identical predictions %v", a)
	}

	var buf bytes.Buffer
	logged := NewRuntimeWith(Train, WithLogger(slog.New(
		slog.NewTextHandler(&buf, &slog.HandlerOptions{Level: slog.LevelDebug}))))
	if err := logged.ConfigCtx(context.Background(), spec); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "au_config") {
		t.Errorf("injected logger saw no runtime diagnostics: %q", buf.String())
	}
}

// TestSpecValidationMessages pins the uniform validation shape: every
// rejection wraps ErrSpecInvalid and names the model and the offending
// field in one consistent "core: model %q: <Field>: <problem>" message.
func TestSpecValidationMessages(t *testing.T) {
	cases := []struct {
		field string
		spec  ModelSpec
	}{
		{"Name", ModelSpec{Algo: AdamOpt}},
		{"Type", ModelSpec{Name: "m", Type: ModelType(9), Algo: AdamOpt}},
		{"Algo", ModelSpec{Name: "m", Algo: Algorithm(9)}},
		{"Hidden[1]", ModelSpec{Name: "m", Algo: AdamOpt, Hidden: []int{4, -1}}},
		{"InputShape", ModelSpec{Name: "m", Type: CNN, Algo: QLearn, Actions: 2}},
		{"Actions", ModelSpec{Name: "m", Algo: QLearn, Actions: -3}},
		{"OutputActivation", ModelSpec{Name: "m", Algo: AdamOpt, OutputActivation: "tanh9"}},
		{"LR", ModelSpec{Name: "m", Algo: AdamOpt, LR: -1}},
		{"Gamma", ModelSpec{Name: "m", Algo: QLearn, Actions: 2, Gamma: 2}},
		{"EpsilonDecaySteps", ModelSpec{Name: "m", Algo: QLearn, Actions: 2, EpsilonDecaySteps: -1}},
		{"ReplayCapacity", ModelSpec{Name: "m", Algo: QLearn, Actions: 2, ReplayCapacity: -1}},
		{"BatchSize", ModelSpec{Name: "m", Algo: QLearn, Actions: 2, BatchSize: -1}},
		{"TargetSyncEvery", ModelSpec{Name: "m", Algo: QLearn, Actions: 2, TargetSyncEvery: -1}},
		{"LearnEvery", ModelSpec{Name: "m", Algo: QLearn, Actions: 2, LearnEvery: -1}},
	}
	for _, tc := range cases {
		t.Run(tc.field, func(t *testing.T) {
			err := NewRuntime(Train, 1).ConfigCtx(context.Background(), tc.spec)
			if !errors.Is(err, auerr.ErrSpecInvalid) {
				t.Fatalf("want ErrSpecInvalid, got %v", err)
			}
			msg := err.Error()
			if !strings.Contains(msg, tc.field+":") {
				t.Errorf("message does not name field %s: %q", tc.field, msg)
			}
			if tc.field != "Name" && !strings.Contains(msg, fmt.Sprintf("model %q", tc.spec.Name)) {
				t.Errorf("message does not name the model: %q", msg)
			}
		})
	}
}

// TestServingPlanSizes pins the sizes the serving plan takes from a
// SaveModel image, and the rejection of a truncated image.
func TestServingPlanSizes(t *testing.T) {
	rt := NewRuntime(Train, 3)
	spec := ModelSpec{Name: "m", Algo: AdamOpt, Hidden: []int{4}, LR: 0.01}
	if err := rt.ConfigCtx(context.Background(), spec); err != nil {
		t.Fatal(err)
	}
	if err := rt.RecordExample("m", []float64{1, 2, 3}, []float64{4, 5}); err != nil {
		t.Fatal(err)
	}
	data, err := rt.SaveModel("m")
	if err != nil {
		t.Fatal(err)
	}
	p, err := ServingPlan(spec, data)
	if err != nil {
		t.Fatal(err)
	}
	if p.InSize() != 3 || p.OutSize() != 2 {
		t.Errorf("ServingPlan sizes = (%d, %d), want (3, 2)", p.InSize(), p.OutSize())
	}
	if _, err := ServingPlan(spec, []byte{1, 2}); !errors.Is(err, auerr.ErrCorruptModel) {
		t.Errorf("truncated image: %v, want ErrCorruptModel", err)
	}
}

// TestParamCountMatchesBuild checks the pre-allocation parameter count a
// SaveModel image is bounded by against the networks build makes.
func TestParamCountMatchesBuild(t *testing.T) {
	for _, c := range []struct {
		spec    ModelSpec
		in, out int
	}{
		{ModelSpec{Name: "linear"}, 5, 3},
		{ModelSpec{Name: "dnn", Hidden: []int{64, 32}}, 10, 5},
		{ModelSpec{Name: "sigmoid", Hidden: []int{4}, OutputActivation: "sigmoid"}, 2, 1},
		{ModelSpec{Name: "cnn", Type: CNN, InputShape: []int{1, 16, 16}}, 256, 4},
		{ModelSpec{Name: "wide", Type: CNN, InputShape: []int{4, 40, 24}}, 4 * 40 * 24, 6},
	} {
		n := paramCount(c.spec, c.in, c.out)
		want := newModel(c.spec, stats.NewRNG(1)).build(c.in, c.out).ParamCount()
		if n != uint64(want) {
			t.Errorf("%s: paramCount = %d; build has %d", c.spec.Name, n, want)
		}
	}
}
