package core

import (
	"context"
	"errors"
	"testing"

	"github.com/autonomizer/autonomizer/internal/auerr"
	"github.com/autonomizer/autonomizer/internal/nn"
	"github.com/autonomizer/autonomizer/internal/stats"
)

// stepCtx is a deterministic cancellation source: Err returns nil for
// the first `allow` checks and context.Canceled afterwards. It lets
// tests cancel training at an exact minibatch boundary without racing a
// goroutine against the optimizer.
type stepCtx struct {
	context.Context
	allow int
}

func newStepCtx(allow int) *stepCtx {
	return &stepCtx{Context: context.Background(), allow: allow}
}

func (c *stepCtx) Err() error {
	if c.allow <= 0 {
		return context.Canceled
	}
	c.allow--
	return nil
}

// slRuntime builds a Train-mode runtime with an AdamOpt model holding
// `n` recorded examples of 3 inputs / 1 target.
func slRuntime(t *testing.T, n int) *Runtime {
	t.Helper()
	rt := NewRuntime(Train, 7)
	if err := rt.Config(ModelSpec{Name: "sl", Algo: AdamOpt, Hidden: []int{4}}); err != nil {
		t.Fatalf("Config: %v", err)
	}
	for i := 0; i < n; i++ {
		x := float64(i) / float64(n)
		if err := rt.RecordExample("sl", []float64{x, x * x, 1 - x}, []float64{2 * x}); err != nil {
			t.Fatalf("RecordExample: %v", err)
		}
	}
	return rt
}

func wantCanceled(t *testing.T, err error) {
	t.Helper()
	if err == nil {
		t.Fatal("want cancellation error, got nil")
	}
	if !errors.Is(err, auerr.ErrCanceled) {
		t.Errorf("errors.Is(err, auerr.ErrCanceled) = false for %v", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("errors.Is(err, context.Canceled) = false for %v", err)
	}
}

func TestFitCtxCanceledMidEpochKeepsPartialProgress(t *testing.T) {
	rt := slRuntime(t, 64)

	// 64 examples at batch size 8 = 8 minibatches per epoch. Allow 3
	// boundary checks: exactly 3 optimizer steps complete, then the 4th
	// check cancels mid-epoch.
	st, err := rt.FitCtx(newStepCtx(3), "sl", 2, 8)
	wantCanceled(t, err)
	if st.Batches != 3 {
		t.Errorf("Batches = %d, want 3 (one per allowed boundary check)", st.Batches)
	}
	if st.Epochs != 0 {
		t.Errorf("Epochs = %d, want 0 (canceled mid-first-epoch)", st.Epochs)
	}
	if st.LastLoss == 0 {
		t.Error("LastLoss = 0, want the partial epoch's mean loss")
	}

	// The model stayed consistent: training resumes and completes.
	st, err = rt.FitCtx(context.Background(), "sl", 2, 8)
	if err != nil {
		t.Fatalf("resumed FitCtx: %v", err)
	}
	if st.Epochs != 2 || st.Batches != 16 {
		t.Errorf("resumed stats = %+v, want Epochs=2 Batches=16", st)
	}
}

func TestFitCtxCanceledBeforeFirstBatch(t *testing.T) {
	rt := slRuntime(t, 16)
	st, err := rt.FitCtx(newStepCtx(0), "sl", 1, 8)
	wantCanceled(t, err)
	if st.Batches != 0 || st.Epochs != 0 || st.LastLoss != 0 {
		t.Errorf("stats = %+v, want all zero", st)
	}
}

func TestFitCtxDeadlineExceeded(t *testing.T) {
	rt := slRuntime(t, 16)
	ctx, cancel := context.WithTimeout(context.Background(), 0)
	defer cancel()
	<-ctx.Done()
	_, err := rt.FitCtx(ctx, "sl", 1, 8)
	if !errors.Is(err, auerr.ErrCanceled) {
		t.Errorf("errors.Is(err, auerr.ErrCanceled) = false for %v", err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("errors.Is(err, context.DeadlineExceeded) = false for %v", err)
	}
}

func TestNNRLCtxPreCancelLeavesStoreConsistent(t *testing.T) {
	rt := NewRuntime(Train, 11)
	if err := rt.Config(ModelSpec{Name: "q", Algo: QLearn, Hidden: []int{4}, Actions: 3}); err != nil {
		t.Fatalf("Config: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())

	// Drive one successful step so the model holds a pending (state,
	// action) pair — the state a mid-episode cancel must not corrupt.
	rt.Extract("st", 0.1, 0.2)
	if err := rt.NNRLCtx(ctx, "q", "st", 0, false, "act"); err != nil {
		t.Fatalf("NNRLCtx: %v", err)
	}

	cancel()
	rt.Extract("st", 0.3, 0.4)
	err := rt.NNRLCtx(ctx, "q", "st", 1, false, "act")
	wantCanceled(t, err)

	// The canceled call mutated nothing: the input is still bound, the
	// agent observed no transition, and the step can simply be retried.
	if in, ok := rt.DB().Get("st"); !ok || len(in) != 2 {
		t.Errorf("input binding after cancel = %v, %v; want intact", in, ok)
	}
	if st, ok := rt.RLStats("q"); !ok || st.ReplayLen != 0 {
		t.Errorf("replay after cancel = %+v, want empty", st)
	}
	if err := rt.NNRLCtx(context.Background(), "q", "st", 1, false, "act"); err != nil {
		t.Fatalf("retried NNRLCtx: %v", err)
	}
	if st, ok := rt.RLStats("q"); !ok || st.ReplayLen != 1 {
		t.Errorf("replay after retry = %+v, want one transition", st)
	}
	if _, err := rt.WriteBackActionCtx(context.Background(), "act"); err != nil {
		t.Fatalf("WriteBackActionCtx: %v", err)
	}
}

func TestNNCtxPreCancelLeavesStoreConsistent(t *testing.T) {
	rt := NewRuntime(Train, 3)
	if err := rt.Config(ModelSpec{Name: "sl", Algo: AdamOpt, Hidden: []int{4}}); err != nil {
		t.Fatalf("Config: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rt.Extract("in", 1, 2)
	rt.Extract("label", 0.5)
	wantCanceled(t, rt.NNCtx(ctx, "sl", "in", "label"))
	if rt.ExampleCount("sl") != 0 {
		t.Errorf("ExampleCount = %d after canceled NNCtx, want 0", rt.ExampleCount("sl"))
	}
	if in, ok := rt.DB().Get("in"); !ok || len(in) != 2 {
		t.Errorf("input binding after cancel = %v, %v; want intact", in, ok)
	}
	if err := rt.NNCtx(context.Background(), "sl", "in", "label"); err != nil {
		t.Fatalf("retried NNCtx: %v", err)
	}
	if rt.ExampleCount("sl") != 1 {
		t.Errorf("ExampleCount = %d after retry, want 1", rt.ExampleCount("sl"))
	}
}

func TestPrimitiveCtxEntryCancellation(t *testing.T) {
	rt := NewRuntime(Train, 5)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	wantCanceled(t, rt.ConfigCtx(ctx, ModelSpec{Name: "m", Algo: AdamOpt}))
	wantCanceled(t, rt.ExtractCtx(ctx, "x", 1))
	_, err := rt.SerializeCtx(ctx, "x")
	wantCanceled(t, err)
	_, err = rt.WriteBackCtx(ctx, "x", make([]float64, 1))
	wantCanceled(t, err)
	wantCanceled(t, rt.CheckpointCtx(ctx, nopSnapshotter{}, 0))
	wantCanceled(t, rt.RestoreCtx(ctx, nopSnapshotter{}))
	_, err = rt.PredictCtx(ctx, "m", []float64{1})
	wantCanceled(t, err)

	// Nothing leaked into the runtime state.
	if names := rt.ModelNames(); len(names) != 0 {
		t.Errorf("models after canceled ConfigCtx: %v", names)
	}
	if rt.TraceValueCount() != 0 {
		t.Errorf("TraceValueCount = %d after canceled ExtractCtx", rt.TraceValueCount())
	}
}

type nopSnapshotter struct{}

func (nopSnapshotter) Snapshot() any { return nil }
func (nopSnapshotter) Restore(any)   {}

func TestTypedErrorClasses(t *testing.T) {
	rt := NewRuntime(Train, 9)
	if err := rt.Config(ModelSpec{Name: "sl", Algo: AdamOpt, Hidden: []int{4}}); err != nil {
		t.Fatalf("Config: %v", err)
	}
	if err := rt.Config(ModelSpec{Name: "q", Algo: QLearn, Hidden: []int{4}, Actions: 2}); err != nil {
		t.Fatalf("Config: %v", err)
	}
	bg := context.Background()

	check := func(desc string, err error, sentinel error) {
		t.Helper()
		if !errors.Is(err, sentinel) {
			t.Errorf("%s: error %v does not wrap %v", desc, err, sentinel)
		}
	}

	check("NN on unknown model", rt.NNCtx(bg, "ghost", "in", "out"), auerr.ErrUnknownModel)
	check("NN on QLearn model", rt.NNCtx(bg, "q", "in", "out"), auerr.ErrModeViolation)
	check("NNRL on AdamOpt model", rt.NNRLCtx(bg, "sl", "in", 0, false, "out"), auerr.ErrModeViolation)
	check("NN without extract", rt.NNCtx(bg, "sl", "in", "out"), auerr.ErrMissingInput)

	_, err := rt.WriteBackCtx(bg, "unbound", make([]float64, 1))
	check("write-back unbound", err, auerr.ErrMissingInput)

	_, err = rt.FitCtx(bg, "q", 1, 8)
	check("Fit on QLearn", err, auerr.ErrModeViolation)
	_, err = rt.FitCtx(bg, "sl", 1, 8)
	check("Fit without examples", err, auerr.ErrMissingInput)

	_, err = rt.PredictCtx(bg, "sl", []float64{1})
	check("Predict unmaterialized", err, auerr.ErrNotMaterialized)

	check("spec with bad activation",
		rt.ConfigCtx(bg, ModelSpec{Name: "b", Algo: AdamOpt, OutputActivation: "tanh"}),
		auerr.ErrSpecInvalid)

	ts := NewRuntime(Test, 9)
	check("TS config without saved model",
		ts.ConfigCtx(bg, ModelSpec{Name: "missing", Algo: AdamOpt}),
		auerr.ErrUnknownModel)

	ts.LoadModel("broken", []byte{1, 2, 3})
	check("TS config with corrupt saved model",
		ts.ConfigCtx(bg, ModelSpec{Name: "broken", Algo: AdamOpt}),
		auerr.ErrCorruptModel)
}

func TestSpecValidationFieldMessages(t *testing.T) {
	cases := []struct {
		desc string
		spec ModelSpec
	}{
		{"empty name", ModelSpec{}},
		{"unknown type", ModelSpec{Name: "m", Type: ModelType(9)}},
		{"unknown algo", ModelSpec{Name: "m", Algo: Algorithm(9)}},
		{"bad hidden width", ModelSpec{Name: "m", Algo: AdamOpt, Hidden: []int{8, 0}}},
		{"CNN without shape", ModelSpec{Name: "m", Type: CNN, Algo: AdamOpt}},
		{"CNN non-positive dim", ModelSpec{Name: "m", Type: CNN, Algo: AdamOpt, InputShape: []int{1, 0, 8}}},
		{"CNN too small for built-in net", ModelSpec{Name: "m", Type: CNN, Algo: AdamOpt, InputShape: []int{1, 4, 4}}},
		{"QLearn without actions", ModelSpec{Name: "m", Algo: QLearn}},
		{"negative actions", ModelSpec{Name: "m", Algo: AdamOpt, Actions: -1}},
		{"bad activation", ModelSpec{Name: "m", Algo: AdamOpt, OutputActivation: "relu"}},
		{"negative LR", ModelSpec{Name: "m", Algo: AdamOpt, LR: -0.1}},
		{"gamma out of range", ModelSpec{Name: "m", Algo: QLearn, Actions: 2, Gamma: 1.5}},
		{"negative batch size", ModelSpec{Name: "m", Algo: AdamOpt, BatchSize: -8}},
	}
	for _, c := range cases {
		rt := NewRuntime(Train, 1)
		err := rt.ConfigCtx(context.Background(), c.spec)
		if !errors.Is(err, auerr.ErrSpecInvalid) {
			t.Errorf("%s: error %v does not wrap ErrSpecInvalid", c.desc, err)
		}
	}
}

func TestGuardConvertsPanicsToErrors(t *testing.T) {
	// A panicking user Builder must surface as an ErrInvariant error from
	// the entry point that triggered materialization, not crash the host.
	rt := NewRuntime(Train, 13)
	err := rt.Config(ModelSpec{
		Name: "boom", Algo: AdamOpt,
		Builder: func(inSize, outSize int, rng *stats.RNG) *nn.Network {
			panic("user builder exploded")
		},
	})
	if err != nil {
		t.Fatalf("Config: %v", err)
	}
	err = rt.RecordExample("boom", []float64{1}, []float64{1})
	if !errors.Is(err, auerr.ErrInvariant) {
		t.Errorf("panicking Builder: err = %v, want ErrInvariant", err)
	}
}

func TestPredictCtxRejectsWrongInputSize(t *testing.T) {
	rt := slRuntime(t, 8)
	if _, err := rt.FitCtx(context.Background(), "sl", 1, 4); err != nil {
		t.Fatalf("FitCtx: %v", err)
	}
	_, err := rt.PredictCtx(context.Background(), "sl", []float64{1, 2, 3, 4})
	if !errors.Is(err, auerr.ErrSpecInvalid) {
		t.Errorf("Predict size mismatch: %v, want ErrSpecInvalid", err)
	}
	if out, err := rt.PredictCtx(context.Background(), "sl", []float64{1, 2, 3}); err != nil || len(out) != 1 {
		t.Errorf("Predict = %v, %v; want 1 output", out, err)
	}
}
