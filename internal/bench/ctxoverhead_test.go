package bench

import (
	"context"
	"testing"

	"github.com/autonomizer/autonomizer/internal/core"
	"github.com/autonomizer/autonomizer/internal/stats"
)

// ctxOverheadRuntime builds a small supervised runtime with recorded
// examples, the fixture for the Predict / training-step overhead pairs.
func ctxOverheadRuntime(b *testing.B) (*core.Runtime, []float64) {
	b.Helper()
	rt := core.NewRuntime(core.Train, 7)
	rt.Config(core.ModelSpec{
		Name: "Ctx", Algo: core.AdamOpt, Hidden: []int{32, 16},
	})
	rng := stats.NewRNG(8)
	in := make([]float64, 16)
	for i := 0; i < 64; i++ {
		ex := make([]float64, 16)
		out := make([]float64, 4)
		for j := range ex {
			ex[j] = rng.Range(-1, 1)
		}
		for j := range out {
			out[j] = rng.Range(0, 1)
		}
		if err := rt.RecordExample("Ctx", ex, out); err != nil {
			b.Fatalf("RecordExample: %v", err)
		}
	}
	for j := range in {
		in[j] = rng.Range(-1, 1)
	}
	if _, err := rt.Fit("Ctx", 1, 16); err != nil {
		b.Fatalf("Fit: %v", err)
	}
	return rt, in
}

// BenchmarkPredictCtxOverhead measures what the context-aware contract
// costs on the inference hot path: Predict (the background-context
// wrapper) against PredictCtx with a live cancelable context. Recorded
// in BENCH_obs.json as its telemetry baseline.
func BenchmarkPredictCtxOverhead(b *testing.B) {
	b.Run("Predict", func(b *testing.B) {
		rt, in := ctxOverheadRuntime(b)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := rt.Predict("Ctx", in); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("PredictCtx", func(b *testing.B) {
		rt, in := ctxOverheadRuntime(b)
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := rt.PredictCtx(ctx, "Ctx", in); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkFitCtxOverhead measures the per-minibatch cancellation check
// on the training hot path: one epoch over the recorded examples via
// the background-context wrapper against FitCtx with a live cancelable
// context. Recorded in BENCH_obs.json as its telemetry baseline.
func BenchmarkFitCtxOverhead(b *testing.B) {
	b.Run("Fit", func(b *testing.B) {
		rt, _ := ctxOverheadRuntime(b)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := rt.Fit("Ctx", 1, 16); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("FitCtx", func(b *testing.B) {
		rt, _ := ctxOverheadRuntime(b)
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := rt.FitCtx(ctx, "Ctx", 1, 16); err != nil {
				b.Fatal(err)
			}
		}
	})
}
