package bench

import (
	"context"
	"testing"

	"github.com/autonomizer/autonomizer/internal/obs"
)

// BenchmarkObsOverhead proves the telemetry layer's zero-cost-when-
// disabled contract on the two hot paths (recorded in BENCH_obs.json):
//
//   - disabled: the instrumented runtime with nil telemetry — every
//     metric site is one nil-check branch. Must be within noise of the
//     pre-telemetry baseline, BenchmarkPredictCtxOverhead/PredictCtx and
//     BenchmarkFitCtxOverhead/FitCtx (BENCH_obs.json's "baseline").
//   - enabled: a live private registry — counters, latency histogram
//     timers and (for Fit) per-step timings all recording, which
//     bounds the cost a -telemetry run actually pays.
//   - traced: enabled plus span recording (-trace), which additionally
//     pays per-request span allocation and ring insertion.
func BenchmarkObsOverhead(b *testing.B) {
	b.Run("Predict/disabled", func(b *testing.B) {
		rt, in := ctxOverheadRuntime(b)
		rt.Instrument(nil)
		ctx := context.Background()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := rt.PredictCtx(ctx, "Ctx", in); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("Predict/enabled", func(b *testing.B) {
		rt, in := ctxOverheadRuntime(b)
		rt.Instrument(obs.NewRegistry())
		ctx := context.Background()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := rt.PredictCtx(ctx, "Ctx", in); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("Predict/traced", func(b *testing.B) {
		rt, in := ctxOverheadRuntime(b)
		rt.Instrument(obs.NewRegistry())
		prev := obs.SetTracing(true)
		defer obs.SetTracing(prev)
		ctx := context.Background()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := rt.PredictCtx(ctx, "Ctx", in); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("Fit/disabled", func(b *testing.B) {
		rt, _ := ctxOverheadRuntime(b)
		rt.Instrument(nil)
		ctx := context.Background()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := rt.FitCtx(ctx, "Ctx", 1, 16); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("Fit/enabled", func(b *testing.B) {
		rt, _ := ctxOverheadRuntime(b)
		rt.Instrument(obs.NewRegistry())
		ctx := context.Background()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := rt.FitCtx(ctx, "Ctx", 1, 16); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkTraceparent prices one hop of W3C trace-context
// propagation: rendering the header for an outbound request and
// validating/parsing it back on the receiving side.
func BenchmarkTraceparent(b *testing.B) {
	h := obs.FormatTraceparent("0af7651916cd43dd8448eb211c80319c", "b7ad6b7169203331")
	b.Run("format", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			obs.FormatTraceparent("0af7651916cd43dd8448eb211c80319c", "b7ad6b7169203331")
		}
	})
	b.Run("parse", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, err := obs.ParseTraceparent(h); err != nil {
				b.Fatal(err)
			}
		}
	})
}
