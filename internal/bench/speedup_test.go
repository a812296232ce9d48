package bench

import (
	"fmt"
	"runtime"
	"testing"

	"github.com/autonomizer/autonomizer/internal/parallel"
	"github.com/autonomizer/autonomizer/internal/stats"
	"github.com/autonomizer/autonomizer/internal/tensor"
)

// speedupWorkload is the one NN hot path the parallel engine shards: a
// training-path convolution forward and backward on the bench geometry
// (4×32×32 → 8, 3×3, stride 1, pad 1) through the production ConvKernel,
// which shards its output panels and input channels over the pool.
// Training itself runs its minibatch sequentially, so nothing else in
// the network changes with the width.
func speedupWorkload(b *testing.B) {
	b.Helper()
	rng := stats.NewRNG(5)
	ck := tensor.NewConvKernel(tensor.NewConvGeom(4, 32, 32, 3, 3, 1, 1, 8))
	in := make([]float64, 4*32*32)
	w := make([]float64, 8*4*3*3)
	gout := make([]float64, 8*32*32)
	for _, s := range [][]float64{in, w, gout} {
		for i := range s {
			s[i] = rng.Range(-1, 1)
		}
	}
	out := make([]float64, 8*32*32)
	gradW := make([]float64, 8*4*3*3)
	gradIn := make([]float64, 4*32*32)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ck.Forward(out, in, w)
		ck.Backward(gradW, gradIn, in, w, gout)
	}
}

// BenchmarkParallelSpeedup runs the same workload with the engine forced
// sequential (workers=1) and at full width (GOMAXPROCS), the honesty
// gate for the parallel layer: compare the two ns/op figures to get the
// machine's actual speedup (recorded in BENCH_parallel.json).
func BenchmarkParallelSpeedup(b *testing.B) {
	for _, cfg := range []struct {
		name    string
		workers int
	}{
		{"sequential", 1},
		{"parallel", runtime.GOMAXPROCS(0)},
	} {
		b.Run(fmt.Sprintf("%s-w%d", cfg.name, cfg.workers), func(b *testing.B) {
			prev := parallel.SetWorkers(cfg.workers)
			defer parallel.SetWorkers(prev)
			speedupWorkload(b)
		})
	}
}
