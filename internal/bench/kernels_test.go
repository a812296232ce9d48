package bench

import (
	"testing"

	"github.com/autonomizer/autonomizer/internal/nn"
	"github.com/autonomizer/autonomizer/internal/rl"
	"github.com/autonomizer/autonomizer/internal/stats"
	"github.com/autonomizer/autonomizer/internal/tensor"
)

// fillKernel fills t with a deterministic pseudo-random pattern (the
// xorshift generator also used by the tensor package's tests).
func fillKernel(t *tensor.Tensor, seed uint64) {
	s := seed | 1
	for i := range t.Data() {
		s ^= s >> 12
		s ^= s << 25
		s ^= s >> 27
		t.Data()[i] = float64(int64(s*0x2545F4914F6CDD1D)) / (1 << 62)
	}
}

// benchDNN builds the reference regression model used throughout the
// perf docs: DNN 64-[128,64]-16.
func benchDNN() *nn.Network {
	net := nn.NewDNN(64, []int{128, 64}, 16, stats.NewRNG(7))
	net.UseAdam(1e-3)
	return net
}

// benchCNN builds a small conv stack: its training forward and backward
// run the implicit-GEMM ConvKernel, its compiled plan the prepacked
// PackedConv.
func benchCNN() *nn.Network {
	rng := stats.NewRNG(7)
	return nn.NewNetwork(
		nn.NewConv2D(4, 8, 3, 3, 1, 1, rng.Split()),
		nn.NewReLU(),
		nn.NewMaxPool2D(2),
		nn.NewFlatten(),
		nn.NewDense(8*16*16, 16, rng.Split()),
	)
}

// BenchmarkKernels is the nn-level benchmark suite behind
// BENCH_kernels.json and the CI allocs gate (scripts/check_allocs.sh).
// The kernel-level pairs behind scripts/check_kernels.sh (matmul and
// conv, reference vs production) live in package tensor's
// BenchmarkKernels. Sub-benchmarks:
//
//   - Dense/Conv2D forward+backward: layer-level steady state.
//   - NetworkForward, TrainBatch, ServedPredict, DQNObserve: end-to-end
//     allocs/op — NetworkForward and ServedPredict must report 0
//     allocs/op after warm-up; TrainBatch and DQNObserve (one replayed
//     Q-learning update, which runs TrainBatch) share a fixed small
//     budget (see check_allocs.sh).
func BenchmarkKernels(b *testing.B) {
	b.Run("DenseForwardBackward", func(b *testing.B) {
		rng := stats.NewRNG(7)
		d := nn.NewDense(256, 128, rng)
		in := tensor.New(256)
		fillKernel(in, 3)
		grad := tensor.New(128)
		fillKernel(grad, 4)
		d.Forward(in) // warm the layer caches
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			d.Forward(in)
			d.Backward(grad)
		}
	})

	b.Run("Conv2DForwardBackward", func(b *testing.B) {
		rng := stats.NewRNG(7)
		c := nn.NewConv2D(4, 8, 3, 3, 1, 1, rng)
		in := tensor.New(4, 32, 32)
		fillKernel(in, 5)
		grad := tensor.New(8, 32, 32)
		fillKernel(grad, 6)
		c.Forward(in)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c.Forward(in)
			c.Backward(grad)
		}
	})

	b.Run("NetworkForward", func(b *testing.B) {
		net := benchDNN()
		in := tensor.New(64)
		fillKernel(in, 7)
		net.Forward(in) // warm-up: after this, steady state is 0 allocs/op
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			net.Forward(in)
		}
	})

	b.Run("CNNForward", func(b *testing.B) {
		// The CNN serving path: a compiled plan instance. Gated at 0
		// allocs/op — the plan's ops run sequentially on pre-sized
		// buffers, with no parallel-dispatch closures.
		net := benchCNN()
		plan, err := nn.Compile(net, 4, 32, 32)
		if err != nil {
			b.Fatal(err)
		}
		inst := plan.NewInstance()
		in := make([]float64, 4*32*32)
		out := make([]float64, plan.OutSize())
		inst.PredictInto(out, in)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			inst.PredictInto(out, in)
		}
	})

	b.Run("CNNForwardTrain", func(b *testing.B) {
		// The CNN training-representation forward, gated at 0 allocs/op
		// by check_allocs.sh: the implicit-GEMM ConvKernel packs its
		// filter on every call, which the compiled plan does once.
		net := benchCNN()
		in := tensor.New(4, 32, 32)
		fillKernel(in, 8)
		net.Forward(in)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			net.Forward(in)
		}
	})

	b.Run("ServedPredict", func(b *testing.B) {
		// The serving hot path: one compiled plan replica, exactly what
		// the engine pool hands to each batch shard.
		net := benchDNN()
		plan, err := nn.Compile(net)
		if err != nil {
			b.Fatal(err)
		}
		inst := plan.NewInstance()
		in := make([]float64, 64)
		out := make([]float64, 16)
		inst.PredictInto(out, in) // warm-up
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			inst.PredictInto(out, in)
		}
	})

	b.Run("TrainBatch", func(b *testing.B) {
		net := benchDNN()
		ins := make([]*tensor.Tensor, 32)
		targets := make([]*tensor.Tensor, 32)
		for i := range ins {
			ins[i] = tensor.New(64)
			targets[i] = tensor.New(16)
			fillKernel(ins[i], uint64(10+i))
			fillKernel(targets[i], uint64(50+i))
		}
		net.TrainBatch(ins, targets) // warm-up
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			net.TrainBatch(ins, targets)
		}
	})

	b.Run("DQNObserve", func(b *testing.B) {
		// One replayed Q-learning update per Observe: a 10-64-32-5 DQN,
		// batch 32. Warm-up fills the replay buffer and runs the first
		// update, which compiles the target plan and binds Adam; a target
		// sync recompiles the plan every 250 updates thereafter.
		a := rl.NewAgent(nn.NewDNN(10, []int{64, 32}, 5, stats.NewRNG(7)), 5,
			rl.Config{BatchSize: 32}, stats.NewRNG(8))
		states := make([][]float64, 64)
		for i := range states {
			st := tensor.New(10)
			fillKernel(st, uint64(90+i))
			states[i] = st.Data()
		}
		observe := func(i int) {
			a.Observe(rl.Transition{
				State: states[i%len(states)], Action: i % 5, Reward: float64(i%3) - 1,
				NextState: states[(i+1)%len(states)], Terminal: i%50 == 49,
			})
		}
		warm := 100 // the default WarmupSteps
		for i := 0; i < warm; i++ {
			observe(i)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			observe(warm + i)
		}
	})
}
