//go:build !race

// Allocation regression tests for the zero-allocation steady-state
// contract (DESIGN.md §5e). Excluded under -race: the race runtime
// instruments allocations and makes testing.AllocsPerRun report its own
// bookkeeping.
package nn

import (
	"testing"

	"github.com/autonomizer/autonomizer/internal/stats"
	"github.com/autonomizer/autonomizer/internal/tensor"
)

// TestForwardZeroAllocs checks the steady-state inference paths: after
// one warm-up pass, Network.Forward and PredictInto over both the DNN
// and a conv stack must not touch the heap.
func TestForwardZeroAllocs(t *testing.T) {
	rng := stats.NewRNG(3)
	dnn := NewDNN(64, []int{128, 64}, 16, rng.Split())
	cnn := NewNetwork(
		NewConv2D(4, 8, 3, 3, 1, 1, rng.Split()),
		NewReLU(),
		NewMaxPool2D(2),
		NewFlatten(),
		NewDense(8*16*16, 16, rng.Split()),
	)

	in := tensor.New(64)
	dnn.Forward(in) // warm-up allocates the layer caches
	if n := testing.AllocsPerRun(100, func() { dnn.Forward(in) }); n != 0 {
		t.Errorf("DNN Forward allocs/op = %v, want 0", n)
	}

	// The conv stack holds the same line: the implicit-GEMM ConvKernel
	// and every layer after it run on layer-owned buffers.
	cin := tensor.New(4, 32, 32)
	cnn.Forward(cin)
	if n := testing.AllocsPerRun(100, func() { cnn.Forward(cin) }); n != 0 {
		t.Errorf("CNN Forward allocs/op = %v, want 0", n)
	}
	// A training-style forward+backward over the conv stack must hold
	// the same line.
	cnn.ZeroGrads()
	grad := tensor.New(16)
	cnn.Backward(grad)
	if n := testing.AllocsPerRun(100, func() {
		cnn.Forward(cin)
		cnn.Backward(grad)
	}); n != 0 {
		t.Errorf("CNN forward+backward allocs/op = %v, want 0", n)
	}

	act := activationNet(rng.Split())
	ain := tensor.New(16)
	act.Forward(ain)
	if n := testing.AllocsPerRun(100, func() { act.Forward(ain) }); n != 0 {
		t.Errorf("activation-stack Forward allocs/op = %v, want 0", n)
	}

	flat := make([]float64, 64)
	out := make([]float64, 16)
	dnn.PredictInto(out, flat)
	if n := testing.AllocsPerRun(100, func() { dnn.PredictInto(out, flat) }); n != 0 {
		t.Errorf("PredictInto allocs/op = %v, want 0", n)
	}
}

// activationNet is a dense stack through every other activation kind,
// with a training-mode Dropout, for the allocation tests.
func activationNet(rng *stats.RNG) *Network {
	return NewNetwork(
		NewDense(16, 32, rng.Split()), NewLeakyReLU(0.1),
		NewDense(32, 32, rng.Split()), NewTanh(),
		NewDense(32, 32, rng.Split()), NewSigmoid(), NewDropout(0.25, rng.Split()),
		NewDense(32, 8, rng.Split()), NewSoftmax(),
	)
}

// TestBackwardZeroAllocs checks a full forward/loss-grad/backward cycle
// (the per-example body of sequential TrainBatch) is allocation-free in
// steady state.
func TestBackwardZeroAllocs(t *testing.T) {
	rng := stats.NewRNG(3)
	nets := map[string]*Network{
		"dnn":         NewDNN(64, []int{128, 64}, 16, rng.Split()),
		"activations": activationNet(rng.Split()),
	}
	for name, net := range nets {
		in := tensor.New(net.Layers()[0].(*Dense).InSize)
		in.Fill(0.5)
		target := tensor.New(net.Forward(in).Size())
		step := func() {
			pred := net.Forward(in)
			net.Backward(net.lossGrad(pred, target))
		}
		net.ZeroGrads()
		step() // warm-up
		if n := testing.AllocsPerRun(100, step); n != 0 {
			t.Errorf("%s forward+backward allocs/op = %v, want 0", name, n)
		}
	}
}
