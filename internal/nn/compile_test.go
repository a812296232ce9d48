package nn

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"github.com/autonomizer/autonomizer/internal/stats"
)

// bitsEqual fails the test unless got and want are bit-identical.
func bitsEqual(t *testing.T, label string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d, want %d", label, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: elem %d = %x (%v), want %x (%v)",
				label, i, math.Float64bits(got[i]), got[i], math.Float64bits(want[i]), want[i])
		}
	}
}

// TestCompiledDNNBitIdentical checks the compiled plan against the
// uncompiled network across layer widths chosen to exercise every packed
// path: full 16-lane blocks, blocks plus ragged tails, widths below one
// block, and width 1. Worker-pool width must not matter for either side.
func TestCompiledDNNBitIdentical(t *testing.T) {
	rng := stats.NewRNG(42)
	archs := []struct {
		name   string
		in     int
		hidden []int
		out    int
	}{
		{"full-blocks", 64, []int{128, 64}, 16},
		{"straddle", 33, []int{47, 21}, 5},
		{"tiny", 2, []int{3}, 1},
		{"one-wide", 1, []int{1}, 1},
		{"wide-shallow", 8, nil, 16},
		{"tail-only", 7, []int{9, 13}, 2},
	}
	for _, arch := range archs {
		net := NewDNN(arch.in, arch.hidden, arch.out, rng.Split())
		plan, err := Compile(net)
		if err != nil {
			t.Fatalf("%s: compile: %v", arch.name, err)
		}
		if plan.InSize() != arch.in || plan.OutSize() != arch.out {
			t.Fatalf("%s: plan geometry %d->%d, want %d->%d",
				arch.name, plan.InSize(), plan.OutSize(), arch.in, arch.out)
		}
		inst := plan.NewInstance()
		in := make([]float64, arch.in)
		for _, workers := range []int{1, 2, 8} {
			restore := runtime.GOMAXPROCS(workers)
			for trial := 0; trial < 5; trial++ {
				for i := range in {
					in[i] = rng.NormFloat64()
				}
				want := net.Predict(in)
				got := inst.Predict(in)
				bitsEqual(t, arch.name, got, want)
			}
			runtime.GOMAXPROCS(restore)
		}
	}
}

// TestCompiledCNNBitIdentical runs the full CNN stack — conv, relu,
// pooling, flatten, dense — through the plan and the network, including
// a ragged spatial size that exercises pooling truncation and conv
// matmul tails.
func TestCompiledCNNBitIdentical(t *testing.T) {
	rng := stats.NewRNG(7)
	builds := []struct {
		name  string
		net   *Network
		shape []int
	}{
		{
			"small-cnn",
			NewNetwork(
				NewConv2D(4, 8, 3, 3, 1, 1, rng.Split()),
				NewReLU(),
				NewMaxPool2D(2),
				NewFlatten(),
				NewDense(8*16*16, 16, rng.Split()),
			),
			[]int{4, 32, 32},
		},
		{
			"ragged-cnn",
			NewNetwork(
				NewConv2D(3, 5, 3, 3, 2, 1, rng.Split()),
				NewTanh(),
				NewMaxPool2D(2),
				NewFlatten(),
				NewDense(5*3*3, 7, rng.Split()),
				NewSoftmax(),
			),
			[]int{3, 13, 13},
		},
		{
			"deepmind",
			NewDeepMindCNN(4, 40, 40, 6, rng.Split()),
			[]int{4, 40, 40},
		},
	}
	for _, b := range builds {
		plan, err := Compile(b.net, b.shape...)
		if err != nil {
			t.Fatalf("%s: compile: %v", b.name, err)
		}
		inst := plan.NewInstance()
		size := 1
		for _, d := range b.shape {
			size *= d
		}
		in := make([]float64, size)
		for _, workers := range []int{1, 2, 8} {
			restore := runtime.GOMAXPROCS(workers)
			for trial := 0; trial < 3; trial++ {
				for i := range in {
					in[i] = rng.NormFloat64()
				}
				want := b.net.Predict(in, b.shape...)
				got := inst.Predict(in)
				bitsEqual(t, b.name, got, want)
			}
			runtime.GOMAXPROCS(restore)
		}
	}
}

// TestCompiledActivationsBitIdentical runs each activation and pooling
// layer alone through the plan and the network on NaNs with payloads,
// ±Inf, ±0, subnormals and extremes: the two must agree bit for bit.
func TestCompiledActivationsBitIdentical(t *testing.T) {
	specials := []float64{
		math.NaN(), math.Float64frombits(0xfff0000000000042), math.Float64frombits(0x7ff8000000000123),
		math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1),
		math.Float64frombits(1), -math.Float64frombits(1), math.Float64frombits(0x000fffffffffffff),
		math.MaxFloat64, -math.MaxFloat64, 1.5, -2.5, 710, -745,
	}
	finite := []float64{0, math.Copysign(0, -1), math.Float64frombits(1), -math.Float64frombits(1),
		1e-300, -1e-300, 700, -700, 1.5, -2.5, 20, -20, 0.125, 3, -1e-8, 1e-8}
	inference := NewDropout(0.5, stats.NewRNG(1))
	inference.SetTraining(false)
	cases := []struct {
		layer Layer
		shape []int
	}{
		{NewReLU(), nil},
		{NewLeakyReLU(0.1), nil},
		{NewLeakyReLU(0), nil},
		{NewSigmoid(), nil},
		{NewTanh(), nil},
		{NewSoftmax(), nil},
		{inference, nil},
		{NewMaxPool2D(2), []int{1, 4, 4}},
		{NewMaxPool2D(3), []int{2, 3, 8}},
	}
	for _, c := range cases {
		for vi, vals := range [][]float64{specials, finite} {
			shape := c.shape
			if shape == nil {
				shape = []int{len(vals)}
			}
			size := 1
			for _, d := range shape {
				size *= d
			}
			in := make([]float64, size)
			for i := range in {
				in[i] = vals[(i*7)%len(vals)]
			}
			net := NewNetwork(c.layer)
			plan, err := Compile(net, shape...)
			if err != nil {
				t.Fatalf("%s: compile: %v", c.layer.Name(), err)
			}
			label := fmt.Sprintf("%s/%d", c.layer.Name(), vi)
			bitsEqual(t, label, plan.NewInstance().Predict(in), net.Predict(in, shape...))
		}
	}
}

// TestCompiledPlanIsSnapshot verifies a plan does not observe weight
// mutations after compile — the core of the recompile-on-publish
// contract.
func TestCompiledPlanIsSnapshot(t *testing.T) {
	rng := stats.NewRNG(3)
	net := NewDNN(8, []int{16}, 4, rng.Split())
	plan, err := Compile(net)
	if err != nil {
		t.Fatal(err)
	}
	inst := plan.NewInstance()
	in := []float64{1, -2, 3, -4, 5, -6, 7, -8}
	before := inst.Predict(in)
	for _, p := range net.Params() {
		for i := range p.Data() {
			p.Data()[i] += 1
		}
	}
	bitsEqual(t, "snapshot", inst.Predict(in), before)
	// A fresh compile picks up the new weights.
	plan2, err := Compile(net)
	if err != nil {
		t.Fatal(err)
	}
	bitsEqual(t, "recompile", plan2.NewInstance().Predict(in), net.Predict(in))
}

// TestCompiledPlanInstancesIndependent runs two instances of one plan
// concurrently to completion and checks both match the reference —
// instances share only immutable packed weights.
func TestCompiledPlanInstancesIndependent(t *testing.T) {
	rng := stats.NewRNG(11)
	net := NewDNN(16, []int{32}, 8, rng.Split())
	plan, err := Compile(net)
	if err != nil {
		t.Fatal(err)
	}
	in1 := make([]float64, 16)
	in2 := make([]float64, 16)
	for i := range in1 {
		in1[i] = rng.NormFloat64()
		in2[i] = rng.NormFloat64()
	}
	want1, want2 := net.Predict(in1), net.Predict(in2)
	i1, i2 := plan.NewInstance(), plan.NewInstance()
	done := make(chan []float64, 2)
	go func() {
		var out []float64
		for r := 0; r < 100; r++ {
			out = i1.PredictInto(out, in1)
		}
		done <- out
	}()
	go func() {
		var out []float64
		for r := 0; r < 100; r++ {
			out = i2.PredictInto(out, in2)
		}
		done <- out
	}()
	got1, got2 := <-done, <-done
	// Channel order is nondeterministic; match by length-independent
	// comparison against both references.
	if math.Float64bits(got1[0]) != math.Float64bits(want1[0]) {
		got1, got2 = got2, got1
	}
	bitsEqual(t, "inst1", got1, want1)
	bitsEqual(t, "inst2", got2, want2)
}

// TestCompileRejectsUnknownAndBadShapes covers the fallback contract:
// unsupported layers and shape mismatches return errors, never panic.
func TestCompileRejectsUnknownAndBadShapes(t *testing.T) {
	rng := stats.NewRNG(5)
	if _, err := Compile(NewNetwork()); err == nil {
		t.Error("empty network compiled")
	}
	cnn := NewNetwork(NewConv2D(4, 8, 3, 3, 1, 1, rng.Split()))
	if _, err := Compile(cnn); err == nil {
		t.Error("conv-first network compiled without an input shape")
	}
	if _, err := Compile(cnn, 3, 32, 32); err == nil {
		t.Error("channel mismatch compiled")
	}
	dnn := NewDNN(8, nil, 4, rng.Split())
	if _, err := Compile(dnn, 9); err == nil {
		t.Error("dense size mismatch compiled")
	}
}

// TestCompiledPredictIntoZeroAlloc pins the tentpole's steady-state
// guarantee: a warmed-up compiled PredictInto performs zero allocations,
// for the DNN and for the CNN (whose uncompiled forward still pays
// parallel-dispatch closures).
func TestCompiledPredictIntoZeroAlloc(t *testing.T) {
	rng := stats.NewRNG(9)
	dnn := NewDNN(64, []int{128, 64}, 16, rng.Split())
	cnn := NewNetwork(
		NewConv2D(4, 8, 3, 3, 1, 1, rng.Split()),
		NewReLU(),
		NewMaxPool2D(2),
		NewFlatten(),
		NewDense(8*16*16, 16, rng.Split()),
	)
	cases := []struct {
		name  string
		net   *Network
		shape []int
		inLen int
	}{
		{"dnn", dnn, nil, 64},
		{"cnn", cnn, []int{4, 32, 32}, 4 * 32 * 32},
	}
	for _, c := range cases {
		plan, err := Compile(c.net, c.shape...)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		inst := plan.NewInstance()
		in := make([]float64, c.inLen)
		for i := range in {
			in[i] = rng.NormFloat64()
		}
		out := make([]float64, plan.OutSize())
		inst.PredictInto(out, in) // warm up
		allocs := testing.AllocsPerRun(50, func() {
			inst.PredictInto(out, in)
		})
		if allocs != 0 {
			t.Errorf("%s: compiled PredictInto allocates %.0f/op, want 0", c.name, allocs)
		}
	}
}

// TestCompiledPlanSpecialValues feeds NaN and ±Inf through both
// representations: the packed kernels must not skip zero terms or
// reassociate in ways that launder special values.
func TestCompiledPlanSpecialValues(t *testing.T) {
	rng := stats.NewRNG(13)
	net := NewDNN(8, []int{16}, 4, rng.Split())
	plan, err := Compile(net)
	if err != nil {
		t.Fatal(err)
	}
	inst := plan.NewInstance()
	in := []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, -0.0, 1e308, -1e-308, 2}
	bitsEqual(t, "special", inst.Predict(in), net.Predict(in))
}

// TestCompiledCNNSpecialValues pushes NaN and ±Inf through the conv
// stack: the fused conv-bias ReLU and the unrolled 2×2 pool must treat
// NaN exactly like the uncompiled layers (ReLU maps NaN to 0 because
// NaN > 0 is false; the pool's -Inf-seeded strict > never lets NaN
// win), and the implicit-GEMM gather must keep padding as explicit
// zeros so 0×NaN stays NaN inside the fold.
func TestCompiledCNNSpecialValues(t *testing.T) {
	rng := stats.NewRNG(17)
	net := NewNetwork(
		NewConv2D(2, 4, 3, 3, 1, 1, rng.Split()),
		NewReLU(),
		NewMaxPool2D(2),
		NewFlatten(),
		NewDense(4*4*4, 3, rng.Split()),
	)
	plan, err := Compile(net, 2, 8, 8)
	if err != nil {
		t.Fatal(err)
	}
	inst := plan.NewInstance()
	in := make([]float64, 2*8*8)
	for i := range in {
		in[i] = rng.NormFloat64()
	}
	in[0] = math.NaN()
	in[9] = math.Inf(1)
	in[17] = math.Inf(-1)
	in[33] = 0
	in[len(in)-1] = math.NaN()
	bitsEqual(t, "cnn-special", inst.Predict(in), net.Predict(in, 2, 8, 8))
}
