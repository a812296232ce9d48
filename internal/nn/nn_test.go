package nn

import (
	"math"
	"testing"

	"github.com/autonomizer/autonomizer/internal/stats"
	"github.com/autonomizer/autonomizer/internal/tensor"
)

// numericGrad estimates d loss / d param[i] by central differences, the
// reference against which analytic backprop is checked.
func numericGrad(n *Network, loss Loss, in, target *tensor.Tensor, p *tensor.Tensor, i int) float64 {
	const h = 1e-6
	orig := p.Data()[i]
	p.Data()[i] = orig + h
	up := loss.Loss(n.Forward(in), target)
	p.Data()[i] = orig - h
	down := loss.Loss(n.Forward(in), target)
	p.Data()[i] = orig
	return (up - down) / (2 * h)
}

func checkGradients(t *testing.T, n *Network, loss Loss, in, target *tensor.Tensor) {
	t.Helper()
	n.ZeroGrads()
	pred := n.Forward(in)
	n.Backward(loss.GradInto(tensor.New(pred.Shape()...), pred, target))
	params := n.Params()
	grads := n.Grads()
	for pi, p := range params {
		g := grads[pi]
		// Sample a handful of coordinates per tensor to keep tests fast.
		step := p.Size()/7 + 1
		for i := 0; i < p.Size(); i += step {
			want := numericGrad(n, loss, in, target, p, i)
			got := g.Data()[i]
			tol := 1e-4 * (1 + math.Abs(want))
			if math.Abs(got-want) > tol {
				t.Errorf("param %d[%d]: analytic grad %v, numeric %v", pi, i, got, want)
			}
		}
	}
}

func TestDenseGradients(t *testing.T) {
	rng := stats.NewRNG(1)
	n := NewNetwork(NewDense(4, 3, rng))
	in := tensor.FromSlice([]float64{0.5, -1, 2, 0.1}, 4)
	target := tensor.FromSlice([]float64{1, 0, -1}, 3)
	checkGradients(t, n, MSE{}, in, target)
}

func TestMLPGradients(t *testing.T) {
	rng := stats.NewRNG(2)
	n := NewDNN(5, []int{8, 6}, 3, rng)
	in := tensor.FromSlice([]float64{0.5, -1, 2, 0.1, -0.3}, 5)
	target := tensor.FromSlice([]float64{1, 0, -1}, 3)
	checkGradients(t, n, MSE{}, in, target)
}

func TestTanhSigmoidGradients(t *testing.T) {
	rng := stats.NewRNG(3)
	n := NewNetwork(NewDense(3, 4, rng), NewTanh(), NewDense(4, 2, rng), NewSigmoid())
	in := tensor.FromSlice([]float64{0.2, -0.4, 0.9}, 3)
	target := tensor.FromSlice([]float64{0.3, 0.8}, 2)
	checkGradients(t, n, MSE{}, in, target)
}

func TestConvGradients(t *testing.T) {
	rng := stats.NewRNG(4)
	n := NewNetwork(
		NewConv2D(1, 2, 3, 3, 1, 1, rng),
		NewReLU(),
		NewMaxPool2D(2),
		NewFlatten(),
		NewDense(2*3*3, 2, rng),
	)
	in := tensor.New(1, 6, 6)
	r := stats.NewRNG(5)
	for i := range in.Data() {
		in.Data()[i] = r.NormFloat64()
	}
	target := tensor.FromSlice([]float64{1, -1}, 2)
	checkGradients(t, n, MSE{}, in, target)
}

func TestHuberGradients(t *testing.T) {
	rng := stats.NewRNG(6)
	n := NewDNN(3, []int{5}, 2, rng)
	in := tensor.FromSlice([]float64{1, 2, 3}, 3)
	target := tensor.FromSlice([]float64{10, -10}, 2) // force the linear regime
	checkGradients(t, n, Huber{}, in, target)
}

func TestSoftmaxCrossEntropyGradients(t *testing.T) {
	rng := stats.NewRNG(7)
	n := NewNetwork(NewDense(4, 3, rng), NewSoftmax())
	in := tensor.FromSlice([]float64{0.1, 0.5, -0.2, 0.9}, 4)
	target := tensor.FromSlice([]float64{0, 1, 0}, 3)
	checkGradients(t, n, CrossEntropy{}, in, target)
}

func TestSoftmaxSumsToOne(t *testing.T) {
	s := NewSoftmax()
	out := s.Forward(tensor.FromSlice([]float64{1000, 1001, 999}, 3))
	sum := 0.0
	for _, v := range out.Data() {
		if v < 0 || v > 1 {
			t.Fatalf("softmax element out of range: %v", out.Data())
		}
		sum += v
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Errorf("softmax sum = %v, want 1", sum)
	}
}

func TestReLUForward(t *testing.T) {
	r := NewReLU()
	out := r.Forward(tensor.FromSlice([]float64{-1, 0, 2}, 3))
	want := []float64{0, 0, 2}
	for i := range want {
		if out.Data()[i] != want[i] {
			t.Fatalf("ReLU = %v, want %v", out.Data(), want)
		}
	}
}

func TestMaxPoolForwardBackward(t *testing.T) {
	m := NewMaxPool2D(2)
	in := tensor.FromSlice([]float64{
		1, 2, 5, 6,
		3, 4, 7, 8,
		9, 1, 2, 3,
		1, 1, 4, 1,
	}, 1, 4, 4)
	out := m.Forward(in)
	want := []float64{4, 8, 9, 4}
	for i := range want {
		if out.Data()[i] != want[i] {
			t.Fatalf("MaxPool = %v, want %v", out.Data(), want)
		}
	}
	g := m.Backward(tensor.FromSlice([]float64{1, 1, 1, 1}, 1, 2, 2))
	// Gradient must land exactly on the argmax positions.
	sum := 0.0
	for _, v := range g.Data() {
		sum += v
	}
	if sum != 4 {
		t.Errorf("pool gradient mass = %v, want 4", sum)
	}
	if g.At(0, 1, 1) != 1 || g.At(0, 1, 3) != 1 || g.At(0, 2, 0) != 1 || g.At(0, 3, 2) != 1 {
		t.Errorf("pool gradient misplaced: %v", g.Data())
	}
}

// TestMaxPoolBackwardNoWinner: a window whose inputs are all NaN or all
// -Inf has no element above the -Inf start. Forward still reports -Inf,
// and Backward routes the window's gradient to its first element, on
// both the unrolled 2×2 path and the general window loop.
func TestMaxPoolBackwardNoWinner(t *testing.T) {
	for _, size := range []int{2, 3} {
		w := 3 * size // windows: all NaN, all -Inf, ascending
		in := tensor.New(1, size, w)
		first := [3]int{0, size, 2 * size}
		for dy := 0; dy < size; dy++ {
			for dx := 0; dx < size; dx++ {
				in.Data()[dy*w+first[0]+dx] = math.NaN()
				in.Data()[dy*w+first[1]+dx] = math.Inf(-1)
				in.Data()[dy*w+first[2]+dx] = float64(dy*size + dx)
			}
		}
		m := NewMaxPool2D(size)
		out := m.Forward(in)
		wantOut := []float64{math.Inf(-1), math.Inf(-1), float64(size*size - 1)}
		bitsEqual(t, "forward", out.Data(), wantOut)
		g := m.Backward(tensor.FromSlice([]float64{3, 5, 7}, 1, 1, 3))
		want := make([]float64, size*w)
		want[first[0]] = 3
		want[first[1]] = 5
		want[(size-1)*w+first[2]+size-1] = 7
		bitsEqual(t, "backward", g.Data(), want)
	}
}

// TestXORConvergence trains a small MLP on XOR — the classic nonlinear
// sanity check that forward, backward and Adam all cooperate.
func TestXORConvergence(t *testing.T) {
	rng := stats.NewRNG(42)
	n := NewDNN(2, []int{8}, 1, rng)
	n.UseAdam(0.01)
	ins := [][]float64{{0, 0}, {0, 1}, {1, 0}, {1, 1}}
	outs := []float64{0, 1, 1, 0}
	var tIns, tOuts []*tensor.Tensor
	for i := range ins {
		tIns = append(tIns, tensor.FromSlice(ins[i], 2))
		tOuts = append(tOuts, tensor.FromSlice([]float64{outs[i]}, 1))
	}
	var last float64
	for epoch := 0; epoch < 2000; epoch++ {
		last = n.TrainBatch(tIns, tOuts)
		if last < 1e-3 {
			break
		}
	}
	if last >= 1e-3 {
		t.Fatalf("XOR did not converge: final loss %v", last)
	}
	for i := range ins {
		pred := n.Predict(ins[i])
		if math.Abs(pred[0]-outs[i]) > 0.1 {
			t.Errorf("XOR(%v) = %v, want %v", ins[i], pred[0], outs[i])
		}
	}
}

// TestRegressionConvergence checks a linear target is learned by SGD.
func TestRegressionConvergence(t *testing.T) {
	rng := stats.NewRNG(9)
	n := NewDNN(3, nil, 1, rng)
	n.UseSGD(0.01, 0.5)
	r := stats.NewRNG(10)
	for step := 0; step < 2000; step++ {
		x := []float64{r.NormFloat64(), r.NormFloat64(), r.NormFloat64()}
		y := 2*x[0] - 3*x[1] + 0.5*x[2] + 1
		n.TrainStep(tensor.FromSlice(x, 3), tensor.FromSlice([]float64{y}, 1))
	}
	pred := n.Predict([]float64{1, 1, 1})
	if math.Abs(pred[0]-0.5) > 0.05 {
		t.Errorf("linear regression predicts %v for target 0.5", pred[0])
	}
}

func TestAdamBeatsRandomWalk(t *testing.T) {
	// Adam on a quadratic bowl must reduce the loss monotonically-ish.
	rng := stats.NewRNG(11)
	n := NewDNN(2, nil, 1, rng)
	n.UseAdam(0.05)
	in := tensor.FromSlice([]float64{1, 1}, 2)
	target := tensor.FromSlice([]float64{3}, 1)
	first := n.TrainStep(in, target)
	var last float64
	for i := 0; i < 200; i++ {
		last = n.TrainStep(in, target)
	}
	if last >= first {
		t.Errorf("Adam failed to reduce loss: first %v, last %v", first, last)
	}
	if last > 1e-6 {
		t.Errorf("Adam did not converge on trivial problem: %v", last)
	}
}

func TestClipGradients(t *testing.T) {
	g := tensor.FromSlice([]float64{30, 40}, 2) // norm 50
	ClipGradients([]*tensor.Tensor{g}, 5)
	if math.Abs(g.L2Norm()-5) > 1e-9 {
		t.Errorf("clipped norm = %v, want 5", g.L2Norm())
	}
	// Within bounds: untouched.
	g2 := tensor.FromSlice([]float64{1, 0}, 2)
	ClipGradients([]*tensor.Tensor{g2}, 5)
	if g2.At(0) != 1 {
		t.Error("ClipGradients modified an in-bounds gradient")
	}
	// Non-positive maxNorm: no-op.
	ClipGradients([]*tensor.Tensor{g2}, 0)
	if g2.At(0) != 1 {
		t.Error("ClipGradients with maxNorm=0 modified gradient")
	}
}

func TestSerializationRoundTrip(t *testing.T) {
	rng := stats.NewRNG(12)
	a := NewDNN(4, []int{6}, 2, rng)
	data, err := a.MarshalParams()
	if err != nil {
		t.Fatalf("MarshalParams: %v", err)
	}
	if len(data) != a.SizeBytes() {
		t.Errorf("SizeBytes = %d, actual %d", a.SizeBytes(), len(data))
	}
	b := NewDNN(4, []int{6}, 2, stats.NewRNG(999)) // different weights
	if err := b.UnmarshalParams(data); err != nil {
		t.Fatalf("UnmarshalParams: %v", err)
	}
	in := []float64{1, -1, 0.5, 2}
	pa, pb := a.Predict(in), b.Predict(in)
	for i := range pa {
		if pa[i] != pb[i] {
			t.Fatalf("round-trip prediction mismatch: %v vs %v", pa, pb)
		}
	}
}

func TestLoadRejectsWrongArchitecture(t *testing.T) {
	rng := stats.NewRNG(13)
	a := NewDNN(4, []int{6}, 2, rng)
	data, err := a.MarshalParams()
	if err != nil {
		t.Fatal(err)
	}
	b := NewDNN(4, []int{7}, 2, rng) // different hidden size
	if err := b.UnmarshalParams(data); err == nil {
		t.Error("loading mismatched architecture succeeded")
	}
	c := NewDNN(4, nil, 2, rng) // different tensor count
	if err := c.UnmarshalParams(data); err == nil {
		t.Error("loading mismatched tensor count succeeded")
	}
	if err := a.UnmarshalParams([]byte("BAD!")); err == nil {
		t.Error("loading garbage succeeded")
	}
}

func TestParamCount(t *testing.T) {
	rng := stats.NewRNG(16)
	n := NewDNN(10, []int{5}, 2, rng)
	// dense(10->5): 55; dense(5->2): 12.
	if got := n.ParamCount(); got != 67 {
		t.Errorf("ParamCount = %d, want 67", got)
	}
}

func TestDeepMindCNNShapes(t *testing.T) {
	rng := stats.NewRNG(17)
	n := NewDeepMindCNN(4, 32, 32, 5, rng)
	in := tensor.New(4, 32, 32)
	out := n.Forward(in)
	if out.Size() != 5 {
		t.Fatalf("CNN output size = %d, want 5", out.Size())
	}
	// The raw model must be larger than the equivalent internal-state
	// model — the Table 2 "Raw/All model size" relationship.
	small := NewDNN(20, []int{256, 64}, 5, rng)
	if n.SizeBytes() <= small.SizeBytes() {
		t.Errorf("CNN size %d not larger than DNN size %d", n.SizeBytes(), small.SizeBytes())
	}
}

func TestNetworkString(t *testing.T) {
	rng := stats.NewRNG(18)
	n := NewDNN(2, []int{3}, 1, rng)
	want := "dense(2->3) -> relu -> dense(3->1)"
	if got := n.String(); got != want {
		t.Errorf("String = %q, want %q", got, want)
	}
}

func TestTrainStepWithoutOptimizerPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("TrainStep without optimizer did not panic")
		}
	}()
	n := NewDNN(1, nil, 1, stats.NewRNG(19))
	n.TrainStep(tensor.New(1), tensor.New(1))
}

func TestDensePanics(t *testing.T) {
	rng := stats.NewRNG(20)
	for name, f := range map[string]func(){
		"bad dims":        func() { NewDense(0, 1, rng) },
		"wrong input":     func() { NewDense(2, 1, rng).Forward(tensor.New(3)) },
		"backward first":  func() { NewDense(2, 1, rng).Backward(tensor.New(1)) },
		"wrong grad size": func() { d := NewDense(2, 3, rng); d.Forward(tensor.New(2)); d.Backward(tensor.New(2)) },
	} {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			f()
		})
	}
}

func TestBatchTrainingReducesLoss(t *testing.T) {
	rng := stats.NewRNG(21)
	n := NewDNN(2, []int{6}, 1, rng)
	n.UseAdam(0.01)
	r := stats.NewRNG(22)
	makeBatch := func() ([]*tensor.Tensor, []*tensor.Tensor) {
		var ins, outs []*tensor.Tensor
		for i := 0; i < 16; i++ {
			x := []float64{r.Float64(), r.Float64()}
			y := x[0]*x[1] + 0.5
			ins = append(ins, tensor.FromSlice(x, 2))
			outs = append(outs, tensor.FromSlice([]float64{y}, 1))
		}
		return ins, outs
	}
	ins, outs := makeBatch()
	first := n.TrainBatch(ins, outs)
	for i := 0; i < 300; i++ {
		bi, bo := makeBatch()
		n.TrainBatch(bi, bo)
	}
	bi, bo := makeBatch()
	last := n.TrainBatch(bi, bo)
	if last >= first/2 {
		t.Errorf("batch training did not reduce loss: first %v, last %v", first, last)
	}
	if got := n.TrainBatch(nil, nil); got != 0 {
		t.Errorf("empty batch loss = %v, want 0", got)
	}
}

// TestLayerNamesAndZeroGrads sweeps every layer kind's trivial
// interface methods: Name must be non-empty and stable, ZeroGrads must
// be callable (a no-op for parameterless layers).
func TestLayerNamesAndZeroGrads(t *testing.T) {
	rng := stats.NewRNG(60)
	layers := []Layer{
		NewDense(2, 3, rng),
		NewReLU(),
		NewSigmoid(),
		NewTanh(),
		NewFlatten(),
		NewSoftmax(),
		NewConv2D(1, 2, 3, 3, 1, 1, rng),
		NewMaxPool2D(2),
		NewLeakyReLU(0.1),
		NewDropout(0.3, rng),
	}
	for _, l := range layers {
		if l.Name() == "" {
			t.Errorf("%T has empty Name", l)
		}
		l.ZeroGrads() // must not panic
		if len(l.Params()) != len(l.Grads()) {
			t.Errorf("%s: params/grads misaligned", l.Name())
		}
	}
	if got := NewNetwork(layers[0]).String(); got != "dense(2->3)" {
		t.Errorf("network String = %q", got)
	}
}

// TestActivationBackwardBeforeForwardPanics sweeps the stateful
// activations' misuse guard.
func TestActivationBackwardBeforeForwardPanics(t *testing.T) {
	rng := stats.NewRNG(61)
	for _, l := range []Layer{NewReLU(), NewSigmoid(), NewTanh(), NewFlatten(), NewLeakyReLU(0.1),
		NewMaxPool2D(2), NewConv2D(1, 1, 2, 2, 1, 0, rng)} {
		l := l
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: Backward before Forward did not panic", l.Name())
				}
			}()
			l.Backward(tensor.New(4))
		}()
	}
}

func TestMaxPoolPanics(t *testing.T) {
	for name, f := range map[string]func(){
		"zero size":    func() { NewMaxPool2D(0) },
		"bad rank":     func() { NewMaxPool2D(2).Forward(tensor.New(4, 4)) },
		"window large": func() { NewMaxPool2D(9).Forward(tensor.New(1, 4, 4)) },
	} {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			f()
		})
	}
}

func TestConvPanics(t *testing.T) {
	rng := stats.NewRNG(62)
	for name, f := range map[string]func(){
		"bad params": func() { NewConv2D(0, 1, 3, 3, 1, 0, rng) },
		"bad input":  func() { NewConv2D(1, 1, 3, 3, 1, 0, rng).Forward(tensor.New(2, 4, 4)) },
	} {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			f()
		})
	}
}
