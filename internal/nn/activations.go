package nn

import (
	"math"
	"math/bits"

	"github.com/autonomizer/autonomizer/internal/auerr"

	"github.com/autonomizer/autonomizer/internal/tensor"
)

// The activation layers own their output and gradient buffers and recycle
// them across calls (tensor.Reuse), so the steady-state forward/backward
// path allocates nothing. Returned tensors are valid until the next call
// on the same layer; callers needing longer lifetimes must Clone.
//
// Each activation's forward formula is written once, as a slice kernel
// below (leakyReLUInto in extras.go, maxPool and addBias in conv.go):
// the layer's Forward and the compiled plan's op (compile.go) both call
// it, so a plan computes exactly what the network computes. A kernel
// writes f(src[i]) into dst[i] and allows dst to be src.

// positiveMask returns all ones when the float64 with bits b is > 0 and
// zero otherwise, without a branch. x > 0 exactly when its bits lie in
// [1, +Inf's bits]: -0, negatives and NaNs fall outside. The borrow of
// (b-1) - +Inf's bits is 1 exactly then.
func positiveMask(b uint64) uint64 {
	_, borrow := bits.Sub64(b-1, 0x7ff0000000000000, 0)
	return -borrow
}

// relu is max(0, x): x where x > 0, +0 elsewhere (-0, NaN and -Inf
// included). It ANDs the mask into x's bits instead of branching on
// random signs.
func relu(x float64) float64 {
	b := math.Float64bits(x)
	return math.Float64frombits(b & positiveMask(b))
}

// reluInto is the ReLU kernel.
func reluInto(dst, src []float64) {
	dst = dst[:len(src)]
	for i, x := range src {
		dst[i] = relu(x)
	}
}

// sigmoidInto is the logistic kernel 1/(1+e^-x).
func sigmoidInto(dst, src []float64) {
	dst = dst[:len(src)]
	for i, x := range src {
		dst[i] = 1 / (1 + math.Exp(-x))
	}
}

// tanhInto is the tanh kernel.
func tanhInto(dst, src []float64) {
	dst = dst[:len(src)]
	for i, x := range src {
		dst[i] = math.Tanh(x)
	}
}

// softmaxInto is the numerically stable softmax kernel: e^(x-max), then
// one multiply by the reciprocal of their sum.
func softmaxInto(dst, src []float64) {
	dst = dst[:len(src)]
	max := math.Inf(-1)
	for _, x := range src {
		if x > max {
			max = x
		}
	}
	sum := 0.0
	for i, x := range src {
		e := math.Exp(x - max)
		dst[i] = e
		sum += e
	}
	if sum == 0 {
		auerr.Failf("nn: softmax sum underflowed to zero")
	}
	inv := 1 / sum
	for i := range dst {
		dst[i] *= inv
	}
}

// ReLU is the rectified-linear activation max(0, x).
type ReLU struct {
	// in views the input of the last Forward; Backward recomputes the
	// positive mask from it, so the caller must not mutate the input
	// between Forward and the matching Backward (DESIGN.md §5e).
	in      []float64
	out     *tensor.Tensor
	gradBuf *tensor.Tensor
}

// NewReLU returns a ReLU activation layer.
func NewReLU() *ReLU { return &ReLU{} }

// Forward applies relu elementwise.
func (r *ReLU) Forward(in *tensor.Tensor) *tensor.Tensor {
	r.in = in.Data()
	r.out = tensor.Reuse(r.out, in.Shape()...)
	reluInto(r.out.Data(), r.in)
	return r.out
}

// Backward passes the gradient where the input was positive and +0
// elsewhere.
func (r *ReLU) Backward(gradOut *tensor.Tensor) *tensor.Tensor {
	if len(r.in) != gradOut.Size() {
		auerr.Failf("nn: ReLU Backward shape mismatch or called before Forward")
	}
	r.gradBuf = tensor.Reuse(r.gradBuf, gradOut.Shape()...)
	in := r.in
	od := r.gradBuf.Data()[:len(in)]
	for i, g := range gradOut.Data()[:len(in)] {
		od[i] = math.Float64frombits(math.Float64bits(g) & positiveMask(math.Float64bits(in[i])))
	}
	return r.gradBuf
}

// Params implements Layer (ReLU has none).
func (r *ReLU) Params() []*tensor.Tensor { return nil }

// Grads implements Layer.
func (r *ReLU) Grads() []*tensor.Tensor { return nil }

// ZeroGrads implements Layer.
func (r *ReLU) ZeroGrads() {}

// Name implements Layer.
func (r *ReLU) Name() string { return "relu" }

// Sigmoid is the logistic activation 1/(1+e^-x), used for outputs
// constrained to (0,1) such as normalized parameter predictions.
type Sigmoid struct {
	lastOut *tensor.Tensor
	gradBuf *tensor.Tensor
}

// NewSigmoid returns a sigmoid activation layer.
func NewSigmoid() *Sigmoid { return &Sigmoid{} }

// Forward applies the logistic function elementwise.
func (s *Sigmoid) Forward(in *tensor.Tensor) *tensor.Tensor {
	s.lastOut = tensor.Reuse(s.lastOut, in.Shape()...)
	sigmoidInto(s.lastOut.Data(), in.Data())
	return s.lastOut
}

// Backward multiplies by the sigmoid derivative y(1-y).
func (s *Sigmoid) Backward(gradOut *tensor.Tensor) *tensor.Tensor {
	if s.lastOut == nil || s.lastOut.Size() != gradOut.Size() {
		auerr.Failf("nn: Sigmoid Backward shape mismatch or called before Forward")
	}
	s.gradBuf = tensor.Reuse(s.gradBuf, gradOut.Shape()...)
	out := s.gradBuf
	od := out.Data()
	y := s.lastOut.Data()
	for i, g := range gradOut.Data() {
		od[i] = g * y[i] * (1 - y[i])
	}
	return out
}

// Params implements Layer.
func (s *Sigmoid) Params() []*tensor.Tensor { return nil }

// Grads implements Layer.
func (s *Sigmoid) Grads() []*tensor.Tensor { return nil }

// ZeroGrads implements Layer.
func (s *Sigmoid) ZeroGrads() {}

// Name implements Layer.
func (s *Sigmoid) Name() string { return "sigmoid" }

// Tanh is the hyperbolic-tangent activation.
type Tanh struct {
	lastOut *tensor.Tensor
	gradBuf *tensor.Tensor
}

// NewTanh returns a tanh activation layer.
func NewTanh() *Tanh { return &Tanh{} }

// Forward applies tanh elementwise.
func (t *Tanh) Forward(in *tensor.Tensor) *tensor.Tensor {
	t.lastOut = tensor.Reuse(t.lastOut, in.Shape()...)
	tanhInto(t.lastOut.Data(), in.Data())
	return t.lastOut
}

// Backward multiplies by 1 - y².
func (t *Tanh) Backward(gradOut *tensor.Tensor) *tensor.Tensor {
	if t.lastOut == nil || t.lastOut.Size() != gradOut.Size() {
		auerr.Failf("nn: Tanh Backward shape mismatch or called before Forward")
	}
	t.gradBuf = tensor.Reuse(t.gradBuf, gradOut.Shape()...)
	out := t.gradBuf
	od := out.Data()
	y := t.lastOut.Data()
	for i, g := range gradOut.Data() {
		od[i] = g * (1 - y[i]*y[i])
	}
	return out
}

// Params implements Layer.
func (t *Tanh) Params() []*tensor.Tensor { return nil }

// Grads implements Layer.
func (t *Tanh) Grads() []*tensor.Tensor { return nil }

// ZeroGrads implements Layer.
func (t *Tanh) ZeroGrads() {}

// Name implements Layer.
func (t *Tanh) Name() string { return "tanh" }

// Flatten reshapes any input to a rank-1 vector; it sits between
// convolutional and dense stages in the CNN models.
type Flatten struct {
	lastShape []int
	fwdView   *tensor.Tensor
	bwdView   *tensor.Tensor
}

// NewFlatten returns a flattening layer.
func NewFlatten() *Flatten { return &Flatten{} }

// Forward flattens the input to a vector view.
func (f *Flatten) Forward(in *tensor.Tensor) *tensor.Tensor {
	f.lastShape = append(f.lastShape[:0], in.Shape()...)
	f.fwdView = tensor.ViewOf(f.fwdView, in.Data(), in.Size())
	return f.fwdView
}

// Backward restores the gradient to the pre-flatten shape.
func (f *Flatten) Backward(gradOut *tensor.Tensor) *tensor.Tensor {
	if f.lastShape == nil {
		auerr.Failf("nn: Flatten Backward before Forward")
	}
	f.bwdView = tensor.View(f.bwdView, gradOut, f.lastShape...)
	return f.bwdView
}

// Params implements Layer.
func (f *Flatten) Params() []*tensor.Tensor { return nil }

// Grads implements Layer.
func (f *Flatten) Grads() []*tensor.Tensor { return nil }

// ZeroGrads implements Layer.
func (f *Flatten) ZeroGrads() {}

// Name implements Layer.
func (f *Flatten) Name() string { return "flatten" }

// Softmax converts logits to a probability distribution. Its backward
// pass assumes it is paired with a cross-entropy loss whose gradient is
// already (p - onehot); in that arrangement Backward is the identity.
type Softmax struct {
	out *tensor.Tensor
}

// NewSoftmax returns a softmax output layer.
func NewSoftmax() *Softmax { return &Softmax{} }

// Forward computes the numerically stable softmax.
func (s *Softmax) Forward(in *tensor.Tensor) *tensor.Tensor {
	s.out = tensor.Reuse(s.out, in.Shape()...)
	softmaxInto(s.out.Data(), in.Data())
	return s.out
}

// Backward passes the gradient through unchanged; see the type comment.
func (s *Softmax) Backward(gradOut *tensor.Tensor) *tensor.Tensor { return gradOut }

// Params implements Layer.
func (s *Softmax) Params() []*tensor.Tensor { return nil }

// Grads implements Layer.
func (s *Softmax) Grads() []*tensor.Tensor { return nil }

// ZeroGrads implements Layer.
func (s *Softmax) ZeroGrads() {}

// Name implements Layer.
func (s *Softmax) Name() string { return "softmax" }
