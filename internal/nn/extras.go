package nn

import (
	"fmt"

	"github.com/autonomizer/autonomizer/internal/auerr"
	"github.com/autonomizer/autonomizer/internal/stats"
	"github.com/autonomizer/autonomizer/internal/tensor"
)

// LeakyReLU is max(αx, x); a drop-in for ReLU when dying units are a
// concern on small training sets.
type LeakyReLU struct {
	// Alpha is the negative-side slope (0 selects 0.01).
	Alpha float64
	// in views the input of the last Forward, which Backward reads for
	// the signs (the caller must not mutate it in between); out and
	// gradBuf are layer-owned and recycled across calls.
	in      []float64
	out     *tensor.Tensor
	gradBuf *tensor.Tensor
}

// NewLeakyReLU returns a leaky ReLU with the given negative slope.
func NewLeakyReLU(alpha float64) *LeakyReLU {
	if alpha == 0 {
		alpha = 0.01
	}
	return &LeakyReLU{Alpha: alpha}
}

// leakyReLUInto is the leaky ReLU kernel: alpha·x where x < 0, x
// elsewhere (NaN included).
func leakyReLUInto(dst, src []float64, alpha float64) {
	dst = dst[:len(src)]
	for i, x := range src {
		if x < 0 {
			dst[i] = alpha * x
		} else {
			dst[i] = x
		}
	}
}

// Forward applies the activation elementwise.
func (l *LeakyReLU) Forward(in *tensor.Tensor) *tensor.Tensor {
	l.in = in.Data()
	l.out = tensor.Reuse(l.out, in.Shape()...)
	leakyReLUInto(l.out.Data(), l.in, l.Alpha)
	return l.out
}

// Backward scales the gradient by 1 or Alpha depending on the input
// sign.
func (l *LeakyReLU) Backward(gradOut *tensor.Tensor) *tensor.Tensor {
	if len(l.in) != gradOut.Size() {
		auerr.Failf("nn: LeakyReLU Backward shape mismatch or called before Forward")
	}
	l.gradBuf = tensor.Reuse(l.gradBuf, gradOut.Shape()...)
	in := l.in
	od := l.gradBuf.Data()[:len(in)]
	for i, g := range gradOut.Data()[:len(in)] {
		if in[i] < 0 {
			g *= l.Alpha
		}
		od[i] = g
	}
	return l.gradBuf
}

// Params implements Layer.
func (l *LeakyReLU) Params() []*tensor.Tensor { return nil }

// Grads implements Layer.
func (l *LeakyReLU) Grads() []*tensor.Tensor { return nil }

// ZeroGrads implements Layer.
func (l *LeakyReLU) ZeroGrads() {}

// Name implements Layer.
func (l *LeakyReLU) Name() string { return fmt.Sprintf("leakyrelu(%g)", l.Alpha) }

// Dropout randomly zeroes activations during training (inverted
// dropout: survivors are scaled by 1/keep so inference needs no
// correction). Call SetTraining(false) for deployment.
type Dropout struct {
	// Rate is the drop probability in [0, 1).
	Rate     float64
	rng      *stats.RNG
	training bool
	// mask holds each unit's factor (0 or 1/keep) from the last
	// training Forward and is empty after an identity Forward; it, out
	// and gradBuf are layer-owned and recycled across calls.
	mask    []float64
	out     *tensor.Tensor
	gradBuf *tensor.Tensor
}

// NewDropout constructs a dropout layer in training mode.
func NewDropout(rate float64, rng *stats.RNG) *Dropout {
	if rate < 0 || rate >= 1 {
		auerr.Failf("nn: dropout rate %v out of [0, 1)", rate)
	}
	return &Dropout{Rate: rate, rng: rng, training: true}
}

// SetTraining toggles between training (dropping) and inference
// (identity) behaviour.
func (d *Dropout) SetTraining(t bool) { d.training = t }

// Forward drops units in training mode, drawing one uniform per unit in
// order, and is the identity otherwise.
func (d *Dropout) Forward(in *tensor.Tensor) *tensor.Tensor {
	if !d.training || d.Rate == 0 {
		d.mask = d.mask[:0]
		return in
	}
	if cap(d.mask) < in.Size() {
		d.mask = make([]float64, in.Size())
	}
	d.mask = d.mask[:in.Size()]
	d.out = tensor.Reuse(d.out, in.Shape()...)
	od := d.out.Data()
	scale := 1 / (1 - d.Rate)
	for i, x := range in.Data() {
		if d.rng.Float64() < d.Rate {
			d.mask[i] = 0
			od[i] = 0
		} else {
			d.mask[i] = scale
			od[i] = x * scale
		}
	}
	return d.out
}

// Backward routes gradients through the surviving units.
func (d *Dropout) Backward(gradOut *tensor.Tensor) *tensor.Tensor {
	if len(d.mask) == 0 {
		return gradOut
	}
	if len(d.mask) != gradOut.Size() {
		auerr.Failf("nn: Dropout Backward shape mismatch")
	}
	d.gradBuf = tensor.Reuse(d.gradBuf, gradOut.Shape()...)
	od := d.gradBuf.Data()
	for i, g := range gradOut.Data() {
		od[i] = g * d.mask[i]
	}
	return d.gradBuf
}

// Params implements Layer.
func (d *Dropout) Params() []*tensor.Tensor { return nil }

// Grads implements Layer.
func (d *Dropout) Grads() []*tensor.Tensor { return nil }

// ZeroGrads implements Layer.
func (d *Dropout) ZeroGrads() {}

// Name implements Layer.
func (d *Dropout) Name() string { return fmt.Sprintf("dropout(%g)", d.Rate) }
