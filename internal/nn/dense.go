package nn

import (
	"fmt"
	"math"

	"github.com/autonomizer/autonomizer/internal/auerr"
	"github.com/autonomizer/autonomizer/internal/stats"
	"github.com/autonomizer/autonomizer/internal/tensor"
)

// Dense is a fully connected layer computing out = W·in + b, the building
// block of the paper's DNN model type (e.g. the two hidden layers with
// 256 and 64 neurons configured for the Mario subject).
type Dense struct {
	InSize, OutSize int

	weights *tensor.Tensor // (OutSize, InSize)
	bias    *tensor.Tensor // (OutSize)
	gradW   *tensor.Tensor
	gradB   *tensor.Tensor

	// Reused scratch (DESIGN.md §5e): lastIn is an allocation-free view
	// of the current input for the backward pass; out and gradIn are
	// layer-owned destinations recycled across calls, so the steady-state
	// forward/backward makes no heap allocations. Both are fully
	// overwritten each call; callers needing a result to survive the next
	// pass must Clone it.
	lastIn *tensor.Tensor
	out    *tensor.Tensor
	gradIn *tensor.Tensor

	// pack is the layer-owned lane-packed copy of weights and bias that
	// Forward reads while packed is set. Network.TrainBatch repacks it in
	// place at the start of every minibatch and clears packed before it
	// returns, so the pack is never read after the optimizer moves the
	// weights it copied.
	pack   *tensor.PackedDense
	packed bool
}

// NewDense constructs a fully connected layer with He-initialized weights
// drawn from rng, appropriate for the ReLU activations used throughout.
func NewDense(inSize, outSize int, rng *stats.RNG) *Dense {
	if inSize <= 0 || outSize <= 0 {
		auerr.Failf("nn: invalid Dense dimensions %dx%d", inSize, outSize)
	}
	d := &Dense{
		InSize:  inSize,
		OutSize: outSize,
		weights: tensor.New(outSize, inSize),
		bias:    tensor.New(outSize),
		gradW:   tensor.New(outSize, inSize),
		gradB:   tensor.New(outSize),
	}
	scale := math.Sqrt(2.0 / float64(inSize))
	for i := range d.weights.Data() {
		d.weights.Data()[i] = rng.NormFloat64() * scale
	}
	return d
}

// Forward computes W·in + b. The input must be a vector of length InSize
// (any shape with that many elements is accepted and flattened). Every
// output is Dot(row, in) + b[o]; inside a training minibatch the packed
// gemv computes the same fold over the minibatch's pack.
func (d *Dense) Forward(in *tensor.Tensor) *tensor.Tensor {
	if in.Size() != d.InSize {
		auerr.Failf("nn: Dense expects %d inputs, got %d", d.InSize, in.Size())
	}
	d.lastIn = tensor.ViewOf(d.lastIn, in.Data(), in.Size())
	d.out = tensor.Reuse(d.out, d.OutSize)
	out := d.out.Data()
	x := d.lastIn.Data()
	if d.packed {
		d.pack.Forward(out, x)
		return d.out
	}
	w := d.weights.Data()
	bd := d.bias.Data()
	for o := range out {
		out[o] = tensor.Dot(w[o*d.InSize:(o+1)*d.InSize], x) + bd[o]
	}
	return d.out
}

// packWeights snapshots the current weights into the layer's pack,
// reusing its buffers, and routes Forward through it until
// unpackWeights.
func (d *Dense) packWeights() {
	if d.pack == nil {
		d.pack = tensor.PackDense(d.weights, d.bias)
	} else {
		d.pack.Repack(d.weights, d.bias)
	}
	d.packed = true
}

// unpackWeights returns Forward to the unpacked weights.
func (d *Dense) unpackWeights() { d.packed = false }

// Backward accumulates dL/dW = gradOut ⊗ in and dL/db = gradOut, and
// returns dL/din = Wᵀ·gradOut. Both products are row AXPYs: gradW's row
// o gains gradOut[o]·in, and dL/din folds gradOut[o]·W[o,:] in
// ascending o, skipping the rows whose gradOut[o] is ±0.
func (d *Dense) Backward(gradOut *tensor.Tensor) *tensor.Tensor {
	d.backwardParams(gradOut)
	d.gradIn = tensor.Reuse(d.gradIn, d.InSize)
	d.gradIn.Fill(0)
	tensor.RowAXPY(d.gradIn.Data(), gradOut.Data(), d.weights.Data(), d.InSize, 0, d.InSize, true)
	return d.gradIn
}

// backwardParams is Backward without dL/din: it accumulates dL/dW and
// dL/db only (paramBackwarder).
func (d *Dense) backwardParams(gradOut *tensor.Tensor) {
	if gradOut.Size() != d.OutSize {
		auerr.Failf("nn: Dense backward expects %d grads, got %d", d.OutSize, gradOut.Size())
	}
	if d.lastIn == nil {
		auerr.Failf("nn: Dense Backward before Forward")
	}
	g := gradOut.Data()
	gb := d.gradB.Data()
	for o, v := range g {
		gb[o] += v
	}
	tensor.RowAXPY(d.gradW.Data(), g, d.lastIn.Data(), d.InSize, d.InSize, 0, false)
}

// Params returns the weight and bias tensors.
func (d *Dense) Params() []*tensor.Tensor { return []*tensor.Tensor{d.weights, d.bias} }

// Grads returns the accumulated gradient tensors.
func (d *Dense) Grads() []*tensor.Tensor { return []*tensor.Tensor{d.gradW, d.gradB} }

// ZeroGrads clears the accumulated gradients.
func (d *Dense) ZeroGrads() {
	d.gradW.Fill(0)
	d.gradB.Fill(0)
}

// Name implements Layer.
func (d *Dense) Name() string { return fmt.Sprintf("dense(%d->%d)", d.InSize, d.OutSize) }
