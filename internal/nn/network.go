package nn

import (
	"github.com/autonomizer/autonomizer/internal/auerr"
	"github.com/autonomizer/autonomizer/internal/stats"
	"github.com/autonomizer/autonomizer/internal/tensor"
)

// Network is an ordered stack of layers trained with a loss and an
// optimizer. It corresponds to one named model instance θ(modelName) in
// the paper's semantics: au_config builds one, au_NN runs (and in
// training mode updates) it.
type Network struct {
	layers []Layer
	loss   Loss
	opt    Optimizer

	// Cached views and scratch (DESIGN.md §5e): the parameter/gradient
	// lists are fixed at construction and built once; gradScratch holds the
	// loss gradient; inScratch holds the copied-in Predict input.
	params, grads []*tensor.Tensor
	paramsBuilt   bool
	gradScratch   *tensor.Tensor
	inScratch     *tensor.Tensor
}

// NewNetwork assembles a network from layers. Attach a loss/optimizer
// with SetLoss/SetOptimizer (or use the Train* helpers' requirements).
func NewNetwork(layers ...Layer) *Network {
	return &Network{layers: layers, loss: MSE{}}
}

// SetLoss selects the training loss (default MSE).
func (n *Network) SetLoss(l Loss) { n.loss = l }

// SetOptimizer binds an optimizer; convenience constructors below build
// one over the network's own parameters.
func (n *Network) SetOptimizer(o Optimizer) { n.opt = o }

// UseAdam binds a fresh Adam optimizer with the given learning rate.
func (n *Network) UseAdam(lr float64) { n.opt = NewAdam(n.Params(), lr) }

// UseSGD binds a fresh SGD optimizer.
func (n *Network) UseSGD(lr, momentum float64) { n.opt = NewSGD(n.Params(), lr, momentum) }

// Layers returns the layer stack (do not mutate).
func (n *Network) Layers() []Layer { return n.layers }

// Params returns every trainable parameter tensor in layer order. The
// layer stack is fixed at construction, so the list is built once and the
// same slice is returned thereafter; callers must not mutate it. Only
// nn's own writers (the optimizer step, unmarshalParams) may write the
// values, because each marks the Dense packs stale after it writes.
func (n *Network) Params() []*tensor.Tensor {
	n.buildParamLists()
	return n.params
}

// Grads returns every gradient tensor aligned with Params. Like Params,
// the returned slice is cached; callers must not mutate it.
func (n *Network) Grads() []*tensor.Tensor {
	n.buildParamLists()
	return n.grads
}

func (n *Network) buildParamLists() {
	if n.paramsBuilt {
		return
	}
	for _, l := range n.layers {
		n.params = append(n.params, l.Params()...)
		n.grads = append(n.grads, l.Grads()...)
	}
	n.paramsBuilt = true
}

// ZeroGrads clears all accumulated gradients.
func (n *Network) ZeroGrads() {
	for _, l := range n.layers {
		l.ZeroGrads()
	}
}

// ParamCount returns the total number of scalar parameters; the basis of
// Table 2's model-size column (8 bytes per float64 plus header, see
// SizeBytes).
func (n *Network) ParamCount() int {
	c := 0
	for _, l := range n.layers {
		c += ParamCount(l)
	}
	return c
}

// Forward runs the input through every layer.
func (n *Network) Forward(in *tensor.Tensor) *tensor.Tensor {
	out := in
	for _, l := range n.layers {
		out = l.Forward(out)
	}
	return out
}

// Predict is Forward over a plain []float64 vector, reshaped to shape if
// given (needed for CNN inputs). It returns a fresh slice.
func (n *Network) Predict(in []float64, shape ...int) []float64 {
	return n.PredictInto(nil, in, shape...)
}

// PredictInto is the destination-passing Predict: the output is written
// into dst when it has the right length, otherwise a fresh slice is
// allocated; either way the filled slice is returned. The input is copied
// into network-owned scratch, so neither in nor dst is aliased by any
// layer cache and the steady state (correctly sized dst) allocates
// nothing.
func (n *Network) PredictInto(dst, in []float64, shape ...int) []float64 {
	if len(shape) > 0 {
		n.inScratch = tensor.Reuse(n.inScratch, shape...)
	} else {
		n.inScratch = tensor.Reuse(n.inScratch, len(in))
	}
	if n.inScratch.Size() != len(in) {
		auerr.Failf("nn: Predict shape %v needs %d elements, got %d", shape, n.inScratch.Size(), len(in))
	}
	copy(n.inScratch.Data(), in)
	out := n.Forward(n.inScratch)
	if len(dst) != out.Size() {
		dst = make([]float64, out.Size())
	}
	copy(dst, out.Data())
	return dst
}

// paramBackwarder is a layer that can accumulate its parameter
// gradients without forming dL/dinput. Dense and Conv2D implement it.
type paramBackwarder interface {
	backwardParams(gradOut *tensor.Tensor)
}

// Backward pushes a loss gradient through the stack, accumulating
// parameter gradients. Nothing reads the first layer's dL/dinput, so a
// first layer that can skip it (paramBackwarder) does; any other runs
// its full Backward.
func (n *Network) Backward(gradOut *tensor.Tensor) {
	if len(n.layers) == 0 {
		return
	}
	g := gradOut
	for i := len(n.layers) - 1; i > 0; i-- {
		g = n.layers[i].Backward(g)
	}
	if pb, ok := n.layers[0].(paramBackwarder); ok {
		pb.backwardParams(g)
		return
	}
	n.layers[0].Backward(g)
}

// TrainStep performs forward, loss, backward and one optimizer step on a
// single example, returning the loss. The optimizer must be bound.
func (n *Network) TrainStep(in, target *tensor.Tensor) float64 {
	if n.opt == nil {
		auerr.Failf("nn: TrainStep without an optimizer; call UseAdam/UseSGD first")
	}
	n.ZeroGrads()
	pred := n.Forward(in)
	lv := n.loss.Loss(pred, target)
	n.Backward(n.lossGrad(pred, target))
	n.opt.Step(n.Grads())
	n.weightsWritten()
	return lv
}

// lossGrad computes the loss gradient into network-owned scratch, so the
// steady-state training path allocates nothing here.
func (n *Network) lossGrad(pred, target *tensor.Tensor) *tensor.Tensor {
	n.gradScratch = tensor.Reuse(n.gradScratch, pred.Shape()...)
	return n.loss.GradInto(n.gradScratch, pred, target)
}

// TrainBatch accumulates gradients over a mini-batch before one optimizer
// step, returning the mean loss. Inputs and targets must align.
//
// The examples run one after another in example order: forward, loss and
// backward accumulate into the network's gradients, which are then
// averaged, clipped and stepped once. Nothing here reads the worker
// width, so the updated weights are bit-identical at any width. The
// weights stay fixed until the step, so every Dense layer's forwards
// read one pack; the step marks it stale and the next Forward repacks.
func (n *Network) TrainBatch(ins, targets []*tensor.Tensor) float64 {
	if len(ins) != len(targets) {
		auerr.Failf("nn: TrainBatch input/target count mismatch")
	}
	if len(ins) == 0 {
		return 0
	}
	if n.opt == nil {
		auerr.Failf("nn: TrainBatch without an optimizer; call UseAdam/UseSGD first")
	}
	n.ZeroGrads()
	total := 0.0
	for i, in := range ins {
		pred := n.Forward(in)
		total += n.loss.Loss(pred, targets[i])
		n.Backward(n.lossGrad(pred, targets[i]))
	}
	// Average the accumulated gradients over the batch.
	inv := 1 / float64(len(ins))
	for _, g := range n.Grads() {
		g.ScaleInPlace(inv)
	}
	ClipGradients(n.Grads(), 10)
	n.opt.Step(n.Grads())
	n.weightsWritten()
	return total / float64(len(ins))
}

// weightsWritten marks every Dense layer's pack stale. Each write of the
// weights calls it: the optimizer step and the applying pass of
// unmarshalParams.
func (n *Network) weightsWritten() {
	for _, l := range n.layers {
		if d, ok := l.(*Dense); ok {
			d.stale = true
		}
	}
}

// String summarizes the architecture, e.g.
// "dense(4->256) -> relu -> dense(256->64) -> relu -> dense(64->5)".
func (n *Network) String() string {
	s := ""
	for i, l := range n.layers {
		if i > 0 {
			s += " -> "
		}
		s += l.Name()
	}
	return s
}

// NewDNN builds the paper's default fully connected model: input →
// hidden₁ → … → hiddenₖ → output with ReLU between stages. hidden may be
// empty for a linear model. This is what au_config(…, DNN, …, layers,
// n₁, …) constructs; the input and output sizes are, as in the paper,
// computed from the data fed to the network rather than annotated.
func NewDNN(inSize int, hidden []int, outSize int, rng *stats.RNG) *Network {
	var layers []Layer
	prev := inSize
	for _, h := range hidden {
		layers = append(layers, NewDense(prev, h, rng.Split()), NewReLU())
		prev = h
	}
	layers = append(layers, NewDense(prev, outSize, rng.Split()))
	return NewNetwork(layers...)
}

// NewDeepMindCNN builds the raw-pixel architecture the paper compares
// against (Section 2): stacked frames in, three convolution layers each
// followed by max pooling, then two hidden layers of 256 and 64 neurons.
// h and w are the (preprocessed) frame dimensions; frames is the history
// depth (4 in the paper); actions is the output size.
func NewDeepMindCNN(frames, h, w, actions int, rng *stats.RNG) *Network {
	h3, w3 := DeepMindFeatureMap(h, w)
	if h3 < 1 || w3 < 1 {
		auerr.Failf("nn: DeepMind CNN input %dx%d too small", h, w)
	}
	flat := 16 * h3 * w3
	return NewNetwork(
		NewConv2D(frames, 8, 5, 5, 2, 2, rng.Split()), NewReLU(), NewMaxPool2D(2),
		NewConv2D(8, 16, 3, 3, 1, 1, rng.Split()), NewReLU(), NewMaxPool2D(2),
		NewConv2D(16, 16, 3, 3, 1, 1, rng.Split()), NewReLU(), NewMaxPool2D(2),
		NewFlatten(),
		NewDense(flat, 256, rng.Split()), NewReLU(),
		NewDense(256, 64, rng.Split()), NewReLU(),
		NewDense(64, actions, rng.Split()),
	)
}

// DeepMindFeatureMap is the h×w plane that NewDeepMindCNN's three
// conv/pool stages leave of an h×w input; a side below 1 means the input
// is too small for the architecture.
func DeepMindFeatureMap(h, w int) (int, int) {
	for _, k := range [...][3]int{{5, 2, 2}, {3, 1, 1}, {3, 1, 1}} { // kernel, stride, pad
		h = tensor.ConvOutputSize(h, k[0], k[1], k[2]) / 2
		w = tensor.ConvOutputSize(w, k[0], k[1], k[2]) / 2
	}
	return h, w
}
