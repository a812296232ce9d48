package nn

import "github.com/autonomizer/autonomizer/internal/tensor"

// Replicable marks a layer that can produce worker replicas for
// data-parallel training. A replica shares the original's parameter
// tensors (forward/backward only read them) but owns private gradient
// accumulators and forward-pass caches, so replicas of one network may
// run Forward/Backward concurrently as long as no optimizer step mutates
// the shared parameters at the same time.
//
// A layer that cannot be replicated safely (e.g. Dropout, whose RNG draw
// order is inherently sequential) simply does not implement the
// interface; networks containing one fall back to sequential training.
type Replicable interface {
	// Replicate returns a worker replica: shared parameters, private
	// gradients and caches.
	Replicate() Layer
}

// Replicate implements Replicable: the replica shares weights/bias and
// owns fresh gradient tensors and caches.
func (d *Dense) Replicate() Layer {
	return &Dense{
		InSize: d.InSize, OutSize: d.OutSize,
		weights: d.weights, bias: d.bias,
		gradW: tensor.New(d.OutSize, d.InSize),
		gradB: tensor.New(d.OutSize),
	}
}

// Replicate implements Replicable: shared kernel/bias, private gradients,
// saved input and implicit-GEMM kernel state.
func (c *Conv2D) Replicate() Layer {
	return &Conv2D{
		InC: c.InC, OutC: c.OutC, KH: c.KH, KW: c.KW,
		Stride: c.Stride, Pad: c.Pad,
		weights: c.weights, bias: c.bias,
		gradW: tensor.New(c.OutC, c.InC*c.KH*c.KW),
		gradB: tensor.New(c.OutC),
	}
}

// Replicate implements Replicable (pooling state is per-replica).
func (m *MaxPool2D) Replicate() Layer { return &MaxPool2D{Size: m.Size} }

// Replicate implements Replicable (the mask cache is per-replica).
func (r *ReLU) Replicate() Layer { return &ReLU{} }

// Replicate implements Replicable.
func (s *Sigmoid) Replicate() Layer { return &Sigmoid{} }

// Replicate implements Replicable.
func (t *Tanh) Replicate() Layer { return &Tanh{} }

// Replicate implements Replicable.
func (f *Flatten) Replicate() Layer { return &Flatten{} }

// Replicate implements Replicable (softmax is stateless).
func (s *Softmax) Replicate() Layer { return &Softmax{} }

// Replicate implements Replicable.
func (l *LeakyReLU) Replicate() Layer { return &LeakyReLU{Alpha: l.Alpha} }

// replica returns a worker replica of the whole network — every layer
// replicated per Replicable, the loss shared (losses are stateless
// values), no optimizer — or (nil, false) if any layer does not support
// replication. The replica is suitable for concurrent Forward/Backward
// while parameters are quiescent; its accumulated gradients are read via
// Grads as usual.
func (n *Network) replica() (*Network, bool) {
	layers := make([]Layer, len(n.layers))
	for i, l := range n.layers {
		r, ok := l.(Replicable)
		if !ok {
			return nil, false
		}
		layers[i] = r.Replicate()
	}
	return &Network{layers: layers, loss: n.loss}, true
}
