package nn

import (
	"math"

	"github.com/autonomizer/autonomizer/internal/auerr"
	"github.com/autonomizer/autonomizer/internal/obs"

	"github.com/autonomizer/autonomizer/internal/tensor"
)

// stepCounter resolves the optimizer-step counter at construction time
// (optimizers are built once per model, off the hot path); with
// telemetry disabled it returns nil and Step pays one branch.
func stepCounter(optimizer string) *obs.Counter {
	return obs.Default().Counter("autonomizer_nn_optimizer_steps_total",
		"Parameter updates applied, per optimizer kind.",
		obs.Labels{"optimizer": optimizer})
}

// Optimizer updates a set of parameter tensors in place using their
// accumulated gradients. Implementations are bound to a specific
// parameter list at construction so per-parameter state (e.g. Adam
// moments) stays aligned.
type Optimizer interface {
	// Step applies one update using the given gradients (aligned 1:1
	// with the parameters captured at construction) and clears nothing:
	// callers zero gradients themselves.
	Step(grads []*tensor.Tensor)
	// Name identifies the optimizer ("adam", "sgd").
	Name() string
}

// SGD is plain stochastic gradient descent with optional momentum.
type SGD struct {
	LR       float64
	Momentum float64
	params   []*tensor.Tensor
	velocity []*tensor.Tensor
	steps    *obs.Counter
}

// NewSGD constructs an SGD optimizer over params.
func NewSGD(params []*tensor.Tensor, lr, momentum float64) *SGD {
	s := &SGD{LR: lr, Momentum: momentum, params: params, steps: stepCounter("sgd")}
	if momentum != 0 {
		s.velocity = make([]*tensor.Tensor, len(params))
		for i, p := range params {
			s.velocity[i] = tensor.New(p.Shape()...)
		}
	}
	return s
}

// Step applies p -= lr*(g + momentum-velocity).
func (s *SGD) Step(grads []*tensor.Tensor) {
	if len(grads) != len(s.params) {
		auerr.Failf("nn: SGD gradient count mismatch")
	}
	s.steps.Inc()
	for i, p := range s.params {
		g := grads[i]
		if s.velocity != nil {
			v := s.velocity[i]
			for j := range v.Data() {
				v.Data()[j] = s.Momentum*v.Data()[j] + g.Data()[j]
			}
			g = v
		}
		for j := range p.Data() {
			p.Data()[j] -= s.LR * g.Data()[j]
		}
	}
}

// Name implements Optimizer.
func (s *SGD) Name() string { return "sgd" }

// Adam implements Kingma & Ba's Adam optimizer — the paper's named
// algorithm for supervised-learning autonomization ("AdamOpt").
type Adam struct {
	LR, Beta1, Beta2, Eps float64

	params []*tensor.Tensor
	m, v   []*tensor.Tensor
	t      int
	steps  *obs.Counter
}

// NewAdam constructs an Adam optimizer with the canonical defaults
// (β₁=0.9, β₂=0.999, ε=1e-8) over params.
func NewAdam(params []*tensor.Tensor, lr float64) *Adam {
	a := &Adam{
		LR: lr, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8,
		params: params,
		m:      make([]*tensor.Tensor, len(params)),
		v:      make([]*tensor.Tensor, len(params)),
		steps:  stepCounter("adam"),
	}
	for i, p := range params {
		a.m[i] = tensor.New(p.Shape()...)
		a.v[i] = tensor.New(p.Shape()...)
	}
	return a
}

// Step applies one bias-corrected Adam update, elementwise through
// tensor.AdamStep (m = β₁m + (1−β₁)g, v = β₂v + (1−β₂)g², then
// p −= lr·m̂ / (√v̂ + ε) with m̂ = m/c₁ and v̂ = v/c₂).
func (a *Adam) Step(grads []*tensor.Tensor) {
	if len(grads) != len(a.params) {
		auerr.Failf("nn: Adam gradient count mismatch")
	}
	a.steps.Inc()
	a.t++
	c1 := 1 - math.Pow(a.Beta1, float64(a.t))
	c2 := 1 - math.Pow(a.Beta2, float64(a.t))
	for i, p := range a.params {
		tensor.AdamStep(p.Data(), grads[i].Data(), a.m[i].Data(), a.v[i].Data(),
			a.Beta1, a.Beta2, a.LR, c1, c2, a.Eps)
	}
}

// Name implements Optimizer.
func (a *Adam) Name() string { return "adam" }

// ClipGradients scales grads in place so their global L2 norm does not
// exceed maxNorm; a no-op when already within bounds. Used by the RL
// training loop to keep early bootstrapped targets from exploding.
func ClipGradients(grads []*tensor.Tensor, maxNorm float64) {
	if maxNorm <= 0 {
		return
	}
	total := 0.0
	for _, g := range grads {
		n := g.L2Norm()
		total += n * n
	}
	norm := math.Sqrt(total)
	if norm <= maxNorm {
		return
	}
	scale := maxNorm / norm
	for _, g := range grads {
		g.ScaleInPlace(scale)
	}
}
