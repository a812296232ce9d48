package main

import (
	"time"

	"github.com/autonomizer/autonomizer/internal/core"
	"github.com/autonomizer/autonomizer/internal/nn"
	"github.com/autonomizer/autonomizer/internal/stats"
	"github.com/autonomizer/autonomizer/internal/tensor"
)

// probeResult is the traced run's per-op view of the served model: its
// trained weights run on recorded deployed states through nn's public
// API, timed per layer kind, with flops and bytes computed from shapes.
type probeResult struct {
	forwardUS, planUS, compileUS float64
	gemmUS, mapUS                float64 // dense+conv, and every other op, forward
	gemmBwdUS, mapBwdUS          float64
	flops, bytes                 float64 // one forward pass
	checks, mismatches           int
}

// loadNetwork rebuilds a game's trained network: a Test-mode runtime
// loads the image and materializes the network through a spec Builder
// that builds the same architecture core would and keeps the first
// network built, the one the weights load into.
func loadNetwork(spec core.ModelSpec, img []byte) (*nn.Network, *core.Runtime, error) {
	var net *nn.Network
	spec.Builder = func(in, out int, rng *stats.RNG) *nn.Network {
		var built *nn.Network
		if spec.Type == core.CNN {
			s := spec.InputShape
			built = nn.NewDeepMindCNN(s[0], s[1], s[2], out, rng)
		} else {
			built = nn.NewDNN(in, spec.Hidden, out, rng)
		}
		if net == nil { // the online network; a QLearn model builds its target next
			net = built
		}
		return built
	}
	rt := core.NewRuntime(core.Test, 0)
	rt.LoadModel(spec.Name, img)
	if err := rt.Config(spec); err != nil {
		return nil, nil, err
	}
	return net, rt, nil
}

// probe times the served model's network over the states, reps times
// each. Every plan and network output is checked bit for bit against
// the embedded Runtime.Predict.
func probe(spec core.ModelSpec, img []byte, states [][]float64, reps int) (probeResult, error) {
	var pr probeResult
	net, rt, err := loadNetwork(spec, img)
	if err != nil {
		return pr, err
	}
	shape := spec.InputShape
	t0 := time.Now()
	var plan *nn.Plan
	for r := 0; r < reps; r++ {
		if plan, err = nn.Compile(net, shape...); err != nil {
			return pr, err
		}
	}
	pr.compileUS = us(time.Since(t0)) / float64(reps)
	inst := plan.NewInstance()
	n := float64(reps * len(states))

	dst := make([]float64, plan.OutSize())
	t0 = time.Now()
	for r := 0; r < reps; r++ {
		for _, s := range states {
			inst.PredictInto(dst, s)
		}
	}
	pr.planUS = us(time.Since(t0)) / n

	t0 = time.Now()
	for r := 0; r < reps; r++ {
		for _, s := range states {
			net.PredictInto(dst, s, shape...)
		}
	}
	pr.forwardUS = us(time.Since(t0)) / n

	for _, s := range states {
		want, err := rt.Predict(spec.Name, s)
		if err != nil {
			return pr, err
		}
		pr.checks += 2
		if !sameBits(inst.Predict(s), want) {
			pr.mismatches++
		}
		if !sameBits(net.Predict(s, shape...), want) {
			pr.mismatches++
		}
	}

	layers := net.Layers()
	in := make([]float64, plan.InSize())
	for r := 0; r < reps; r++ {
		for _, s := range states {
			copy(in, s)
			var x *tensor.Tensor
			if len(shape) > 0 {
				x = tensor.FromSlice(in, shape...)
			} else {
				x = tensor.FromSlice(in, len(in))
			}
			for _, l := range layers {
				t := time.Now()
				x = l.Forward(x)
				if isGEMM(l) {
					pr.gemmUS += us(time.Since(t))
				} else {
					pr.mapUS += us(time.Since(t))
				}
			}
			g := tensor.New(x.Shape()...)
			g.Fill(1)
			net.ZeroGrads()
			for i := len(layers) - 1; i >= 0; i-- {
				t := time.Now()
				g = layers[i].Backward(g)
				if isGEMM(layers[i]) {
					pr.gemmBwdUS += us(time.Since(t))
				} else {
					pr.mapBwdUS += us(time.Since(t))
				}
			}
		}
	}
	pr.gemmUS /= n
	pr.mapUS /= n
	pr.gemmBwdUS /= n
	pr.mapBwdUS /= n
	pr.flops, pr.bytes = forwardCost(layers, shape, plan.InSize())
	return pr, nil
}

// isGEMM reports whether a layer multiplies by weights (dense, conv).
func isGEMM(l nn.Layer) bool {
	switch l.(type) {
	case *nn.Dense, *nn.Conv2D:
		return true
	}
	return false
}

// forwardCost computes one forward pass's floating-point operations and
// bytes moved from the layer shapes: a dense or conv layer does two
// flops per multiply-add and reads its weights, bias and input and
// writes its output; any other layer does one flop per input element.
// Bytes count 8 per float64 touched, ignoring caches.
func forwardCost(layers []nn.Layer, shape []int, inSize int) (flops, bytes float64) {
	x := tensor.New(append([]int{}, shapeOr(shape, inSize)...)...)
	for _, l := range layers {
		in := float64(x.Size())
		x = l.Forward(x)
		out := float64(x.Size())
		switch l := l.(type) {
		case *nn.Dense:
			w := float64(l.InSize * l.OutSize)
			flops += 2 * w
			bytes += 8 * (w + float64(l.OutSize) + in + out)
		case *nn.Conv2D:
			w := float64(l.OutC * l.InC * l.KH * l.KW)
			flops += 2 * out * float64(l.InC*l.KH*l.KW)
			bytes += 8 * (w + float64(l.OutC) + in + out)
		default:
			flops += in
			bytes += 8 * (in + out)
		}
	}
	return flops, bytes
}

func shapeOr(shape []int, size int) []int {
	if len(shape) > 0 {
		return shape
	}
	return []int{size}
}

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
