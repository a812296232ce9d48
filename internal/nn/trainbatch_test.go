package nn

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"github.com/autonomizer/autonomizer/internal/stats"
	"github.com/autonomizer/autonomizer/internal/tensor"
)

// refDenseForward is the scalar Dense forward: out[o] = Dot(W[o,:], x) + b[o].
func refDenseForward(d *Dense, x []float64) []float64 {
	w, b := d.weights.Data(), d.bias.Data()
	out := make([]float64, d.OutSize)
	for o := range out {
		out[o] = tensor.Dot(w[o*d.InSize:(o+1)*d.InSize], x) + b[o]
	}
	return out
}

// refDenseBackward is the scalar Dense backward: gradB += g,
// gradW[o,:] += g[o]·x, and gradIn = Σ_o g[o]·W[o,:] in ascending o,
// skipping the g[o] == ±0 rows.
func refDenseBackward(d *Dense, x, g []float64) []float64 {
	gw, gb, w := d.gradW.Data(), d.gradB.Data(), d.weights.Data()
	for o, go_ := range g {
		gb[o] += go_
		row := gw[o*d.InSize : (o+1)*d.InSize]
		for i := range row {
			row[i] += go_ * x[i]
		}
	}
	gi := make([]float64, d.InSize)
	for o, go_ := range g {
		if go_ == 0 {
			continue
		}
		row := w[o*d.InSize : (o+1)*d.InSize]
		for i := range gi {
			gi[i] += go_ * row[i]
		}
	}
	return gi
}

// refTrainBatch is TrainBatch with every Dense layer and the Adam step
// run as plain per-example scalar loops; other layers run their own
// Forward/Backward in the same example order.
func refTrainBatch(n *Network, ins, targets []*tensor.Tensor) {
	n.ZeroGrads()
	inputs := make([][]float64, len(n.layers))
	for i, in := range ins {
		x := in
		for li, l := range n.layers {
			if d, ok := l.(*Dense); ok {
				inputs[li] = x.Data()
				x = tensor.FromSlice(refDenseForward(d, x.Data()), d.OutSize)
			} else {
				x = l.Forward(x)
			}
		}
		g := n.lossGrad(x, targets[i])
		for li := len(n.layers) - 1; li >= 0; li-- {
			if d, ok := n.layers[li].(*Dense); ok {
				g = tensor.FromSlice(refDenseBackward(d, inputs[li], g.Data()), d.InSize)
			} else {
				g = n.layers[li].Backward(g)
			}
		}
	}
	inv := 1 / float64(len(ins))
	for _, g := range n.Grads() {
		g.ScaleInPlace(inv)
	}
	ClipGradients(n.Grads(), 10)
	a := n.opt.(*Adam)
	a.t++
	c1 := 1 - math.Pow(a.Beta1, float64(a.t))
	c2 := 1 - math.Pow(a.Beta2, float64(a.t))
	for i, p := range a.params {
		g, m, v, pd := n.Grads()[i].Data(), a.m[i].Data(), a.v[i].Data(), p.Data()
		for j := range pd {
			m[j] = a.Beta1*m[j] + (1-a.Beta1)*g[j]
			v[j] = a.Beta2*v[j] + (1-a.Beta2)*g[j]*g[j]
			mhat := m[j] / c1
			vhat := v[j] / c2
			pd[j] -= a.LR * mhat / (math.Sqrt(vhat) + a.Eps)
		}
	}
}

// refForward runs the network with scalar Dense forwards over its
// current weights.
func refForward(n *Network, in *tensor.Tensor) []float64 {
	x := in
	for _, l := range n.layers {
		if d, ok := l.(*Dense); ok {
			x = tensor.FromSlice(refDenseForward(d, x.Data()), d.OutSize)
		} else {
			x = l.Forward(x)
		}
	}
	return append([]float64(nil), x.Data()...)
}

// TestTrainBatchMatchesScalarReference: TrainBatch (packed gemv forward,
// row-AXPY backward, vector Adam) leaves weights and Adam moments
// bit-identical to the per-example scalar reference, batch after batch,
// on the 8→64→32→4 DNN, the 1×16×16 DeepMind CNN and a net with
// LeakyReLU and Dropout, at worker widths {1, 2, 8}. After each batch, a
// Forward outside TrainBatch must read the stepped weights, not the
// batch's pack.
func TestTrainBatchMatchesScalarReference(t *testing.T) {
	cases := []struct {
		name  string
		build func(rng *stats.RNG) *Network
		shape []int
		out   int
	}{
		{"DNN", func(rng *stats.RNG) *Network { return NewDNN(8, []int{64, 32}, 4, rng) }, []int{8}, 4},
		{"CNN", func(rng *stats.RNG) *Network { return NewDeepMindCNN(1, 16, 16, 4, rng) }, []int{1, 16, 16}, 4},
		{"LeakyDropout", func(rng *stats.RNG) *Network {
			return NewNetwork(
				NewDense(6, 20, rng.Split()), NewLeakyReLU(0.1),
				NewDropout(0.25, rng.Split()),
				NewDense(20, 17, rng.Split()), NewLeakyReLU(0.01),
				NewDense(17, 3, rng.Split()),
			)
		}, []int{6}, 3},
	}
	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)
	for _, tc := range cases {
		ins, targets := makeDataset(24, tc.out, tc.shape...)
		for _, w := range []int{1, 2, 8} {
			runtime.GOMAXPROCS(w)
			label := fmt.Sprintf("%s workers=%d", tc.name, w)
			got, want := tc.build(stats.NewRNG(42)), tc.build(stats.NewRNG(42))
			got.UseAdam(1e-2)
			want.UseAdam(1e-2)
			for start := 0; start < len(ins); start += 8 {
				got.TrainBatch(ins[start:start+8], targets[start:start+8])
				refTrainBatch(want, ins[start:start+8], targets[start:start+8])
				for i, p := range want.Params() {
					bitsEqual(t, label+" weights", got.Params()[i].Data(), p.Data())
				}
				ga, wa := got.opt.(*Adam), want.opt.(*Adam)
				for i := range wa.m {
					bitsEqual(t, label+" adam m", ga.m[i].Data(), wa.m[i].Data())
					bitsEqual(t, label+" adam v", ga.v[i].Data(), wa.v[i].Data())
				}
				// Dropout draws masks in training mode only; freeze it so
				// both forwards below see the same network.
				setDropoutTraining(got, false)
				bitsEqual(t, label+" forward after TrainBatch",
					got.Forward(ins[0]).Data(), refForward(got, ins[0]))
				setDropoutTraining(got, true)
			}
		}
	}
}

func setDropoutTraining(n *Network, on bool) {
	for _, l := range n.layers {
		if d, ok := l.(*Dropout); ok {
			d.SetTraining(on)
		}
	}
}
