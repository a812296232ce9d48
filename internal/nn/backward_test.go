package nn

import (
	"math"
	"testing"

	"github.com/autonomizer/autonomizer/internal/stats"
	"github.com/autonomizer/autonomizer/internal/tensor"
)

// TestLayerBackwardReturnsInputGradient: Network.Backward skips the
// first layer's dL/din, but Dense and Conv2D called directly must still
// return it, and leave the same parameter gradients as the params-only
// pass.
func TestLayerBackwardReturnsInputGradient(t *testing.T) {
	rng := stats.NewRNG(5)
	fill := func(n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = rng.NormFloat64()
		}
		return s
	}

	d, dp := NewDense(7, 5, stats.NewRNG(9)), NewDense(7, 5, stats.NewRNG(9))
	x, g := tensor.FromSlice(fill(7), 7), tensor.FromSlice(fill(5), 5)
	d.Forward(x)
	got := d.Backward(g)
	ref := NewDense(7, 5, stats.NewRNG(9))
	want := refDenseBackward(ref, x.Data(), g.Data())
	bitsEqual(t, "Dense dL/din", got.Data(), want)
	dp.Forward(x)
	dp.backwardParams(g)
	bitsEqual(t, "Dense gradW", dp.gradW.Data(), d.gradW.Data())
	bitsEqual(t, "Dense gradB", dp.gradB.Data(), d.gradB.Data())

	c, cp := NewConv2D(2, 3, 3, 3, 2, 1, stats.NewRNG(11)), NewConv2D(2, 3, 3, 3, 2, 1, stats.NewRNG(11))
	in := tensor.FromSlice(fill(2*7*6), 2, 7, 6)
	out := c.Forward(in)
	gout := tensor.FromSlice(fill(out.Size()), out.Shape()...)
	gotIn := c.Backward(gout)
	if s := gotIn.Shape(); len(s) != 3 || s[0] != 2 || s[1] != 7 || s[2] != 6 {
		t.Fatalf("Conv2D dL/din shape %v, want [2 7 6]", s)
	}
	geom := tensor.NewConvGeom(2, 7, 6, 3, 3, 2, 1, 3)
	wantIn := make([]float64, in.Size())
	tensor.NewConvKernel(geom).Backward(make([]float64, 3*geom.K()), wantIn,
		in.Data(), c.weights.Data(), gout.Data())
	bitsEqual(t, "Conv2D dL/din", gotIn.Data(), wantIn)
	cp.Forward(in)
	cp.backwardParams(gout)
	bitsEqual(t, "Conv2D gradW", cp.gradW.Data(), c.gradW.Data())
	bitsEqual(t, "Conv2D gradB", cp.gradB.Data(), c.gradB.Data())
}

// TestReLUMatchesBranchyReference: the masked ReLU must reproduce the
// per-element branch it replaced bit for bit, on signed zeros, NaNs of
// either sign with payloads, infinities, subnormals and normals, in both
// directions. A NaN gradient behind a positive input keeps its payload.
func TestReLUMatchesBranchyReference(t *testing.T) {
	specials := []float64{
		0, math.Copysign(0, -1), 1.5, -1.5,
		math.Inf(1), math.Inf(-1),
		math.Float64frombits(0x7ff8000000000123), // NaN, payload
		math.Float64frombits(0xfff0000000000042), // negative NaN, payload
		math.Float64frombits(0x7ff0000000000001), // smallest-payload NaN
		math.Float64frombits(1),                  // smallest subnormal
		-math.Float64frombits(1),                 // negative subnormal
		math.Float64frombits(0x000fffffffffffff), // largest subnormal
		math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64,
	}
	n := len(specials)
	in := make([]float64, n*n)
	grad := make([]float64, n*n)
	for i := range in {
		in[i], grad[i] = specials[i/n], specials[i%n]
	}
	wantOut := make([]float64, len(in))
	wantGrad := make([]float64, len(in))
	for i, x := range in {
		if x > 0 {
			wantOut[i], wantGrad[i] = x, grad[i]
		} else {
			wantOut[i], wantGrad[i] = 0, 0
		}
	}
	r := NewReLU()
	bitsEqual(t, "ReLU forward", r.Forward(tensor.FromSlice(in, len(in))).Data(), wantOut)
	bitsEqual(t, "ReLU backward", r.Backward(tensor.FromSlice(grad, len(grad))).Data(), wantGrad)
}
