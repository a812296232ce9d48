package tensor

import (
	"math"
	"sort"
	"strconv"
	"testing"
	"time"
)

// BenchmarkKernels is the kernel-gate suite behind BENCH_kernels.json and
// scripts/check_kernels.sh. Every pair runs at worker width 1, so the
// ratios isolate the kernels from sharding:
//
//   - MatMulNaive/MatMulBlocked at 64/192/512: the sequential reference
//     against packing both operands and one call to the dispatched GEBP
//     tile.
//   - ConvForward/ConvBackward, Im2Col vs Implicit, on the bench geometry
//     (4×32×32 → 8, 3×3, stride 1, pad 1): the materialized references
//     against the implicit-GEMM ConvKernel. Forward's reference is
//     Im2Col plus the same packed GEBP; backward's is the 4×4 a×bᵀ and
//     aᵀ×b loops plus Col2Im.
//   - RowAXPY and AdamStep: the training-step kernels on one example of
//     the 64→32 layer (both backward products) and on the 2,788
//     parameters of the 8→64→32→4 DNN.
//   - DenseTrainRatio: one 32-example minibatch through that DNN's
//     Dense layers (forward, dW, dX, then Adam), the scalar test-file
//     references against the kernels. It reports the median of
//     interleaved in-process samples as ref/kernel (the dense-training
//     gate in check_kernels.sh) alongside each side's median time.
func BenchmarkKernels(b *testing.B) {
	for _, size := range []int{64, 192, 512} {
		a, bb := New(size, size), New(size, size)
		fillPseudo(a, 1)
		fillPseudo(bb, 2)
		dst := New(size, size)
		b.Run("MatMulNaive"+strconv.Itoa(size), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				MatMulNaiveInto(dst, a, bb)
			}
		})
		b.Run("MatMulBlocked"+strconv.Itoa(size), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				gebpVia(kern, dst, a, bb)
			}
		})
	}

	const inC, hw, outC, taps = 4, 32, 8, 4 * 3 * 3
	in, w, gout := New(inC, hw, hw), New(outC, taps), New(outC, hw*hw)
	fillPseudo(in, 21)
	fillPseudo(w, 22)
	fillPseudo(gout, 23)
	geom := NewConvGeom(inC, hw, hw, 3, 3, 1, 1, outC)

	b.Run("ConvForwardIm2Col", func(b *testing.B) {
		cols := New(taps, hw*hw)
		out := New(outC, hw*hw)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			Im2ColInto(cols, in, 3, 3, 1, 1)
			gebpVia(kern, out, w, cols)
		}
	})

	b.Run("ConvForwardImplicit", func(b *testing.B) {
		ck := NewConvKernel(geom)
		out := make([]float64, outC*hw*hw)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ck.Forward(out, in.Data(), w.Data())
		}
	})

	b.Run("ConvBackwardIm2Col", func(b *testing.B) {
		cols := Im2Col(in, 3, 3, 1, 1)
		gradW := New(outC, taps)
		gradCols := New(taps, hw*hw)
		gradIn := New(inC, hw, hw)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			matMulABTRange(gradW.data, gout.data, cols.data, 0, outC, hw*hw, taps)
			matMulATBRange(gradCols.data, w.data, gout.data, 0, taps, outC, taps, hw*hw)
			Col2ImInto(gradIn, gradCols, inC, hw, hw, 3, 3, 1, 1)
		}
	})

	b.Run("ConvBackwardImplicit", func(b *testing.B) {
		ck := NewConvKernel(geom)
		gradW := make([]float64, outC*taps)
		gradIn := make([]float64, inC*hw*hw)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ck.Backward(gradW, gradIn, in.Data(), w.Data(), gout.Data())
		}
	})

	b.Run("RowAXPY", func(b *testing.B) {
		const out, in = 32, 64
		gw, w := New(out, in), New(out, in)
		g, x, gi := New(out), New(in), New(in)
		fillPseudo(w, 31)
		fillPseudo(g, 32)
		fillPseudo(x, 33)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			RowAXPY(gw.data, g.data, x.data, in, in, 0, false)
			gi.Fill(0)
			RowAXPY(gi.data, g.data, w.data, in, 0, in, true)
		}
	})

	b.Run("AdamStep", func(b *testing.B) {
		net := newDenseTrainNet()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, l := range net.layers {
				AdamStep(l.w.data, l.gw.data, l.mw, l.vw, 0.9, 0.999, 1e-3, 0.1, 0.001, 1e-8)
			}
		}
	})

	b.Run("DenseTrainRatio", func(b *testing.B) {
		ref, fast := newDenseTrainNet(), newDenseTrainNet()
		const samples, reps = 9, 20
		ratios := make([]float64, 0, samples)
		refNs := make([]float64, 0, samples)
		kernNs := make([]float64, 0, samples)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ratios, refNs, kernNs = ratios[:0], refNs[:0], kernNs[:0]
			for s := 0; s < samples; s++ {
				// Alternate which side runs first, so drift in host speed
				// within a sample does not favour either.
				var tr, tk time.Duration
				if s%2 == 0 {
					tr = timeReps(reps, ref.stepRef)
					tk = timeReps(reps, fast.stepKernels)
				} else {
					tk = timeReps(reps, fast.stepKernels)
					tr = timeReps(reps, ref.stepRef)
				}
				ratios = append(ratios, float64(tr)/float64(tk))
				refNs = append(refNs, float64(tr)/reps)
				kernNs = append(kernNs, float64(tk)/reps)
			}
		}
		b.ReportMetric(median(ratios), "ref/kernel")
		b.ReportMetric(median(refNs), "ref-ns/batch")
		b.ReportMetric(median(kernNs), "kernel-ns/batch")
	})
}

// timeReps returns the wall time of reps calls of f.
func timeReps(reps int, f func()) time.Duration {
	start := time.Now()
	for r := 0; r < reps; r++ {
		f()
	}
	return time.Since(start)
}

// median returns the median of xs, reordering it.
func median(xs []float64) float64 {
	sort.Float64s(xs)
	if len(xs)%2 == 1 {
		return xs[len(xs)/2]
	}
	return (xs[len(xs)/2-1] + xs[len(xs)/2]) / 2
}

// denseTrainLayer is one Dense layer of the dense-training benchmark:
// weights, bias, the weight gradient and its Adam moments, the layer's
// pack, and its per-example input, output and gradient buffers.
type denseTrainLayer struct {
	in, out int
	w, bias *Tensor
	gw      *Tensor
	mw, vw  []float64
	pack    *PackedDense
	x, y, g []float64
	gradIn  []float64
}

// denseTrainNet is the 8→64→32→4 DNN's Dense stack and a 32-example
// minibatch for it; activations are omitted, they are not Dense work.
type denseTrainNet struct {
	layers []*denseTrainLayer
	ins    [][]float64
}

func newDenseTrainNet() *denseTrainNet {
	const batch = 32
	n := &denseTrainNet{}
	sizes := []int{8, 64, 32, 4}
	for i := 0; i+1 < len(sizes); i++ {
		in, out := sizes[i], sizes[i+1]
		l := &denseTrainLayer{
			in: in, out: out,
			w: New(out, in), bias: New(out), gw: New(out, in),
			mw: make([]float64, out*in), vw: make([]float64, out*in),
			y: make([]float64, out), g: make([]float64, out), gradIn: make([]float64, in),
		}
		fillPseudo(l.w, uint64(40+i))
		fillPseudo(l.bias, uint64(50+i))
		for j := range l.w.data {
			l.w.data[j] *= 0.25
		}
		gt := New(out)
		fillPseudo(gt, uint64(60+i))
		copy(l.g, gt.data)
		l.pack = PackDense(l.w, l.bias)
		n.layers = append(n.layers, l)
	}
	for e := 0; e < batch; e++ {
		x := New(sizes[0])
		fillPseudo(x, uint64(70+e))
		n.ins = append(n.ins, x.data)
	}
	return n
}

// stepRef is one minibatch through the scalar test-file references:
// Dot-based forwards, the Dense backward loops and the Adam loop.
func (n *denseTrainNet) stepRef() {
	for _, x := range n.ins {
		for _, l := range n.layers {
			l.x = x
			for o := range l.y {
				l.y[o] = Dot(l.w.data[o*l.in:(o+1)*l.in], x) + l.bias.data[o]
			}
			x = l.y
		}
		for i := len(n.layers) - 1; i >= 0; i-- {
			l := n.layers[i]
			refDenseGradW(l.gw.data, l.g, l.x)
			for j := range l.gradIn {
				l.gradIn[j] = 0
			}
			refDenseGradIn(l.gradIn, l.g, l.w.data)
		}
	}
	for _, l := range n.layers {
		refAdam(l.w.data, l.gw.data, l.mw, l.vw, 0.9, 0.999, 1e-3, 0.1, 0.001, 1e-8)
		l.gw.Fill(0)
		clampTrain(l.w.data)
	}
}

// stepKernels is stepRef's minibatch through the kernels: one Repack
// per layer, then packed forwards, RowAXPY backward products and
// AdamStep.
func (n *denseTrainNet) stepKernels() {
	for _, l := range n.layers {
		l.pack.Repack(l.w, l.bias)
	}
	for _, x := range n.ins {
		for _, l := range n.layers {
			l.x = x
			l.pack.Forward(l.y, x)
			x = l.y
		}
		for i := len(n.layers) - 1; i >= 0; i-- {
			l := n.layers[i]
			RowAXPY(l.gw.data, l.g, l.x, l.in, l.in, 0, false)
			for j := range l.gradIn {
				l.gradIn[j] = 0
			}
			RowAXPY(l.gradIn, l.g, l.w.data, l.in, 0, l.in, true)
		}
	}
	for _, l := range n.layers {
		AdamStep(l.w.data, l.gw.data, l.mw, l.vw, 0.9, 0.999, 1e-3, 0.1, 0.001, 1e-8)
		l.gw.Fill(0)
		clampTrain(l.w.data)
	}
}

// clampTrain keeps repeated benchmark steps in the normal range, so
// neither side drifts into subnormal or infinite arithmetic.
func clampTrain(w []float64) {
	for j, v := range w {
		if math.Abs(v) > 4 {
			w[j] = math.Copysign(4, v)
		}
	}
}
