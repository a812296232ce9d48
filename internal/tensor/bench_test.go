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
//     aᵀ×b loops plus Col2Im. ConvRatio reports the median of 9
//     interleaved in-process samples of im2col/implicit per direction
//     (the conv gate in check_kernels.sh).
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

	// One closure per side and direction, shared by the Conv*
	// sub-benchmarks and ConvRatio so both time the same work.
	fwdCols, fwdOut := New(taps, hw*hw), New(outC, hw*hw)
	convForwardIm2Col := func() {
		Im2ColInto(fwdCols, in, 3, 3, 1, 1)
		gebpVia(kern, fwdOut, w, fwdCols)
	}
	fwdKernel, fwdOutFlat := NewConvKernel(geom), make([]float64, outC*hw*hw)
	convForwardImplicit := func() { fwdKernel.Forward(fwdOutFlat, in.Data(), w.Data()) }
	bwdCols := Im2Col(in, 3, 3, 1, 1)
	gradW, gradCols, gradIn := New(outC, taps), New(taps, hw*hw), New(inC, hw, hw)
	convBackwardIm2Col := func() {
		matMulABTRange(gradW.data, gout.data, bwdCols.data, 0, outC, hw*hw, taps)
		matMulATBRange(gradCols.data, w.data, gout.data, 0, taps, outC, taps, hw*hw)
		Col2ImInto(gradIn, gradCols, inC, hw, hw, 3, 3, 1, 1)
	}
	bwdKernel := NewConvKernel(geom)
	gradWFlat, gradInFlat := make([]float64, outC*taps), make([]float64, inC*hw*hw)
	convBackwardImplicit := func() {
		bwdKernel.Backward(gradWFlat, gradInFlat, in.Data(), w.Data(), gout.Data())
	}
	for _, c := range []struct {
		name string
		fn   func()
	}{
		{"ConvForwardIm2Col", convForwardIm2Col},
		{"ConvForwardImplicit", convForwardImplicit},
		{"ConvBackwardIm2Col", convBackwardIm2Col},
		{"ConvBackwardImplicit", convBackwardImplicit},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				c.fn()
			}
		})
	}

	b.Run("ConvRatio", func(b *testing.B) {
		var fwd, bwd float64
		for i := 0; i < b.N; i++ {
			fwd, _, _ = interleavedRatio(9, 10, convForwardIm2Col, convForwardImplicit)
			bwd, _, _ = interleavedRatio(9, 10, convBackwardIm2Col, convBackwardImplicit)
		}
		b.ReportMetric(fwd, "fwd-im2col/implicit")
		b.ReportMetric(bwd, "bwd-im2col/implicit")
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
		var ratio, refNs, kernNs float64
		for i := 0; i < b.N; i++ {
			ratio, refNs, kernNs = interleavedRatio(9, 20, ref.stepRef, fast.stepKernels)
		}
		b.ReportMetric(ratio, "ref/kernel")
		b.ReportMetric(refNs, "ref-ns/batch")
		b.ReportMetric(kernNs, "kernel-ns/batch")
	})
}

// interleavedRatio times reps calls of ref and of fast in each of
// samples samples, alternating which side runs first so drift in host
// speed within a sample does not favour either. It returns the median
// per-sample ratio ref/fast and each side's median time per call in ns.
func interleavedRatio(samples, reps int, ref, fast func()) (ratio, refNs, fastNs float64) {
	ratios := make([]float64, 0, samples)
	refs := make([]float64, 0, samples)
	fasts := make([]float64, 0, samples)
	for s := 0; s < samples; s++ {
		var tr, tf time.Duration
		if s%2 == 0 {
			tr = timeReps(reps, ref)
			tf = timeReps(reps, fast)
		} else {
			tf = timeReps(reps, fast)
			tr = timeReps(reps, ref)
		}
		ratios = append(ratios, float64(tr)/float64(tf))
		refs = append(refs, float64(tr)/float64(reps))
		fasts = append(fasts, float64(tf)/float64(reps))
	}
	return median(ratios), median(refs), median(fasts)
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
