package tensor

import (
	"strconv"
	"testing"

	"github.com/autonomizer/autonomizer/internal/parallel"
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
		defer parallel.SetWorkers(parallel.SetWorkers(1))
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
		defer parallel.SetWorkers(parallel.SetWorkers(1))
		ck := NewConvKernel(geom)
		gradW := make([]float64, outC*taps)
		gradIn := make([]float64, inC*hw*hw)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ck.Backward(gradW, gradIn, in.Data(), w.Data(), gout.Data())
		}
	})
}
