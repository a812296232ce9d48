// dispatch.go is the init-time CPU-feature dispatch behind the kernel
// layer (DESIGN.md §5g). A per-call CPU-feature branch around every
// math.FMA would cost the 4×4 register tile most of its win on the
// default (GOAMD64=v1) build, so the feature check runs exactly once, at
// package init, and selects a kernelImpl — a table binding the packed
// matmul micro-kernel (GEBP), the lane-blocked dense forward (GEMV),
// their packing geometry, and the two training-step kernels (the row
// AXPY of the Dense backward and the Adam update). amd64 hosts with
// FMA+AVX2 get hand-written assembly kernels with a wider 4×8 tile;
// every other host gets the portable Go kernels.
//
// Determinism contract: every implementation folds each output element's
// terms in ascending-k order with the exact operations of the reference
// kernels (math.FMA for the GEBP tile, separate multiply-then-add for
// the Dot-based dense forward and the row AXPY, Go's scalar operation
// order for Adam), so results are bit-identical across
// implementations, builds and worker counts. Packing geometry (panel
// width nr, dense lane count) varies per implementation, but geometry
// only decides which elements are computed together — never the
// per-element fold order.
package tensor

// kernelImpl is one selectable kernel implementation. All fields are
// bound once at package init; pack-once callers (PackDense,
// PrepackConv) bake the implementation's geometry into their packed
// buffers, which is safe precisely because the selection never changes
// after init.
type kernelImpl struct {
	// name identifies the implementation ("generic", "avx2") for
	// diagnostics.
	name string

	// nr is the packed-B panel width of the GEBP micro-kernel. The
	// micro-tile is microM×nr.
	nr int

	// gebpTile computes an m×cols output tile from packed operands:
	// dst[i*ldd+j] (i < m, j < cols) = packed(a)×packed(b), where dst
	// points at the tile origin inside a row-major matrix of row stride
	// ldd ≥ cols. packedA holds a's full microM-row blocks (kk-major),
	// packedB holds ceil(cols/nr) nr-wide zero-padded column panels
	// (kk-major) local to the tile, and a is the plain m×k row-major
	// operand, read only for the ragged row tail past the last full
	// block. The tile form is what lets implicit-GEMM convolution aim
	// the micro-kernel at arbitrary strided sub-blocks of the output
	// feature map.
	gebpTile func(dst []float64, ldd int, a, packedA, packedB []float64, m, k, cols int)

	// lanes is the dense-forward output block width: gemv processes
	// blocks of this many outputs at once, one independent
	// multiply-then-add chain per output lane.
	lanes int

	// gemv computes dst[0:blocks*lanes] = W·x + bias over lane-packed
	// weights: packedW[blk*k*lanes + kk*lanes + lane] = W[blk*lanes+lane][kk].
	// Each output folds ascending-k with separate multiply and add — the
	// exact semantics of Dot(row, x) + bias[o].
	gemv func(dst, packedW, x, bias []float64, blocks, k int)

	// rowAXPY folds dst_o += c[o]·src_o over len(c) > 0 rows of n > 0
	// elements, ascending o, rows dstStride (srcStride) doubles apart
	// inside dst (src); each element is one multiply then one add. With
	// skipZero a ±0 coefficient skips its row, a NaN one never does.
	// Both Dense backward products run it (RowAXPY, train.go).
	rowAXPY func(dst, c, src []float64, n, dstStride, srcStride int, skipZero bool)

	// adam applies the elementwise Adam update to len(p) > 0 parameters
	// in AdamStep's operation order (train.go).
	adam func(p, g, m, v []float64, beta1, beta2, lr, c1, c2, eps float64)
}

// genericImpl is the portable Go implementation, available everywhere:
// the 4×4 math.FMA GEBP tile from PR 5 and a 4-lane dense forward.
var genericImpl = &kernelImpl{
	name:     "generic",
	nr:       microN,
	gebpTile: matMulPackedTile,
	lanes:    4,
	gemv:     gemvGeneric,
	rowAXPY:  rowAXPYGeneric,
	adam:     adamGeneric,
}

// kern is the implementation selected at package init. Immutable
// afterwards (tests that need to exercise a specific implementation call
// its functions directly).
var kern = pickKernel()

// KernelName reports which kernel implementation was selected at init
// ("avx2", "generic"), for diagnostics and bench provenance.
func KernelName() string { return kern.name }

// pickKernel selects the architecture's accelerated kernels when the CPU
// supports them, the generic Go kernels otherwise.
func pickKernel() *kernelImpl {
	if k := archKernel(); k != nil {
		return k
	}
	return genericImpl
}

// gemvGeneric is the portable lane-blocked dense forward: 4 independent
// multiply-then-add chains, one per output lane, folding ascending-k —
// bit-identical to Dot(W[o], x) + bias[o] per output.
func gemvGeneric(dst, packedW, x, bias []float64, blocks, k int) {
	const lanes = 4
	for blk := 0; blk < blocks; blk++ {
		p := packedW[blk*k*lanes : (blk+1)*k*lanes]
		var c0, c1, c2, c3 float64
		for kk := 0; kk < k; kk++ {
			q := p[kk*lanes:]
			_ = q[3]
			xv := x[kk]
			c0 += q[0] * xv
			c1 += q[1] * xv
			c2 += q[2] * xv
			c3 += q[3] * xv
		}
		o := blk * lanes
		b := bias[o:]
		_ = b[3]
		d := dst[o:]
		_ = d[3]
		d[0], d[1], d[2], d[3] = c0+b[0], c1+b[1], c2+b[2], c3+b[3]
	}
}
