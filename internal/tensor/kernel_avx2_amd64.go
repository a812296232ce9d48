//go:build amd64

package tensor

import "math"

// The AVX2+FMA kernel implementation. The hot loops live in
// kernel_avx2_amd64.s; this file holds the Go drivers that walk the
// packed operands, call the assembly on full tiles, and fall back to
// portable scalar code on the ragged edges. Selected at package init by
// archKernel when the CPU supports FMA3+AVX2 (see feature_amd64.go).
//
// Determinism: the assembly folds every output element's terms in
// ascending-k order with exactly the reference operations — one fused
// multiply-add per term for the GEBP matmul tile (VFMADD231PD lanes are
// the vector form of math.FMA), a separate multiply then add per term
// for the dense GEMV lanes and the row AXPY (VMULPD+VADDPD, matching
// Dot's two-rounding fold), and Adam's scalar operations lane by lane
// (true VDIVPD divides, a correctly rounded VSQRTPD, no FMA) — so
// results are bit-identical to the generic Go kernels and to the naive
// references. Every instruction is VEX-encoded and every kernel ends in
// VZEROUPPER: a legacy-SSE instruction between YMM instructions costs an
// AVX state transition each time it runs.

const (
	// avx2NR is the packed-B panel width: the GEBP micro-tile is 4×8,
	// held in eight YMM accumulators across the full k loop.
	avx2NR = 8
	// avx2Lanes is the dense-forward block width: 16 outputs per block,
	// four independent YMM multiply-add chains.
	avx2Lanes = 16
)

var avx2Impl = &kernelImpl{
	name:     "avx2",
	nr:       avx2NR,
	gebpTile: gebpTileAVX2,
	lanes:    avx2Lanes,
	gemv:     gemvAVX2,
	rowAXPY:  rowAXPYAVX2,
	adam:     adamAVX2,
}

// dgemm4x8 computes a full 4×8 tile: dst[r][c] (row stride n) gets
// Σ_kk pa[kk*4+r]·pb[kk*8+c], folded ascending-k with FMA from zero.
//
//go:noescape
func dgemm4x8(dst, pa, pb *float64, k, n int)

// gemv16 computes one 16-output dense block: dst[l] = Σ_kk
// w[kk*16+l]·x[kk] + bias[l], each lane an independent ascending-k
// multiply-then-add chain.
//
//go:noescape
func gemv16(dst, w, x, bias *float64, k int)

// axpyRows folds dst_o += c[o]·src_o over nc rows of n elements in
// ascending o, rows dstStride (srcStride) doubles apart, one multiply
// then one add per element; with skip, a ±0 coefficient skips its row.
//
//go:noescape
func axpyRows(dst, c, src *float64, nc, n, dstStride, srcStride int, skip bool)

// adamVec applies the elementwise Adam update over n doubles, given the
// precomputed b1c = 1-b1 and b2c = 1-b2.
//
//go:noescape
func adamVec(p, grad, m, v *float64, n int, b1, b1c, b2, b2c, lr, c1, c2, eps float64)

// gebpTileAVX2 is the AVX2 GEBP tile driver: full 4-row × 8-column
// tiles go to the assembly micro-kernel (dgemm4x8's n operand is purely
// the dst row stride, so ldd aims it at arbitrary sub-tiles); the
// ragged column panel computes into a stack tile and clips the store;
// the ragged row tail past the last full row block runs a scalar 1×8
// kernel reading a directly, exactly like the generic implementation.
func gebpTileAVX2(dst []float64, ldd int, a, packedA, packedB []float64, m, k, cols int) {
	panels := (cols + avx2NR - 1) / avx2NR
	var tile [microM * avx2NR]float64
	i := 0
	for ; i+microM <= m; i += microM {
		r := i / microM
		pa := packedA[r*k*microM:]
		for p := 0; p < panels; p++ {
			pb := packedB[p*k*avx2NR:]
			j0 := p * avx2NR
			if j0+avx2NR <= cols {
				dgemm4x8(&dst[i*ldd+j0], &pa[0], &pb[0], k, ldd)
				continue
			}
			dgemm4x8(&tile[0], &pa[0], &pb[0], k, avx2NR)
			w := cols - j0
			for ii := 0; ii < microM; ii++ {
				copy(dst[(i+ii)*ldd+j0:(i+ii)*ldd+cols], tile[ii*avx2NR:ii*avx2NR+w])
			}
		}
	}
	for ; i < m; i++ {
		arow := a[i*k : (i+1)*k]
		drow := dst[i*ldd : i*ldd+cols]
		for p := 0; p < panels; p++ {
			pb := packedB[p*k*avx2NR:]
			var c [avx2NR]float64
			for kk := 0; kk < k; kk++ {
				q := pb[kk*avx2NR:]
				_ = q[7]
				av := arow[kk]
				c[0] = math.FMA(av, q[0], c[0])
				c[1] = math.FMA(av, q[1], c[1])
				c[2] = math.FMA(av, q[2], c[2])
				c[3] = math.FMA(av, q[3], c[3])
				c[4] = math.FMA(av, q[4], c[4])
				c[5] = math.FMA(av, q[5], c[5])
				c[6] = math.FMA(av, q[6], c[6])
				c[7] = math.FMA(av, q[7], c[7])
			}
			j0 := p * avx2NR
			w := cols - j0
			if w > avx2NR {
				w = avx2NR
			}
			copy(drow[j0:j0+w], c[:w])
		}
	}
}

// gemvAVX2 runs the 16-lane assembly block over the packed dense
// weights; the caller (PackedDense.Forward) handles the out%16 tail with
// the scalar Dot path.
func gemvAVX2(dst, packedW, x, bias []float64, blocks, k int) {
	if k == 0 {
		copy(dst[:blocks*avx2Lanes], bias[:blocks*avx2Lanes])
		return
	}
	for blk := 0; blk < blocks; blk++ {
		o := blk * avx2Lanes
		gemv16(&dst[o], &packedW[blk*k*avx2Lanes], &x[0], &bias[o], k)
	}
}

// rowAXPYAVX2 runs the whole row AXPY in one assembly call; RowAXPY has
// already checked that every row lies inside dst and src.
func rowAXPYAVX2(dst, c, src []float64, n, dstStride, srcStride int, skipZero bool) {
	axpyRows(&dst[0], &c[0], &src[0], len(c), n, dstStride, srcStride, skipZero)
}

// adamAVX2 runs the Adam update in one assembly call. 1-beta1 and
// 1-beta2 are computed here exactly as the generic loop computes them.
func adamAVX2(p, g, m, v []float64, beta1, beta2, lr, c1, c2, eps float64) {
	g, m, v = g[:len(p)], m[:len(p)], v[:len(p)]
	adamVec(&p[0], &g[0], &m[0], &v[0], len(p), beta1, 1-beta1, beta2, 1-beta2, lr, c1, c2, eps)
}
