// kernel.go holds the portable GEBP micro-kernel and its packing
// helpers: the general matrix-matrix product every convolution runs,
// through ConvKernel (training) and PackedConv (the compiled plan).
// Operands are packed once per call into contiguous micro-panels — b
// into panel-major column panels, a into 4-row blocks — and a 4×4
// register tile folds the whole k loop in registers, so each loaded
// value feeds 4–16 flops instead of 2. The dispatched implementation
// (dispatch.go) may swap in a wider assembly tile; the packing helpers
// take the panel width as a parameter.
//
// Determinism contract: every output element folds its terms with
// math.FMA in ascending-k order starting from zero. Blocking reorders
// which elements are computed when, never the per-element fold order,
// so every product is bit-identical to the sequential naive loop kept
// as a reference in the package tests.
//
// math.FMA (fused multiply-add, a single rounding per term) is the
// per-term operation everywhere, including the naive reference: it
// compiles to one instruction on every modern CPU and roughly halves the
// floating-point op count of the register micro-kernels. What matters
// for determinism is only that every path uses the same operation in
// the same order.
package tensor

import "math"

// microM×microN is the register micro-tile: 16 accumulators held in
// registers across the full k loop, fed by 8 loads per iteration.
const (
	microM = 4
	microN = 4
)

// packPanels packs b (k×n, row-major) into panel-major micro-panels of
// the active kernel's width nr: for panel p covering columns
// [p·nr, p·nr+nr), packed[p·k·nr + kk·nr + jj] = b[kk][p·nr+jj]. The
// ragged last panel is zero-padded; the padding only feeds accumulators
// that are never stored.
func packPanels(packed, b []float64, k, n, nr int) {
	panels := (n + nr - 1) / nr
	for p := 0; p < panels; p++ {
		j0 := p * nr
		w := n - j0
		if w > nr {
			w = nr
		}
		dst := packed[p*k*nr : (p+1)*k*nr]
		for kk := 0; kk < k; kk++ {
			d := dst[kk*nr : kk*nr+nr]
			copy(d, b[kk*n+j0:kk*n+j0+w])
			for jj := w; jj < nr; jj++ {
				d[jj] = 0
			}
		}
	}
}

// packRows packs the first blocks·4 rows of a (m×k, row-major) into
// row-major micro-panels: for block r covering rows [r·4, r·4+4),
// packed[r·k·4 + kk·4 + ii] = a[r·4+ii][kk]. Unlike b's column panels no
// padding is needed — callers pack only whole blocks.
func packRows(packed, a []float64, k, blocks int) {
	for r := 0; r < blocks; r++ {
		i0 := r * microM
		dst := packed[r*k*microM : (r+1)*k*microM]
		r0 := a[(i0+0)*k : (i0+1)*k]
		r1 := a[(i0+1)*k : (i0+2)*k]
		r2 := a[(i0+2)*k : (i0+3)*k]
		r3 := a[(i0+3)*k : (i0+4)*k]
		for kk := 0; kk < k; kk++ {
			d := dst[kk*microM:]
			_ = d[3]
			d[0], d[1], d[2], d[3] = r0[kk], r1[kk], r2[kk], r3[kk]
		}
	}
}

// storeClipped writes up to four accumulated values into drow starting at
// column j0, dropping the lanes that fall past column n (the padded lanes
// of a ragged panel).
func storeClipped(drow []float64, j0, n int, c0, c1, c2, c3 float64) {
	switch n - j0 {
	case 1:
		drow[j0] = c0
	case 2:
		drow[j0], drow[j0+1] = c0, c1
	case 3:
		drow[j0], drow[j0+1], drow[j0+2] = c0, c1, c2
	default:
		drow[j0], drow[j0+1], drow[j0+2], drow[j0+3] = c0, c1, c2, c3
	}
}

// matMulPackedTile computes the m×cols tile dst[i*ldd+j] (i < m,
// j < cols) = packed(a)×packed(b) with the 4×4 register micro-kernel.
// dst points at the tile origin inside a larger row-major matrix of row
// stride ldd; packedB holds ceil(cols/4) zero-padded column panels local
// to the tile; packedA holds a's full microM-row blocks and a is the
// plain m×k row-major operand, read only for the ragged row tail. Both
// packed operands stream from contiguous micro-panels; the loop
// condition on the two slice lengths lets the compiler drop every bounds
// check in the hot loop. Every accumulator folds ascending-k from zero
// with math.FMA, so each stored element is bit-identical to the naive
// loop.
func matMulPackedTile(dst []float64, ldd int, a, packedA, packedB []float64, m, k, cols int) {
	panels := (cols + microN - 1) / microN
	i := 0
	for ; i+microM <= m; i += microM {
		r := i / microM
		pa := packedA[r*k*microM : (r+1)*k*microM]
		for p := 0; p < panels; p++ {
			qa := pa
			qb := packedB[p*k*microN : p*k*microN+len(qa)]
			var c00, c01, c02, c03 float64
			var c10, c11, c12, c13 float64
			var c20, c21, c22, c23 float64
			var c30, c31, c32, c33 float64
			// qa and qb have identical length (4·k), so the prove pass
			// drops every bounds check in this loop; the ×2 unroll halves
			// the loop overhead per 16-FMA group. The fold order per
			// accumulator stays strictly ascending in k.
			o := 0
			for ; o+8 <= len(qa); o += 8 {
				b0, b1, b2, b3 := qb[o], qb[o+1], qb[o+2], qb[o+3]
				av := qa[o]
				c00 = math.FMA(av, b0, c00)
				c01 = math.FMA(av, b1, c01)
				c02 = math.FMA(av, b2, c02)
				c03 = math.FMA(av, b3, c03)
				av = qa[o+1]
				c10 = math.FMA(av, b0, c10)
				c11 = math.FMA(av, b1, c11)
				c12 = math.FMA(av, b2, c12)
				c13 = math.FMA(av, b3, c13)
				av = qa[o+2]
				c20 = math.FMA(av, b0, c20)
				c21 = math.FMA(av, b1, c21)
				c22 = math.FMA(av, b2, c22)
				c23 = math.FMA(av, b3, c23)
				av = qa[o+3]
				c30 = math.FMA(av, b0, c30)
				c31 = math.FMA(av, b1, c31)
				c32 = math.FMA(av, b2, c32)
				c33 = math.FMA(av, b3, c33)
				b0, b1, b2, b3 = qb[o+4], qb[o+5], qb[o+6], qb[o+7]
				av = qa[o+4]
				c00 = math.FMA(av, b0, c00)
				c01 = math.FMA(av, b1, c01)
				c02 = math.FMA(av, b2, c02)
				c03 = math.FMA(av, b3, c03)
				av = qa[o+5]
				c10 = math.FMA(av, b0, c10)
				c11 = math.FMA(av, b1, c11)
				c12 = math.FMA(av, b2, c12)
				c13 = math.FMA(av, b3, c13)
				av = qa[o+6]
				c20 = math.FMA(av, b0, c20)
				c21 = math.FMA(av, b1, c21)
				c22 = math.FMA(av, b2, c22)
				c23 = math.FMA(av, b3, c23)
				av = qa[o+7]
				c30 = math.FMA(av, b0, c30)
				c31 = math.FMA(av, b1, c31)
				c32 = math.FMA(av, b2, c32)
				c33 = math.FMA(av, b3, c33)
			}
			for ; o+4 <= len(qa); o += 4 {
				b0, b1, b2, b3 := qb[o], qb[o+1], qb[o+2], qb[o+3]
				av := qa[o]
				c00 = math.FMA(av, b0, c00)
				c01 = math.FMA(av, b1, c01)
				c02 = math.FMA(av, b2, c02)
				c03 = math.FMA(av, b3, c03)
				av = qa[o+1]
				c10 = math.FMA(av, b0, c10)
				c11 = math.FMA(av, b1, c11)
				c12 = math.FMA(av, b2, c12)
				c13 = math.FMA(av, b3, c13)
				av = qa[o+2]
				c20 = math.FMA(av, b0, c20)
				c21 = math.FMA(av, b1, c21)
				c22 = math.FMA(av, b2, c22)
				c23 = math.FMA(av, b3, c23)
				av = qa[o+3]
				c30 = math.FMA(av, b0, c30)
				c31 = math.FMA(av, b1, c31)
				c32 = math.FMA(av, b2, c32)
				c33 = math.FMA(av, b3, c33)
			}
			j0 := p * microN
			storeClipped(dst[(i+0)*ldd:(i+0)*ldd+cols], j0, cols, c00, c01, c02, c03)
			storeClipped(dst[(i+1)*ldd:(i+1)*ldd+cols], j0, cols, c10, c11, c12, c13)
			storeClipped(dst[(i+2)*ldd:(i+2)*ldd+cols], j0, cols, c20, c21, c22, c23)
			storeClipped(dst[(i+3)*ldd:(i+3)*ldd+cols], j0, cols, c30, c31, c32, c33)
		}
	}
	// Ragged row tail: 1×4 kernel over the packed b panels, reading a
	// directly (tail rows are never packed).
	for ; i < m; i++ {
		arow := a[i*k : (i+1)*k]
		drow := dst[i*ldd : i*ldd+cols]
		for p := 0; p < panels; p++ {
			pb := packedB[p*k*microN : (p+1)*k*microN]
			var c0, c1, c2, c3 float64
			for kk := 0; kk < k; kk++ {
				q := pb[kk*microN:]
				_ = q[3]
				av := arow[kk]
				c0 = math.FMA(av, q[0], c0)
				c1 = math.FMA(av, q[1], c1)
				c2 = math.FMA(av, q[2], c2)
				c3 = math.FMA(av, q[3], c3)
			}
			storeClipped(drow, p*microN, cols, c0, c1, c2, c3)
		}
	}
}
