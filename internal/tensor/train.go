// train.go holds the two training-step kernels behind nn's Dense
// backward and Adam optimizer (DESIGN.md §5e): the row AXPY, which
// serves both Dense backward products, and the elementwise Adam update.
// Both dispatch through the init-time kernel table (dispatch.go), and
// every implementation performs exactly the scalar operations of the
// reference loops kept in the package tests, element by element, so
// results are bit-identical across implementations.
package tensor

import (
	"fmt"
	"math"
)

// RowAXPY folds dst_o += c[o]·src_o for o = 0, 1, …, len(c)-1, where
// dst_o = dst[o·dstStride : o·dstStride+n] and src_o = src[o·srcStride :
// o·srcStride+n]. Each element takes one multiply, then one add (two
// roundings, never fused), in ascending o. A zero stride reuses one row
// for every o, so one kernel serves both Dense backward products:
//
//   - dW: RowAXPY(gradW, g, x, in, in, 0, false) adds the outer product
//     g⊗x row by row, never skipping a term;
//   - dX: RowAXPY(gradIn, g, W, in, 0, in, true) folds Wᵀ·g into one row.
//
// With skipZero, terms whose coefficient is +0 or -0 are skipped; a NaN
// coefficient is never skipped.
func RowAXPY(dst, c, src []float64, n, dstStride, srcStride int, skipZero bool) {
	if n < 0 || dstStride < 0 || srcStride < 0 {
		panic(fmt.Sprintf("tensor: RowAXPY negative geometry n=%d strides %d/%d", n, dstStride, srcStride))
	}
	if len(c) == 0 || n == 0 {
		return
	}
	last := len(c) - 1
	if last*dstStride+n > len(dst) || last*srcStride+n > len(src) {
		panic(fmt.Sprintf("tensor: RowAXPY %d rows of %d overrun dst %d (stride %d) or src %d (stride %d)",
			len(c), n, len(dst), dstStride, len(src), srcStride))
	}
	kern.rowAXPY(dst, c, src, n, dstStride, srcStride, skipZero)
}

// AdamStep applies one bias-corrected Adam update elementwise, in Go's
// operation order for each j:
//
//	m[j] = beta1·m[j] + (1−beta1)·g[j]
//	v[j] = beta2·v[j] + ((1−beta2)·g[j])·g[j]
//	p[j] −= (lr·(m[j]/c1)) / (√(v[j]/c2) + eps)
//
// c1 and c2 are the bias corrections 1−beta1ᵗ and 1−beta2ᵗ. Every
// operation rounds on its own: no reciprocal multiplies, no FMA.
func AdamStep(p, g, m, v []float64, beta1, beta2, lr, c1, c2, eps float64) {
	if len(g) != len(p) || len(m) != len(p) || len(v) != len(p) {
		panic(fmt.Sprintf("tensor: AdamStep lengths p=%d g=%d m=%d v=%d", len(p), len(g), len(m), len(v)))
	}
	if len(p) == 0 {
		return
	}
	kern.adam(p, g, m, v, beta1, beta2, lr, c1, c2, eps)
}

// rowAXPYGeneric is the portable row AXPY: the reference loop with the
// element loop unrolled ×4. Unrolling never changes an element's
// operations, only how many are in flight.
func rowAXPYGeneric(dst, c, src []float64, n, dstStride, srcStride int, skipZero bool) {
	for o, co := range c {
		if skipZero && co == 0 {
			continue
		}
		d := dst[o*dstStride : o*dstStride+n]
		s := src[o*srcStride : o*srcStride+n]
		i := 0
		for ; i+4 <= len(d); i += 4 {
			q := s[i : i+4 : i+4]
			e := d[i : i+4 : i+4]
			e[0] += co * q[0]
			e[1] += co * q[1]
			e[2] += co * q[2]
			e[3] += co * q[3]
		}
		for ; i < len(d); i++ {
			d[i] += co * s[i]
		}
	}
}

// adamGeneric is the portable Adam update, with the per-element
// operations of AdamStep's formula.
func adamGeneric(p, g, m, v []float64, beta1, beta2, lr, c1, c2, eps float64) {
	g, m, v = g[:len(p)], m[:len(p)], v[:len(p)]
	b1c, b2c := 1-beta1, 1-beta2
	for j := range p {
		gj := g[j]
		mj := beta1*m[j] + b1c*gj
		vj := beta2*v[j] + b2c*gj*gj
		m[j], v[j] = mj, vj
		p[j] -= lr * (mj / c1) / (math.Sqrt(vj/c2) + eps)
	}
}
