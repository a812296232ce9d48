package tensor

import (
	"fmt"
	"math"
)

// The materialized reference kernels. Production never runs them: the
// convolution paths (ConvKernel, PackedConv) gather straight into GEBP
// packing and never build a column matrix, the dense forward folds with
// Dot or the packed gemv, and the dense backward and Adam run the
// dispatched RowAXPY and AdamStep kernels. They stay here because they define, in the plainest
// sequential loops, the bit-exact per-element fold every production
// kernel must reproduce; the bit-identity tests and BenchmarkKernels
// (scripts/check_kernels.sh) compare against them.

// matMulDims validates a rank-2 product a×b and returns (m, k, n).
func matMulDims(a, b *Tensor) (m, k, n int) {
	if len(a.shape) != 2 || len(b.shape) != 2 {
		panic("tensor: matmul requires rank-2 tensors")
	}
	m, k = a.shape[0], a.shape[1]
	if b.shape[0] != k {
		panic(fmt.Sprintf("tensor: matmul inner dimensions %d vs %d", k, b.shape[0]))
	}
	return m, k, b.shape[1]
}

// checkDst validates a rank-2 destination shape.
func checkDst(dst *Tensor, m, n int) {
	if len(dst.shape) != 2 || dst.shape[0] != m || dst.shape[1] != n {
		panic(fmt.Sprintf("tensor: destination shape %v, want [%d %d]", dst.shape, m, n))
	}
}

// MatMulNaiveInto is the sequential reference product dst = a×b: a
// single-pass ikj loop with no blocking and no packing, folding each
// element's terms with ascending-k math.FMA from zero. It defines the
// bit-exact semantics every GEBP implementation must reproduce. The
// inner loop never skips zero multipliers: 0×NaN and 0×Inf are NaN per
// IEEE-754, so sparse shortcuts are not semantics-preserving.
func MatMulNaiveInto(dst, a, b *Tensor) *Tensor {
	m, k, n := matMulDims(a, b)
	checkDst(dst, m, n)
	dst.Fill(0)
	for i := 0; i < m; i++ {
		arow := a.data[i*k : (i+1)*k]
		orow := dst.data[i*n : (i+1)*n]
		for kk := 0; kk < k; kk++ {
			av := arow[kk]
			brow := b.data[kk*n : (kk+1)*n]
			for j, bv := range brow {
				orow[j] = math.FMA(av, bv, orow[j])
			}
		}
	}
	return dst
}

// Transpose returns the transpose of a rank-2 tensor.
func Transpose(a *Tensor) *Tensor {
	if len(a.shape) != 2 {
		panic("tensor: Transpose requires a rank-2 tensor")
	}
	m, n := a.shape[0], a.shape[1]
	dst := New(n, m)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			dst.data[j*m+i] = a.data[i*n+j]
		}
	}
	return dst
}

// refATB returns aᵀ×b for a (k×m) and b (k×n) through matMulATBRange:
// dst[i][j] = Σ_kk a[kk][i]·b[kk][j], ascending kk — the per-element
// order of MatMulNaiveInto(dst, Transpose(a), b), with no transposed
// copy.
func refATB(a, b *Tensor) *Tensor {
	k, m, n := a.shape[0], a.shape[1], b.shape[1]
	dst := New(m, n)
	matMulATBRange(dst.data, a.data, b.data, 0, m, k, m, n)
	return dst
}

// refABT returns a×bᵀ for a (m×k) and b (n×k) through matMulABTRange:
// dst[i][j] = Σ_kk a[i][kk]·b[j][kk], ascending kk.
func refABT(a, b *Tensor) *Tensor {
	m, k, n := a.shape[0], a.shape[1], b.shape[0]
	dst := New(m, n)
	matMulABTRange(dst.data, a.data, b.data, 0, m, k, n)
	return dst
}

// matMulATBRange computes dst rows [lo, hi) of aᵀ×b. The 4×4 micro-kernel
// reads four consecutive a columns (contiguous at a[kk·m+i]) and four
// consecutive b columns (contiguous at b[kk·n+j]) per k step.
func matMulATBRange(dst, a, b []float64, lo, hi, k, m, n int) {
	i := lo
	for ; i+microM <= hi; i += microM {
		j := 0
		for ; j+microN <= n; j += microN {
			var c00, c01, c02, c03 float64
			var c10, c11, c12, c13 float64
			var c20, c21, c22, c23 float64
			var c30, c31, c32, c33 float64
			for kk := 0; kk < k; kk++ {
				qa := a[kk*m+i:]
				_ = qa[3]
				qb := b[kk*n+j:]
				_ = qb[3]
				b0, b1, b2, b3 := qb[0], qb[1], qb[2], qb[3]
				av := qa[0]
				c00 = math.FMA(av, b0, c00)
				c01 = math.FMA(av, b1, c01)
				c02 = math.FMA(av, b2, c02)
				c03 = math.FMA(av, b3, c03)
				av = qa[1]
				c10 = math.FMA(av, b0, c10)
				c11 = math.FMA(av, b1, c11)
				c12 = math.FMA(av, b2, c12)
				c13 = math.FMA(av, b3, c13)
				av = qa[2]
				c20 = math.FMA(av, b0, c20)
				c21 = math.FMA(av, b1, c21)
				c22 = math.FMA(av, b2, c22)
				c23 = math.FMA(av, b3, c23)
				av = qa[3]
				c30 = math.FMA(av, b0, c30)
				c31 = math.FMA(av, b1, c31)
				c32 = math.FMA(av, b2, c32)
				c33 = math.FMA(av, b3, c33)
			}
			storeClipped(dst[(i+0)*n:(i+1)*n], j, n, c00, c01, c02, c03)
			storeClipped(dst[(i+1)*n:(i+2)*n], j, n, c10, c11, c12, c13)
			storeClipped(dst[(i+2)*n:(i+3)*n], j, n, c20, c21, c22, c23)
			storeClipped(dst[(i+3)*n:(i+4)*n], j, n, c30, c31, c32, c33)
		}
		for ; j < n; j++ {
			var s0, s1, s2, s3 float64
			for kk := 0; kk < k; kk++ {
				qa := a[kk*m+i:]
				_ = qa[3]
				bv := b[kk*n+j]
				s0 = math.FMA(qa[0], bv, s0)
				s1 = math.FMA(qa[1], bv, s1)
				s2 = math.FMA(qa[2], bv, s2)
				s3 = math.FMA(qa[3], bv, s3)
			}
			dst[(i+0)*n+j] = s0
			dst[(i+1)*n+j] = s1
			dst[(i+2)*n+j] = s2
			dst[(i+3)*n+j] = s3
		}
	}
	for ; i < hi; i++ {
		drow := dst[i*n : (i+1)*n]
		for j := range drow {
			drow[j] = 0
		}
		for kk := 0; kk < k; kk++ {
			av := a[kk*m+i]
			brow := b[kk*n : (kk+1)*n]
			for j, bv := range brow {
				drow[j] = math.FMA(av, bv, drow[j])
			}
		}
	}
}

// matMulABTRange computes dst rows [lo, hi) of a×bᵀ. The 4×4 micro-kernel
// streams four a rows against four b rows, all contiguous in k.
func matMulABTRange(dst, a, b []float64, lo, hi, k, n int) {
	i := lo
	for ; i+microM <= hi; i += microM {
		a0 := a[(i+0)*k : (i+1)*k]
		a1 := a[(i+1)*k : (i+2)*k]
		a2 := a[(i+2)*k : (i+3)*k]
		a3 := a[(i+3)*k : (i+4)*k]
		d0 := dst[(i+0)*n : (i+1)*n]
		d1 := dst[(i+1)*n : (i+2)*n]
		d2 := dst[(i+2)*n : (i+3)*n]
		d3 := dst[(i+3)*n : (i+4)*n]
		j := 0
		for ; j+microN <= n; j += microN {
			b0 := b[(j+0)*k : (j+1)*k]
			b1 := b[(j+1)*k : (j+2)*k]
			b2 := b[(j+2)*k : (j+3)*k]
			b3 := b[(j+3)*k : (j+4)*k]
			var c00, c01, c02, c03 float64
			var c10, c11, c12, c13 float64
			var c20, c21, c22, c23 float64
			var c30, c31, c32, c33 float64
			for kk := 0; kk < k; kk++ {
				v0, v1, v2, v3 := b0[kk], b1[kk], b2[kk], b3[kk]
				av := a0[kk]
				c00 = math.FMA(av, v0, c00)
				c01 = math.FMA(av, v1, c01)
				c02 = math.FMA(av, v2, c02)
				c03 = math.FMA(av, v3, c03)
				av = a1[kk]
				c10 = math.FMA(av, v0, c10)
				c11 = math.FMA(av, v1, c11)
				c12 = math.FMA(av, v2, c12)
				c13 = math.FMA(av, v3, c13)
				av = a2[kk]
				c20 = math.FMA(av, v0, c20)
				c21 = math.FMA(av, v1, c21)
				c22 = math.FMA(av, v2, c22)
				c23 = math.FMA(av, v3, c23)
				av = a3[kk]
				c30 = math.FMA(av, v0, c30)
				c31 = math.FMA(av, v1, c31)
				c32 = math.FMA(av, v2, c32)
				c33 = math.FMA(av, v3, c33)
			}
			d0[j], d0[j+1], d0[j+2], d0[j+3] = c00, c01, c02, c03
			d1[j], d1[j+1], d1[j+2], d1[j+3] = c10, c11, c12, c13
			d2[j], d2[j+1], d2[j+2], d2[j+3] = c20, c21, c22, c23
			d3[j], d3[j+1], d3[j+2], d3[j+3] = c30, c31, c32, c33
		}
		for ; j < n; j++ {
			brow := b[j*k : (j+1)*k]
			var s0, s1, s2, s3 float64
			for kk, bv := range brow {
				s0 = math.FMA(a0[kk], bv, s0)
				s1 = math.FMA(a1[kk], bv, s1)
				s2 = math.FMA(a2[kk], bv, s2)
				s3 = math.FMA(a3[kk], bv, s3)
			}
			d0[j], d1[j], d2[j], d3[j] = s0, s1, s2, s3
		}
	}
	for ; i < hi; i++ {
		arow := a[i*k : (i+1)*k]
		drow := dst[i*n : (i+1)*n]
		for j := range drow {
			brow := b[j*k : (j+1)*k]
			var s float64
			for kk, bv := range brow {
				s = math.FMA(arow[kk], bv, s)
			}
			drow[j] = s
		}
	}
}

// Im2Col lowers a convolution over an input of shape (channels, height,
// width) into a matrix multiplication. It returns a matrix of shape
// (channels*kh*kw, outH*outW) where each column is the receptive field of
// one output position, so output = weights(outC, inC*kh*kw) ×
// Im2Col(input). stride must be >= 1; pad adds implicit zeros on every
// edge.
func Im2Col(in *Tensor, kh, kw, stride, pad int) *Tensor {
	c, h, w := im2colDims(in, kh, kw, stride, pad)
	outH := ConvOutputSize(h, kh, stride, pad)
	outW := ConvOutputSize(w, kw, stride, pad)
	return Im2ColInto(New(c*kh*kw, outH*outW), in, kh, kw, stride, pad)
}

// im2colDims validates an im2col lowering and returns (c, h, w).
func im2colDims(in *Tensor, kh, kw, stride, pad int) (c, h, w int) {
	if len(in.shape) != 3 {
		panic(fmt.Sprintf("tensor: Im2Col wants (C,H,W) input, got %v", in.shape))
	}
	if stride < 1 {
		panic("tensor: Im2Col stride must be >= 1")
	}
	c, h, w = in.shape[0], in.shape[1], in.shape[2]
	if (h+2*pad-kh)/stride+1 <= 0 || (w+2*pad-kw)/stride+1 <= 0 {
		panic(fmt.Sprintf("tensor: Im2Col kernel %dx%d too large for %dx%d input (pad %d)", kh, kw, h, w, pad))
	}
	return c, h, w
}

// Im2ColInto is the destination-passing Im2Col: it fully overwrites the
// caller-owned (c·kh·kw, outH·outW) destination and returns it. Row
// (ch·kh+ky)·kw+kx holds the input value under kernel tap (ky, kx) of
// channel ch at every output position, zero where the tap lands in
// padding.
func Im2ColInto(out, in *Tensor, kh, kw, stride, pad int) *Tensor {
	c, h, w := im2colDims(in, kh, kw, stride, pad)
	outH := ConvOutputSize(h, kh, stride, pad)
	outW := ConvOutputSize(w, kw, stride, pad)
	checkDst(out, c*kh*kw, outH*outW)
	rowLen := outH * outW
	for row := 0; row < c*kh*kw; row++ {
		ch := row / (kh * kw)
		ky := (row / kw) % kh
		kx := row % kw
		dst := out.data[row*rowLen:]
		for oy := 0; oy < outH; oy++ {
			iy := oy*stride + ky - pad
			for ox := 0; ox < outW; ox++ {
				ix := ox*stride + kx - pad
				var v float64
				if iy >= 0 && iy < h && ix >= 0 && ix < w {
					v = in.data[(ch*h+iy)*w+ix]
				}
				dst[oy*outW+ox] = v
			}
		}
	}
	return out
}

// Col2Im is the adjoint of Im2Col: it scatters a (channels*kh*kw,
// outH*outW) gradient matrix back onto an input-shaped (channels, height,
// width) tensor, accumulating where receptive fields overlap.
func Col2Im(cols *Tensor, c, h, w, kh, kw, stride, pad int) *Tensor {
	return Col2ImInto(New(c, h, w), cols, c, h, w, kh, kw, stride, pad)
}

// Col2ImInto is the destination-passing Col2Im: it zeroes the
// caller-owned (c, h, w) destination and scatter-accumulates into it in
// ch→ky→kx→oy→ox order, one += per in-bounds element.
func Col2ImInto(out, cols *Tensor, c, h, w, kh, kw, stride, pad int) *Tensor {
	outH := (h+2*pad-kh)/stride + 1
	outW := (w+2*pad-kw)/stride + 1
	if len(cols.shape) != 2 || cols.shape[0] != c*kh*kw || cols.shape[1] != outH*outW {
		panic(fmt.Sprintf("tensor: Col2Im shape %v inconsistent with params", cols.shape))
	}
	if len(out.shape) != 3 || out.shape[0] != c || out.shape[1] != h || out.shape[2] != w {
		panic(fmt.Sprintf("tensor: Col2Im destination shape %v, want [%d %d %d]", out.shape, c, h, w))
	}
	out.Fill(0)
	for ch := 0; ch < c; ch++ {
		for ky := 0; ky < kh; ky++ {
			for kx := 0; kx < kw; kx++ {
				row := (ch*kh+ky)*kw + kx
				src := cols.data[row*outH*outW:]
				for oy := 0; oy < outH; oy++ {
					iy := oy*stride + ky - pad
					if iy < 0 || iy >= h {
						continue
					}
					for ox := 0; ox < outW; ox++ {
						ix := ox*stride + kx - pad
						if ix < 0 || ix >= w {
							continue
						}
						out.data[(ch*h+iy)*w+ix] += src[oy*outW+ox]
					}
				}
			}
		}
	}
	return out
}

// refDenseGradW is the scalar dW loop of the Dense backward:
// gw[o,:] += g[o]·x for every o, one multiply then one add per element,
// never skipping a term.
func refDenseGradW(gw, g, x []float64) {
	in := len(x)
	for o := 0; o < len(g); o++ {
		go_ := g[o]
		row := gw[o*in : (o+1)*in]
		for i := 0; i < in; i++ {
			row[i] += go_ * x[i]
		}
	}
}

// refDenseGradIn is the scalar dX loop of the Dense backward:
// gi += g[o]·w[o,:] in ascending o, skipping exactly the g[o] == ±0
// rows (a NaN g[o] compares unequal to 0 and is folded).
func refDenseGradIn(gi, g, w []float64) {
	in := len(gi)
	for o := 0; o < len(g); o++ {
		go_ := g[o]
		if go_ == 0 {
			continue
		}
		row := w[o*in : (o+1)*in]
		for i := 0; i < in; i++ {
			gi[i] += go_ * row[i]
		}
	}
}

// refAdam is the scalar loop of the Adam optimizer's step.
func refAdam(p, g, m, v []float64, beta1, beta2, lr, c1, c2, eps float64) {
	for j := range p {
		m[j] = beta1*m[j] + (1-beta1)*g[j]
		v[j] = beta2*v[j] + (1-beta2)*g[j]*g[j]
		mhat := m[j] / c1
		vhat := v[j] / c2
		p[j] -= lr * mhat / (math.Sqrt(vhat) + eps)
	}
}
