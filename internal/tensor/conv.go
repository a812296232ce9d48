package tensor

import (
	"fmt"

	"github.com/autonomizer/autonomizer/internal/parallel"
)

// convCutoff is the minimum total element count at which the im2col /
// col2im lowerings shard over the worker pool.
const convCutoff = 16 * 1024

// Im2Col lowers a convolution over an input of shape (channels, height,
// width) into a matrix multiplication. It returns a matrix of shape
// (channels*kh*kw, outH*outW) where each column is the receptive field of
// one output position. stride must be >= 1; pad adds implicit zeros on
// every edge.
//
// Im2Col is the materialized reference lowering: output =
// weights(outC, inC*kh*kw) × Im2Col(input). The CNN layers execute the
// implicit-GEMM ConvKernel (convgemm.go), which never builds this
// matrix; its bit-identity tests and scripts/check_kernels.sh compare
// it against this lowering.
//
// Large inputs shard the (channel, ky, kx) rows over the worker pool;
// each row fills a disjoint slice of the output, so results are
// bit-identical at any worker count.
func Im2Col(in *Tensor, kh, kw, stride, pad int) *Tensor {
	c, h, _ := im2colDims(in, kh, kw, stride, pad)
	outH := ConvOutputSize(h, kh, stride, pad)
	outW := ConvOutputSize(in.shape[2], kw, stride, pad)
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
// caller-owned (c·kh·kw, outH·outW) destination and returns it, so the
// convolution forward pass reuses one column buffer across calls.
func Im2ColInto(out, in *Tensor, kh, kw, stride, pad int) *Tensor {
	c, h, w := im2colDims(in, kh, kw, stride, pad)
	outH := ConvOutputSize(h, kh, stride, pad)
	outW := ConvOutputSize(w, kw, stride, pad)
	checkDst(out, c*kh*kw, outH*outW)
	rows, rowLen := c*kh*kw, outH*outW
	grain := rows
	if rows*rowLen >= convCutoff {
		if grain = convCutoff / rowLen; grain < 1 {
			grain = 1
		}
	}
	parallel.For(rows, grain, func(lo, hi int) {
		im2colRows(out.data, in.data, lo, hi, h, w, kh, kw, stride, pad, outH, outW)
	})
	return out
}

// im2colRows fills im2col rows [lo, hi): row (ch·kh+ky)·kw+kx holds the
// input value under kernel tap (ky, kx) of channel ch at every output
// position, zero where the tap lands in padding.
func im2colRows(out, in []float64, lo, hi, h, w, kh, kw, stride, pad, outH, outW int) {
	rowLen := outH * outW
	for row := lo; row < hi; row++ {
		ch := row / (kh * kw)
		ky := (row / kw) % kh
		kx := row % kw
		dst := out[row*rowLen:]
		for oy := 0; oy < outH; oy++ {
			iy := oy*stride + ky - pad
			for ox := 0; ox < outW; ox++ {
				ix := ox*stride + kx - pad
				var v float64
				if iy >= 0 && iy < h && ix >= 0 && ix < w {
					v = in[(ch*h+iy)*w+ix]
				}
				dst[oy*outW+ox] = v
			}
		}
	}
}

// Col2Im is the adjoint of Im2Col: it scatters a (channels*kh*kw,
// outH*outW) gradient matrix back onto an input-shaped (channels, height,
// width) tensor, accumulating where receptive fields overlap. It is used
// for the convolution backward pass.
//
// Sharding is by input channel: receptive fields overlap within a
// channel but never across channels, so each worker accumulates into a
// disjoint (h×w) plane with the sequential accumulation order preserved.
func Col2Im(cols *Tensor, c, h, w, kh, kw, stride, pad int) *Tensor {
	return Col2ImInto(New(c, h, w), cols, c, h, w, kh, kw, stride, pad)
}

// Col2ImInto is the destination-passing Col2Im: it zeroes the
// caller-owned (c, h, w) destination, scatter-accumulates into it and
// returns it, so the convolution backward pass reuses one input-gradient
// buffer across calls.
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
	perChannel := kh * kw * outH * outW
	grain := c
	if perChannel > 0 && c*perChannel >= convCutoff {
		if grain = convCutoff / perChannel; grain < 1 {
			grain = 1
		}
	}
	parallel.For(c, grain, func(clo, chi int) {
		for ch := clo; ch < chi; ch++ {
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
	})
	return out
}

// ConvOutputSize returns the spatial output size of a convolution or
// pooling window: (inSize + 2*pad - kernel)/stride + 1.
func ConvOutputSize(in, kernel, stride, pad int) int {
	return (in+2*pad-kernel)/stride + 1
}
