package nn

import (
	"fmt"
	"math"

	"github.com/autonomizer/autonomizer/internal/auerr"
	"github.com/autonomizer/autonomizer/internal/stats"
	"github.com/autonomizer/autonomizer/internal/tensor"
)

// Conv2D is a 2-D convolution layer over (channels, height, width)
// inputs, executed by the implicit-GEMM kernel (tensor.ConvKernel): the
// im2col column matrix is never materialized — receptive-field columns
// are gathered tile-by-tile inside the GEMM's panel packing, for both
// the forward product and the two backward products. The paper's "Raw"
// configurations use three of these (each followed by max pooling) to
// digest raw screen pixels, mirroring the DeepMind Atari architecture.
type Conv2D struct {
	InC, OutC          int
	KH, KW             int
	Stride, Pad        int
	inH, inW           int // remembered from the last forward pass
	weights            *tensor.Tensor
	bias               *tensor.Tensor
	gradW, gradB       *tensor.Tensor
	lastOutH, lastOutW int

	// kern is the implicit-GEMM execution state, built lazily on the
	// first Forward and rebuilt when the input extent changes.
	kern *tensor.ConvKernel

	// lastIn is the input tensor passed to Forward; Backward re-gathers
	// receptive fields from it for the weight gradient, so the caller
	// must not mutate the input between Forward and the matching
	// Backward (the same contract as Dense's saved input view). This
	// replaces the materialized im2col cache, which was the layer's
	// largest buffer.
	lastIn *tensor.Tensor

	// Reused scratch (DESIGN.md §5e): the 2-D output and its
	// (OutC, outH, outW) view, the per-example gradW product and the
	// input gradient are layer-owned and
	// recycled across calls, so steady-state forward/backward allocates
	// nothing. Outputs are valid until the next call on this layer.
	out2d     *tensor.Tensor
	outView   *tensor.Tensor
	gradWProd *tensor.Tensor // one example's gradW product
	gradIn    *tensor.Tensor
}

// NewConv2D constructs a convolution layer with He initialization.
func NewConv2D(inC, outC, kh, kw, stride, pad int, rng *stats.RNG) *Conv2D {
	if inC <= 0 || outC <= 0 || kh <= 0 || kw <= 0 || stride <= 0 || pad < 0 {
		auerr.Failf("nn: invalid Conv2D params inC=%d outC=%d k=%dx%d stride=%d pad=%d",
			inC, outC, kh, kw, stride, pad)
	}
	c := &Conv2D{
		InC: inC, OutC: outC, KH: kh, KW: kw, Stride: stride, Pad: pad,
		weights: tensor.New(outC, inC*kh*kw),
		bias:    tensor.New(outC),
		gradW:   tensor.New(outC, inC*kh*kw),
		gradB:   tensor.New(outC),
	}
	scale := math.Sqrt(2.0 / float64(inC*kh*kw))
	for i := range c.weights.Data() {
		c.weights.Data()[i] = rng.NormFloat64() * scale
	}
	return c
}

// Forward convolves the (InC, H, W) input, returning (OutC, outH, outW).
// The input must stay unchanged until the matching Backward (see lastIn).
func (c *Conv2D) Forward(in *tensor.Tensor) *tensor.Tensor {
	s := in.Shape()
	if len(s) != 3 || s[0] != c.InC {
		auerr.Failf("nn: Conv2D expects (%d,H,W) input, got %v", c.InC, s)
	}
	if c.kern == nil || c.inH != s[1] || c.inW != s[2] {
		c.kern = tensor.NewConvKernel(tensor.NewConvGeom(
			c.InC, s[1], s[2], c.KH, c.KW, c.Stride, c.Pad, c.OutC))
	}
	c.inH, c.inW = s[1], s[2]
	geom := c.kern.Geom()
	c.lastOutH, c.lastOutW = geom.OutH, geom.OutW
	n := c.lastOutH * c.lastOutW
	c.lastIn = in
	c.out2d = tensor.Reuse(c.out2d, c.OutC, n)
	out := c.out2d
	c.kern.Forward(out.Data(), in.Data(), c.weights.Data()) // (OutC, outH*outW)
	addBias(out.Data(), c.bias.Data(), n, false)
	c.outView = tensor.ViewOf(c.outView, out.Data(), c.OutC, c.lastOutH, c.lastOutW)
	return c.outView
}

// addBias is the conv bias kernel: it adds bias[oc] to row oc of the n
// columns of out after the product, exactly like the im2col reference
// (bias never enters the FMA fold). With withReLU it applies relu to
// each sum in the same pass — the compiled plan's fusion of a conv and
// the ReLU after it, one sweep over out cheaper than the two layers.
func addBias(out, bias []float64, n int, withReLU bool) {
	for oc, b := range bias {
		row := out[oc*n : (oc+1)*n]
		if withReLU {
			for i, v := range row {
				row[i] = relu(v + b)
			}
			continue
		}
		for i := range row {
			row[i] += b
		}
	}
}

// Backward accumulates weight/bias gradients and returns the input
// gradient via the fused implicit-GEMM adjoints (no column matrix, no
// column-gradient matrix).
func (c *Conv2D) Backward(gradOut *tensor.Tensor) *tensor.Tensor {
	c.backward(gradOut, true)
	return c.gradIn
}

// backwardParams is Backward without dL/dinput: the kernel skips the
// per-channel input-gradient pass (paramBackwarder).
func (c *Conv2D) backwardParams(gradOut *tensor.Tensor) { c.backward(gradOut, false) }

// backward accumulates the weight and bias gradients and, withIn, forms
// dL/dinput in c.gradIn.
func (c *Conv2D) backward(gradOut *tensor.Tensor, withIn bool) {
	if c.lastIn == nil {
		auerr.Failf("nn: Conv2D Backward before Forward")
	}
	var gradIn []float64
	if withIn {
		c.gradIn = tensor.Reuse(c.gradIn, c.InC, c.inH, c.inW)
		gradIn = c.gradIn.Data()
	}
	n := c.lastOutH * c.lastOutW
	g := gradOut.Data()
	// dL/dW += g × im2col(in)ᵀ, gathered implicitly. The per-example
	// product is formed from zero and then added (not chained through
	// the accumulator): that is the fold rl's golden digests pin, so
	// chaining would change trained weights. dL/dinput = col2im(Wᵀ × g),
	// scattered directly from the kernel's per-channel stripes.
	c.gradWProd = tensor.Reuse(c.gradWProd, c.OutC, c.InC*c.KH*c.KW)
	c.kern.Backward(c.gradWProd.Data(), gradIn, c.lastIn.Data(), c.weights.Data(), g)
	c.gradW.AddInPlace(c.gradWProd)
	// dL/db = row sums of g
	for oc := 0; oc < c.OutC; oc++ {
		sum := 0.0
		for _, v := range g[oc*n : (oc+1)*n] {
			sum += v
		}
		c.gradB.Data()[oc] += sum
	}
}

// Params returns the kernel and bias tensors.
func (c *Conv2D) Params() []*tensor.Tensor { return []*tensor.Tensor{c.weights, c.bias} }

// Grads returns the accumulated gradients.
func (c *Conv2D) Grads() []*tensor.Tensor { return []*tensor.Tensor{c.gradW, c.gradB} }

// ZeroGrads clears the accumulated gradients.
func (c *Conv2D) ZeroGrads() {
	c.gradW.Fill(0)
	c.gradB.Fill(0)
}

// Name implements Layer.
func (c *Conv2D) Name() string {
	return fmt.Sprintf("conv2d(%d->%d,%dx%d,s%d,p%d)", c.InC, c.OutC, c.KH, c.KW, c.Stride, c.Pad)
}

// MaxPool2D performs non-overlapping spatial max pooling. The paper's
// DeepMind-style Raw models follow each convolution with one of these.
type MaxPool2D struct {
	Size int
	// in views the input of the last Forward; Backward rescans its
	// windows for the winners, so the caller must not mutate the input
	// between Forward and the matching Backward (DESIGN.md §5e).
	in      []float64
	inShape []int
	out     *tensor.Tensor // reused output buffer, valid until next Forward
	gradIn  *tensor.Tensor // reused backward buffer, valid until next Backward
}

// NewMaxPool2D constructs a pooling layer with a square window.
func NewMaxPool2D(size int) *MaxPool2D {
	if size <= 0 {
		auerr.Failf("nn: MaxPool2D size must be positive")
	}
	return &MaxPool2D{Size: size}
}

// poolWindow scans the size×size window of a row-width-w plane whose
// top-left element is src[at], row by row against a -Inf start with
// strict >, so NaN never wins and the first of tied maxima does. It
// returns the maximum and the index of its element; a window with
// nothing above -Inf (all NaN or -Inf) reports -Inf at its first
// element.
func poolWindow(src []float64, at, w, size int) (best float64, idx int) {
	best, idx = negInf, at
	for dy := 0; dy < size; dy++ {
		row := at + dy*w
		for i, v := range src[row : row+size] {
			if v > best {
				best, idx = v, row+i
			}
		}
	}
	return best, idx
}

// negInf is the pooling start value. Reading it costs the inliner less
// than calling math.Inf, which keeps pool2 inlined in both loops.
var negInf = math.Inf(-1)

// pool2 is poolWindow unrolled for the dominant 2×2 window: the one
// whose top row starts at r0[x] and bottom row at r1[x]. It compares in
// poolWindow's order and reports the winner's position k as row k>>1,
// column k&1 (0 when nothing beats -Inf).
func pool2(r0, r1 []float64, x int) (best float64, k int) {
	best = negInf
	if v := r0[x]; v > best {
		best = v
	}
	if v := r0[x+1]; v > best {
		best, k = v, 1
	}
	if v := r1[x]; v > best {
		best, k = v, 2
	}
	if v := r1[x+1]; v > best {
		best, k = v, 3
	}
	return best, k
}

// maxPool is the max-pooling kernel: each channel of the (c, h, w)
// input src pooled by size×size windows at stride size into the
// (c, h/size, w/size) dst, ragged edges truncated.
func maxPool(dst, src []float64, c, h, w, size int) {
	oh, ow := h/size, w/size
	for ch := 0; ch < c; ch++ {
		for oy := 0; oy < oh; oy++ {
			at := (ch*h + oy*size) * w
			orow := dst[(ch*oh+oy)*ow : (ch*oh+oy+1)*ow]
			if size == 2 {
				r0, r1 := src[at:at+w], src[at+w:at+2*w]
				for ox := range orow {
					orow[ox], _ = pool2(r0, r1, 2*ox)
				}
				continue
			}
			for ox := range orow {
				orow[ox], _ = poolWindow(src, at+ox*size, w, size)
			}
		}
	}
}

// Forward max-pools each channel with a size×size window and stride
// equal to the window size. Ragged edges truncate.
func (m *MaxPool2D) Forward(in *tensor.Tensor) *tensor.Tensor {
	s := in.Shape()
	if len(s) != 3 {
		auerr.Failf("nn: MaxPool2D expects (C,H,W), got %v", s)
	}
	c, h, w := s[0], s[1], s[2]
	oh, ow := h/m.Size, w/m.Size
	if oh == 0 || ow == 0 {
		auerr.Failf("nn: MaxPool2D window %d too large for %dx%d input", m.Size, h, w)
	}
	m.in = in.Data()
	m.inShape = append(m.inShape[:0], s...)
	m.out = tensor.Reuse(m.out, c, oh, ow)
	maxPool(m.out.Data(), m.in, c, h, w, m.Size)
	return m.out
}

// Backward routes each output gradient to the input position that won
// its window in Forward (the window's first element when none beat -Inf).
func (m *MaxPool2D) Backward(gradOut *tensor.Tensor) *tensor.Tensor {
	if m.inShape == nil {
		auerr.Failf("nn: MaxPool2D Backward before Forward")
	}
	c, h, w := m.inShape[0], m.inShape[1], m.inShape[2]
	oh, ow := h/m.Size, w/m.Size
	if gradOut.Size() != c*oh*ow {
		auerr.Failf("nn: MaxPool2D Backward shape mismatch")
	}
	m.gradIn = tensor.Reuse(m.gradIn, m.inShape...)
	gi := m.gradIn.Data()
	clear(gi)
	g := gradOut.Data()
	for ch := 0; ch < c; ch++ {
		for oy := 0; oy < oh; oy++ {
			at := (ch*h + oy*m.Size) * w
			grow := g[(ch*oh+oy)*ow : (ch*oh+oy+1)*ow]
			if m.Size == 2 {
				r0, r1 := m.in[at:at+w], m.in[at+w:at+2*w]
				for ox, gv := range grow {
					_, k := pool2(r0, r1, 2*ox)
					gi[at+(k>>1)*w+2*ox+k&1] += gv
				}
				continue
			}
			for ox, gv := range grow {
				_, idx := poolWindow(m.in, at+ox*m.Size, w, m.Size)
				gi[idx] += gv
			}
		}
	}
	return m.gradIn
}

// Params implements Layer (pooling has none).
func (m *MaxPool2D) Params() []*tensor.Tensor { return nil }

// Grads implements Layer.
func (m *MaxPool2D) Grads() []*tensor.Tensor { return nil }

// ZeroGrads implements Layer.
func (m *MaxPool2D) ZeroGrads() {}

// Name implements Layer.
func (m *MaxPool2D) Name() string { return fmt.Sprintf("maxpool(%d)", m.Size) }
