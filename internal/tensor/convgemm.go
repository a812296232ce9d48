// convgemm.go is the implicit-GEMM convolution engine (DESIGN.md §5j).
// A materialized im2col lowering builds the full O(C·KH·KW·OH·OW)
// column matrix before every GEMM — on the CNN hot path that gather (and
// the panel re-pack of its output) costs more than the multiply itself.
// Implicit GEMM fuses the two: the im2col index arithmetic moves into
// the GEBP panel packing, so receptive-field columns are gathered
// tile-by-tile into cache-resident pack buffers and fed straight to the
// dispatched micro-kernel. The column matrix is never built:
//
//   - Forward: out = W × cols. Blocks of nr-wide B-panels are gathered
//     with packConvCols into an L1-resident buffer, and gebpTile is
//     aimed at the matching slice of the output feature map.
//
//   - gradW: gradWProd = g × colsᵀ. Every colsᵀ-panel is gathered with
//     packConvColsT (same gather, transposed write) and multiplied
//     against the packed g.
//
//   - gradIn: cols-gradient stripes per input channel, gebpTile into the
//     kernel's stripe buffer, then a fused col2im-accumulate scatter
//     (scatterConvChannel) with run-clipped bounds instead of per-element
//     branches.
//
// The kernels run sequentially: on the geometries the system builds
// (the DeepMind CNN over 16×16 screens) a conv call is too small to
// shard, so parallelism lives above the network instead.
//
// Determinism contract: every output element's fold is unchanged from
// the materialized reference compositions in the package tests —
// forward folds ascending-k (k = channel-major tap index) exactly like
// the im2col matrix times the naive matmul, gradW folds ascending output
// position exactly like the a×bᵀ reference loop, and gradIn folds
// ascending output channel then scatters in the col2im reference's
// exact ch→ky→kx→oy→ox order. Blocking only chooses which tiles compute
// when. Padding gathers as explicit zeros (never skipped: 0×NaN must
// stay NaN), and pack-buffer pad lanes only feed accumulators that
// clipped stores drop. Enforced bit-for-bit by convgemm_test.go across
// shapes and kernel implementations.
package tensor

import "fmt"

// ConvGeom is the fixed geometry of one convolution: input planes,
// kernel taps, stride/padding, and the derived output extent. The
// implicit-GEMM views it as an OutC×K times K×N product with
// K = InC·KH·KW (channel-major tap index) and N = OutH·OutW (row-major
// output position), matching the im2col matrix's row and column order.
type ConvGeom struct {
	InC, InH, InW int
	KH, KW        int
	Stride, Pad   int
	OutC          int
	OutH, OutW    int

	// oxLoTab/oxHiTab cache oxClip per kernel column: the clip divides
	// by the stride, and the packers would otherwise pay that divide
	// once per contraction row per gather block. Filled by NewConvGeom;
	// a zero-built ConvGeom falls back to computing the clip inline.
	oxLoTab, oxHiTab []int
}

// NewConvGeom validates a convolution configuration and derives the
// output extent. It panics on an invalid geometry.
func NewConvGeom(inC, inH, inW, kh, kw, stride, pad, outC int) ConvGeom {
	if inC <= 0 || inH <= 0 || inW <= 0 || kh <= 0 || kw <= 0 || outC <= 0 || pad < 0 {
		panic(fmt.Sprintf("tensor: invalid conv geometry inC=%d in=%dx%d k=%dx%d outC=%d pad=%d",
			inC, inH, inW, kh, kw, outC, pad))
	}
	if stride < 1 {
		panic("tensor: conv stride must be >= 1")
	}
	g := ConvGeom{
		InC: inC, InH: inH, InW: inW,
		KH: kh, KW: kw, Stride: stride, Pad: pad,
		OutC: outC,
		OutH: ConvOutputSize(inH, kh, stride, pad),
		OutW: ConvOutputSize(inW, kw, stride, pad),
	}
	if g.OutH <= 0 || g.OutW <= 0 {
		panic(fmt.Sprintf("tensor: conv kernel %dx%d too large for %dx%d input (pad %d)", kh, kw, inH, inW, pad))
	}
	g.oxLoTab = make([]int, kw)
	g.oxHiTab = make([]int, kw)
	for kx := 0; kx < kw; kx++ {
		g.oxLoTab[kx], g.oxHiTab[kx] = g.oxClipCompute(kx)
	}
	return g
}

// K returns the GEMM contraction length InC·KH·KW.
func (g *ConvGeom) K() int { return g.InC * g.KH * g.KW }

// Cols returns the GEMM output width OutH·OutW.
func (g *ConvGeom) Cols() int { return g.OutH * g.OutW }

// oxClip returns the output-x range [oxLo, oxHi) whose input column
// ox·stride + kx - pad falls inside [0, InW) — the in-bounds run of one
// output row under kernel tap column kx. Everything outside the run is
// padding (gathers as zero, scatters nowhere).
func (g *ConvGeom) oxClip(kx int) (oxLo, oxHi int) {
	if g.oxLoTab != nil {
		return g.oxLoTab[kx], g.oxHiTab[kx]
	}
	return g.oxClipCompute(kx)
}

// oxClipCompute is the direct form of oxClip, used to fill the table
// and as the fallback for zero-built geometries.
func (g *ConvGeom) oxClipCompute(kx int) (oxLo, oxHi int) {
	if d := g.Pad - kx; d > 0 {
		oxLo = (d + g.Stride - 1) / g.Stride
	}
	if e := g.InW - 1 - kx + g.Pad; e >= 0 {
		if oxHi = e/g.Stride + 1; oxHi > g.OutW {
			oxHi = g.OutW
		}
	}
	if oxLo > oxHi {
		oxLo = oxHi
	}
	return oxLo, oxHi
}

// convZeroRun zeroes count packed elements of one B-panel row, starting
// at write index di with intra-panel offset j; hop is the (k-1)·nr jump
// between consecutive panels of the same row. It returns the advanced
// (di, j) so the packer can thread a whole row's runs through
// sequentially — no index division anywhere (nr is a variable, so a
// pos/nr per run would be a hardware divide on the hottest path).
func convZeroRun(packed []float64, nr, hop, di, j, count int) (int, int) {
	for count > 0 {
		c := nr - j
		if c > count {
			c = count
		}
		d := packed[di : di+c]
		for i := range d {
			d[i] = 0
		}
		di += c
		if j += c; j == nr {
			di += hop
			j = 0
		}
		count -= c
	}
	return di, j
}

// convGatherRun copies count input values starting at in[si] with the
// given stride into one B-panel row at (di, j) — the same threading
// contract as convZeroRun. Chunks are short (≤ nr), so inline element
// loops beat memmove calls; the aligned full-chunk stride-1 case — an
// nr-wide slice of a contiguous input row — is unrolled for the AVX2
// panel width, since it is the inner loop of every unit-stride
// convolution forward.
func convGatherRun(packed, in []float64, nr, hop, di, j, count, si, stride int) (int, int) {
	if stride == 1 {
		for count > 0 {
			if j == 0 && count >= 8 && nr == 8 {
				d := packed[di : di+8]
				s := in[si : si+8]
				d[0], d[1], d[2], d[3] = s[0], s[1], s[2], s[3]
				d[4], d[5], d[6], d[7] = s[4], s[5], s[6], s[7]
				di += 8 + hop
				si += 8
				count -= 8
				continue
			}
			c := nr - j
			if c > count {
				c = count
			}
			d := packed[di : di+c]
			s := in[si : si+c]
			for i := range d {
				d[i] = s[i]
			}
			si += c
			di += c
			if j += c; j == nr {
				di += hop
				j = 0
			}
			count -= c
		}
		return di, j
	}
	for count > 0 {
		c := nr - j
		if c > count {
			c = count
		}
		d := packed[di : di+c]
		for i := range d {
			d[i] = in[si]
			si += stride
		}
		di += c
		if j += c; j == nr {
			di += hop
			j = 0
		}
		count -= c
	}
	return di, j
}

// packConvCols gathers im2col column panels [pLo, pHi) of the implicit
// K×N column matrix straight from the (InC, InH, InW) input into GEBP
// B-panel layout: packed[(p-pLo)·K·nr + kk·nr + jj] = cols[kk][p·nr+jj],
// where cols[kk][pos] is input channel kk/(KH·KW) at tap
// ((kk/KW)%KH, kk%KW) over output position (pos/OutW, pos%OutW), zero
// where the tap lands in padding. Rows gather as runs — a zero fill, a
// contiguous copy (stride 1) or a strided loop — instead of the
// branch-per-element walk of the materialized im2col reference. Lanes
// past column N in the ragged last panel are zeroed; they only feed
// accumulators that clipped stores drop. packed must hold
// (pHi-pLo)·K·nr elements.
func packConvCols(packed, in []float64, g *ConvGeom, nr, pLo, pHi int) {
	k, n := g.K(), g.Cols()
	colLo := pLo * nr
	colHi := pHi * nr
	padEnd := colHi
	if colHi > n {
		colHi = n
	}
	hop := (k - 1) * nr
	// Fast path: the block covers whole output rows (convPackBlock
	// arranges this whenever panels tile rows exactly), so the per-row
	// run bounds are just the precomputed clip — none of the mid-row
	// clamp handling below can trigger. This is every block of every
	// aligned geometry, i.e. the hot path.
	if g.OutW%nr == 0 && colLo%g.OutW == 0 && colHi%g.OutW == 0 && padEnd == colHi {
		oyLo, oyHi := colLo/g.OutW, colHi/g.OutW
		kk := 0
		for ch := 0; ch < g.InC; ch++ {
			chBase := ch * g.InH * g.InW
			for ky := 0; ky < g.KH; ky++ {
				for kx := 0; kx < g.KW; kx++ {
					oxLo, oxHi := g.oxClip(kx)
					di, j := kk*nr, 0
					for oy := oyLo; oy < oyHi; oy++ {
						iy := oy*g.Stride + ky - g.Pad
						if iy < 0 || iy >= g.InH {
							di, j = convZeroRun(packed, nr, hop, di, j, g.OutW)
							continue
						}
						if oxLo > 0 {
							di, j = convZeroRun(packed, nr, hop, di, j, oxLo)
						}
						if oxHi > oxLo {
							si := chBase + iy*g.InW + oxLo*g.Stride + kx - g.Pad
							di, j = convGatherRun(packed, in, nr, hop, di, j, oxHi-oxLo, si, g.Stride)
						}
						if oxHi < g.OutW {
							di, j = convZeroRun(packed, nr, hop, di, j, g.OutW-oxHi)
						}
					}
					kk++
				}
			}
		}
		return
	}
	// One division for the whole call: colLo is panel-aligned, so every
	// row kk starts at intra-panel offset 0 and the write index threads
	// through the run helpers from there. The nested ch/ky/kx loops
	// replace per-kk divisions, and oy advances with the row cursor
	// instead of being re-derived from the position.
	oy0 := colLo / g.OutW
	kk := 0
	for ch := 0; ch < g.InC; ch++ {
		chBase := ch * g.InH * g.InW
		for ky := 0; ky < g.KH; ky++ {
			for kx := 0; kx < g.KW; kx++ {
				oxLo, oxHi := g.oxClip(kx)
				di, j := kk*nr, 0
				pos := colLo
				rowStart := oy0 * g.OutW
				for oy := oy0; pos < colHi; oy++ {
					rowEnd := rowStart + g.OutW
					if rowEnd > colHi {
						rowEnd = colHi
					}
					iy := oy*g.Stride + ky - g.Pad
					if iy < 0 || iy >= g.InH {
						di, j = convZeroRun(packed, nr, hop, di, j, rowEnd-pos)
						pos = rowEnd
						rowStart += g.OutW
						continue
					}
					zA := rowStart + oxLo
					if zA < pos {
						zA = pos
					}
					if zA > rowEnd {
						zA = rowEnd
					}
					zB := rowStart + oxHi
					if zB < zA {
						zB = zA
					}
					if zB > rowEnd {
						zB = rowEnd
					}
					if pos < zA {
						di, j = convZeroRun(packed, nr, hop, di, j, zA-pos)
					}
					if zA < zB {
						si := chBase + iy*g.InW + (zA-rowStart)*g.Stride + kx - g.Pad
						di, j = convGatherRun(packed, in, nr, hop, di, j, zB-zA, si, g.Stride)
					}
					if zB < rowEnd {
						di, j = convZeroRun(packed, nr, hop, di, j, rowEnd-zB)
					}
					pos = rowEnd
					rowStart += g.OutW
				}
				if padEnd > colHi {
					convZeroRun(packed, nr, hop, di, j, padEnd-colHi)
				}
				kk++
			}
		}
	}
}

// packConvColsT gathers colsᵀ panels [pLo, pHi) for the gradW product
// gradWProd = g_out × colsᵀ: panel lane jj of panel p holds weight
// column (tap) p·nr+jj, so packed[(p-pLo)·N·nr + pos·nr + jj] =
// cols[p·nr+jj][pos]. Lanes whose tap index reaches K are zeroed (the
// ragged last panel); they only feed clipped accumulators. packed must
// hold (pHi-pLo)·N·nr elements.
func packConvColsT(packed, in []float64, g *ConvGeom, nr, pLo, pHi int) {
	if nr > maxPanelNR {
		panic(fmt.Sprintf("tensor: packConvColsT panel width %d exceeds %d", nr, maxPanelNR))
	}
	k, n := g.K(), g.Cols()
	taps := g.KH * g.KW
	// Per-lane tap coordinates, hoisted out of the position loops. Dead
	// lanes (tap index ≥ K) get iyBase = InH so the always-invalid iy
	// branch zero-fills their whole row; their other entries are never
	// read. Iterating oy outermost keeps every store inside one
	// OutW·nr-float window of packed, so the strided lane writes stay
	// L1-resident instead of sweeping the whole N·nr panel per lane.
	var iyBase, chOff, kxOff, loA, hiA [maxPanelNR]int
	for p := pLo; p < pHi; p++ {
		for jj := 0; jj < nr; jj++ {
			t := p*nr + jj
			if t >= k {
				iyBase[jj] = g.InH
				continue
			}
			ch := t / taps
			ky := (t / g.KW) % g.KH
			kx := t % g.KW
			iyBase[jj] = ky - g.Pad
			chOff[jj] = ch * g.InH * g.InW
			kxOff[jj] = kx - g.Pad
			loA[jj], hiA[jj] = g.oxClip(kx)
		}
		base0 := (p - pLo) * n * nr
		for oy := 0; oy < g.OutH; oy++ {
			rowBase := base0 + oy*g.OutW*nr
			for jj := 0; jj < nr; jj++ {
				d := packed[rowBase+jj:]
				iy := oy*g.Stride + iyBase[jj]
				if iy < 0 || iy >= g.InH {
					for ox := 0; ox < g.OutW; ox++ {
						d[ox*nr] = 0
					}
					continue
				}
				lo, hi := loA[jj], hiA[jj]
				for ox := 0; ox < lo; ox++ {
					d[ox*nr] = 0
				}
				si := chOff[jj] + iy*g.InW + lo*g.Stride + kxOff[jj]
				di := lo * nr
				if g.Stride == 1 {
					s := in[si:]
					for ox := lo; ox < hi; ox++ {
						d[di] = s[ox-lo]
						di += nr
					}
				} else {
					for ox := lo; ox < hi; ox++ {
						d[di] = in[si]
						di += nr
						si += g.Stride
					}
				}
				for ox := hi; ox < g.OutW; ox++ {
					d[ox*nr] = 0
				}
			}
		}
	}
}

// scatterConvChannel is the fused col2im-accumulate for one input
// channel: it zeroes the channel's (InH, InW) plane of gradIn and
// accumulates the channel's (KH·KW × N) cols-gradient stripe in the
// col2im reference's exact order — ky→kx ascending tap, then oy→ox
// ascending position, one += per in-bounds element — with the padding
// skips precomputed as run clips instead of per-element branches.
func scatterConvChannel(gradIn, stripe []float64, g *ConvGeom, ch int) {
	n := g.Cols()
	plane := gradIn[ch*g.InH*g.InW : (ch+1)*g.InH*g.InW]
	for i := range plane {
		plane[i] = 0
	}
	t := 0
	for ky := 0; ky < g.KH; ky++ {
		for kx := 0; kx < g.KW; kx++ {
			src := stripe[t*n : (t+1)*n]
			oxLo, oxHi := g.oxClip(kx)
			for oy := 0; oy < g.OutH; oy++ {
				iy := oy*g.Stride + ky - g.Pad
				if iy < 0 || iy >= g.InH {
					continue
				}
				row := plane[iy*g.InW : (iy+1)*g.InW]
				srow := src[oy*g.OutW:]
				ix := oxLo*g.Stride + kx - g.Pad
				if g.Stride == 1 {
					d := row[ix : ix+(oxHi-oxLo)]
					s := srow[oxLo:oxHi]
					for i := range d {
						d[i] += s[i]
					}
				} else {
					for ox := oxLo; ox < oxHi; ox++ {
						row[ix] += srow[ox]
						ix += g.Stride
					}
				}
			}
			t++
		}
	}
}

// maxPanelNR bounds the panel width any dispatched kernel may use, so
// per-lane scratch in the packers can live in fixed stack arrays.
const maxPanelNR = 16

// convPackBlockFloats is the target pack-buffer size, in floats, for one
// forward gather block (~16 KiB). Panels are gathered and multiplied in
// blocks of this size so the pack buffer stays L1-resident: gathering
// every panel first (hundreds of KiB on real geometries) would
// evict every panel before the GEBP kernel read it back. Blocking only
// groups whole panels — each output column's fold still happens inside a
// single gebpTile call — so results are unchanged bit for bit.
const convPackBlockFloats = 2048

// convPackBlock returns how many nr-wide panels of contraction length K
// fit the pack-buffer budget: at least one, at most the geometry's
// panel count. When panels tile output rows exactly, the block is
// rounded up to whole rows: every contraction-row pass over the block
// then runs full rows only, with no mid-row clamp handling.
func convPackBlock(g *ConvGeom, nr int) int {
	b := convPackBlockFloats / (g.K() * nr)
	if b < 1 {
		b = 1
	}
	if ppr := g.OutW / nr; ppr > 0 && g.OutW%nr == 0 {
		b = (b + ppr - 1) / ppr * ppr
	}
	if panels := (g.Cols() + nr - 1) / nr; b > panels {
		b = panels
	}
	return b
}

// convForward is the forward block loop shared by the training and the
// compiled path: gather blk column panels of the implicit column matrix
// into packedCols (blk·K·nr floats, L1-resident), then aim the GEBP
// tile at the matching slice of the (OutC × N) output. w is the
// row-major filter matrix, read only for the ragged row tail past its
// full microM-row blocks in packedW.
func convForward(impl *kernelImpl, g *ConvGeom, blk int, out, in, w, packedW, packedCols []float64) {
	k, n, nr := g.K(), g.Cols(), impl.nr
	panels := (n + nr - 1) / nr
	for b := 0; b < panels; b += blk {
		bHi := b + blk
		if bHi > panels {
			bHi = panels
		}
		packConvCols(packedCols, in, g, nr, b, bHi)
		colLo := b * nr
		colHi := bHi * nr
		if colHi > n {
			colHi = n
		}
		impl.gebpTile(out[colLo:], n, w, packedW, packedCols, g.OutC, k, colHi-colLo)
	}
}

// ConvKernel is the implicit-GEMM execution state for one convolution
// geometry on the training path. It runs sequentially — parallelism
// lives above the network, in the serving engine's shards and the
// evaluation rollouts — and owns every buffer its calls need, sized
// from the geometry when it is built, so steady-state Forward/Backward
// allocate nothing. A ConvKernel is owned by one layer and is not
// goroutine-safe.
type ConvKernel struct {
	g    ConvGeom
	impl *kernelImpl
	blk  int // panels per cache-resident forward gather block

	packedW     []float64 // forward: W's full microM-row blocks
	packedCols  []float64 // forward: one gather block of column panels
	packedColsT []float64 // backward gradW: every colsᵀ panel
	packedGA    []float64 // backward gradW: g_out's full microM-row blocks
	packedG     []float64 // backward gradIn: g_out's column panels
	wT          []float64 // backward gradIn: one channel's transposed weights
	packedWT    []float64 // backward gradIn: wT's row blocks
	stripe      []float64 // backward gradIn: one channel's cols-gradient stripe
}

// NewConvKernel builds the implicit-GEMM kernel for a geometry using the
// dispatched implementation.
func NewConvKernel(g ConvGeom) *ConvKernel {
	return newConvKernel(g, kern)
}

// newConvKernel is the implementation-injection constructor the
// bit-identity tests use to exercise every kernelImpl explicitly.
func newConvKernel(g ConvGeom, impl *kernelImpl) *ConvKernel {
	k, n, nr := g.K(), g.Cols(), impl.nr
	blocks := g.OutC / microM
	// The input-gradient pass pads the tap count to whole microM rows
	// (see backwardInput).
	mPad := (g.KH*g.KW + microM - 1) / microM * microM
	ck := &ConvKernel{
		g: g, impl: impl,
		blk:         convPackBlock(&g, nr),
		packedW:     make([]float64, blocks*microM*k),
		packedColsT: make([]float64, (k+nr-1)/nr*n*nr),
		packedGA:    make([]float64, blocks*microM*n),
		packedG:     make([]float64, (n+nr-1)/nr*nr*g.OutC),
		wT:          make([]float64, mPad*g.OutC),
		packedWT:    make([]float64, mPad*g.OutC),
		stripe:      make([]float64, mPad*n),
	}
	ck.packedCols = make([]float64, ck.blk*k*nr)
	return ck
}

// Geom returns the kernel's fixed geometry.
func (ck *ConvKernel) Geom() ConvGeom { return ck.g }

// Forward computes out = W × im2col(in) without materializing the
// column matrix. in is (InC·InH·InW), w is the row-major (OutC × K)
// filter matrix, out is the (OutC × N) pre-bias output. Weights are
// packed per call (the training path mutates them every step); the
// compiled serving path prepacks once via PrepackConv instead. Results
// are bit-identical to the materialized im2col-plus-naive-matmul
// reference.
func (ck *ConvKernel) Forward(out, in, w []float64) {
	g := &ck.g
	ck.checkOperand("in", in, g.InC*g.InH*g.InW)
	ck.checkOperand("w", w, g.OutC*g.K())
	ck.checkOperand("out", out, g.OutC*g.Cols())
	packRows(ck.packedW, w, g.K(), g.OutC/microM)
	convForward(ck.impl, g, ck.blk, out, in, w, ck.packedW, ck.packedCols)
}

// Backward computes the weight-gradient product gradWProd = g_out ×
// im2col(in)ᵀ (overwritten, formed from zero — the caller adds it into
// the accumulated gradient, one example at a time) and the input
// gradient gradIn (overwritten), without materializing the column
// matrix or its gradient. gout is the (OutC × N) output gradient; in
// must be the same buffer passed to the matching Forward. Bit-identical
// to the materialized a×bᵀ and aᵀ×b-plus-col2im reference
// compositions.
//
// A nil gradIn skips the input gradient: neither g_out's column panels,
// which only that product reads, nor the per-channel pass run. A
// network's first layer needs no dL/dinput, and gradWProd does not
// depend on it.
func (ck *ConvKernel) Backward(gradWProd, gradIn, in, w, gout []float64) {
	g := &ck.g
	k, n, nr := g.K(), g.Cols(), ck.impl.nr
	ck.checkOperand("in", in, g.InC*g.InH*g.InW)
	ck.checkOperand("w", w, g.OutC*k)
	ck.checkOperand("gout", gout, g.OutC*n)
	ck.checkOperand("gradWProd", gradWProd, g.OutC*k)
	if gradIn != nil {
		ck.checkOperand("gradIn", gradIn, g.InC*g.InH*g.InW)
		packPanels(ck.packedG, gout, g.OutC, n, nr)
		ck.backwardInput(gradIn, w)
	}
	// gradWProd: gather every colsᵀ panel and multiply against g_out's
	// row blocks. Each element folds over all N positions inside the
	// one gebpTile call.
	packRows(ck.packedGA, gout, n, g.OutC/microM)
	packConvColsT(ck.packedColsT, in, g, nr, 0, (k+nr-1)/nr)
	ck.impl.gebpTile(gradWProd, k, gout, ck.packedGA, ck.packedColsT, g.OutC, n, k)
}

// backwardInput forms the input gradient one channel at a time from the
// packed g_out column panels. Per channel: materialize the tiny
// (KH·KW × OutC) transposed weight block, GEBP it against g_out into the
// cols-gradient stripe (fold ascending output channel, exactly the aᵀ×b
// reference loop's order), then scatter the stripe onto the channel's
// input plane in the col2im reference's order.
func (ck *ConvKernel) backwardInput(gradIn, w []float64) {
	g := &ck.g
	k, n := g.K(), g.Cols()
	taps := g.KH * g.KW
	outC := g.OutC
	// The row count is padded to whole microM blocks with zero rows: the
	// GEBP kernel then runs full register tiles only (no scalar
	// ragged-row tail, which otherwise fires once per panel for small
	// tap counts). The pad rows compute zeros into stripe rows the
	// scatter never reads; rows [0, taps) fold exactly as before. The
	// pad rows of wT stay zero from construction.
	mPad := len(ck.wT) / outC
	for ch := 0; ch < g.InC; ch++ {
		for t := 0; t < taps; t++ {
			col := ch*taps + t
			for oc := 0; oc < outC; oc++ {
				ck.wT[t*outC+oc] = w[oc*k+col]
			}
		}
		packRows(ck.packedWT, ck.wT, outC, mPad/microM)
		ck.impl.gebpTile(ck.stripe, n, ck.wT, ck.packedWT, ck.packedG, mPad, outC, n)
		scatterConvChannel(gradIn, ck.stripe, g, ch)
	}
}

func (ck *ConvKernel) checkOperand(name string, s []float64, want int) {
	if len(s) != want {
		panic(fmt.Sprintf("tensor: ConvKernel %s length %d, want %d (geom %+v)", name, len(s), want, ck.g))
	}
}

// PackedConv is a convolution's filter matrix packed once for the
// compiled serving path (the conv analogue of PackedDense): the GEBP
// row blocks plus the raw row-major snapshot for the ragged tail.
// Forward gathers input columns per call — that work depends on the
// input — but never packs or copies the weights again.
type PackedConv struct {
	g       ConvGeom
	w       []float64 // row-major (OutC × K) snapshot
	packedW []float64 // full microM-row blocks, kk-major
	blk     int       // panels per cache-resident gather block
}

// PrepackConv snapshots a (OutC × K) filter tensor into packed form for
// the geometry. Mutating w afterwards does not affect the pack — the
// compiled-plan contract.
func PrepackConv(w *Tensor, g ConvGeom) *PackedConv {
	shape := w.Shape()
	if len(shape) != 2 || shape[0] != g.OutC || shape[1] != g.K() {
		panic(fmt.Sprintf("tensor: PrepackConv weights %v, want [%d %d]", shape, g.OutC, g.K()))
	}
	p := &PackedConv{g: g, w: append([]float64(nil), w.Data()...)}
	blocks := g.OutC / microM
	p.packedW = make([]float64, blocks*microM*g.K())
	packRows(p.packedW, p.w, g.K(), blocks)
	p.blk = convPackBlock(&p.g, kern.nr)
	return p
}

// Geom returns the packed convolution's geometry.
func (p *PackedConv) Geom() ConvGeom { return p.g }

// PackedColsLen returns the scratch length Forward needs for one
// cache-resident gather block under the active kernel's geometry.
func (p *PackedConv) PackedColsLen() int {
	return p.blk * p.g.K() * kern.nr
}

// Forward computes the pre-bias (OutC × N) output, gathering the
// input's receptive-field columns into the caller-owned packedCols
// scratch (length ≥ PackedColsLen) and running the shared block loop
// over the prepacked filters. No allocation, no weight packing,
// bit-identical to the training path and the naive reference.
func (p *PackedConv) Forward(out, in, packedCols []float64) {
	g := &p.g
	if len(in) != g.InC*g.InH*g.InW {
		panic(fmt.Sprintf("tensor: PackedConv input %d, want %d", len(in), g.InC*g.InH*g.InW))
	}
	if len(out) != g.OutC*g.Cols() {
		panic(fmt.Sprintf("tensor: PackedConv output %d, want %d", len(out), g.OutC*g.Cols()))
	}
	if need := p.PackedColsLen(); len(packedCols) < need {
		panic(fmt.Sprintf("tensor: PackedConv scratch %d, need %d", len(packedCols), need))
	}
	convForward(kern, g, p.blk, out, in, p.w, p.packedW, packedCols)
}
