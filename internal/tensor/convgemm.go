// convgemm.go is the implicit-GEMM convolution engine (DESIGN.md §5j).
// A materialized im2col lowering builds the full O(C·KH·KW·OH·OW)
// column matrix before every GEMM — on the CNN hot path that gather (and
// the panel re-pack of its output) costs more than the multiply itself.
// Implicit GEMM fuses the two: the im2col index arithmetic moves into
// the GEBP panel packing, so receptive-field columns are gathered
// tile-by-tile into cache-resident pack buffers and fed straight to the
// dispatched micro-kernel. The column matrix is never built:
//
//   - Forward: out = W × cols. Output column panels are sharded over the
//     pool; each shard gathers its own nr-wide B-panels with packConvCols
//     and aims gebpTile at its slice of the output feature map.
//
//   - gradW: gradWProd = g × colsᵀ. Weight-column panels are sharded;
//     each shard gathers colsᵀ-panels with packConvColsT (same gather,
//     transposed write) and multiplies against the once-packed g.
//
//   - gradIn: cols-gradient stripes per input channel, gebpTile into a
//     per-worker stripe, then a fused col2im-accumulate scatter
//     (scatterConvChannel) with run-clipped bounds instead of per-element
//     branches.
//
// Determinism contract: every output element's fold is unchanged from
// the materialized reference compositions in the package tests —
// forward folds ascending-k (k = channel-major tap index) exactly like
// the im2col matrix times the naive matmul, gradW folds ascending output
// position exactly like the a×bᵀ reference loop, and gradIn folds
// ascending output channel then scatters in the col2im reference's
// exact ch→ky→kx→oy→ox order. Sharding only chooses which tiles compute
// when. Padding gathers as explicit zeros (never skipped: 0×NaN must
// stay NaN), and pack-buffer pad lanes only feed accumulators that
// clipped stores drop. Enforced bit-for-bit by convgemm_test.go across shapes,
// widths and kernel implementations.
package tensor

import (
	"fmt"

	"github.com/autonomizer/autonomizer/internal/parallel"
)

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
// blocks of this size so the pack buffer stays L1-resident: gathering an
// entire shard's panels first (hundreds of KiB on real geometries) would
// evict every panel before the GEBP kernel read it back. Blocking only
// groups whole panels — each output column's fold still happens inside a
// single gebpTile call — so results are unchanged bit for bit.
const convPackBlockFloats = 2048

// convPackBlock returns how many nr-wide panels of contraction length K
// fit the pack-buffer budget (at least one). When panels tile output
// rows exactly, the block is rounded up to whole rows: every
// contraction-row pass over the block then runs full rows only, with no
// mid-row clamp handling.
func convPackBlock(g *ConvGeom, nr int) int {
	b := convPackBlockFloats / (g.K() * nr)
	if b < 1 {
		b = 1
	}
	if ppr := g.OutW / nr; ppr > 0 && g.OutW%nr == 0 {
		b = (b + ppr - 1) / ppr * ppr
	}
	return b
}

// convGrain returns a panel/channel sharding grain for units of the
// given per-unit cost: enough units per chunk that each chunk is at
// least one matMulCutoff worth of work. Depends only on the geometry, so
// chunk boundaries are fixed per kernel at any width.
func convGrain(unitCost int) int {
	if g := matMulCutoff / (unitCost + 1); g > 1 {
		return g
	}
	return 1
}

// ConvKernel is the implicit-GEMM execution state for one convolution
// geometry on the training path. It exists to make steady-state
// Forward/Backward allocation-free at any worker width: the shard
// bodies are built once as persistent closures over the kernel's
// mutable per-call fields (a closure literal at each call site would
// heap-allocate its header per call, because parallel.For's fn
// escapes), and all transient buffers come from the shared Scratch
// arena. A ConvKernel is owned by one layer and is not goroutine-safe;
// the parallelism inside a call shards over disjoint output tiles.
type ConvKernel struct {
	g    ConvGeom
	impl *kernelImpl

	// Fixed sharding geometry, derived from g at construction.
	fwdPanels, fwdGrain int
	fwdBlock            int // panels per cache-resident gather block
	wPanels, wGrain     int
	chGrain             int

	// Per-call operands, set by Forward/Backward before dispatching the
	// persistent shard closures, cleared after.
	in, w, out    []float64
	gout          []float64
	gradW, gradIn []float64
	packedW       []float64 // forward: W's full row blocks
	packedG       []float64 // backward gradIn: g_out column panels
	packedGA      []float64 // backward gradW: g_out full row blocks
	fwdShard      func(lo, hi int)
	bwdChShard    func(lo, hi int)
	bwdWShard     func(lo, hi int)
}

// NewConvKernel builds the implicit-GEMM kernel for a geometry using the
// dispatched implementation.
func NewConvKernel(g ConvGeom) *ConvKernel {
	return newConvKernel(g, kern)
}

// newConvKernel is the implementation-injection constructor the
// bit-identity tests use to exercise every kernelImpl explicitly.
func newConvKernel(g ConvGeom, impl *kernelImpl) *ConvKernel {
	k, n := g.K(), g.Cols()
	nr := impl.nr
	taps := g.KH * g.KW
	ck := &ConvKernel{
		g: g, impl: impl,
		fwdPanels: (n + nr - 1) / nr,
		fwdGrain:  convGrain(nr * k * g.OutC),
		fwdBlock:  convPackBlock(&g, nr),
		wPanels:   (k + nr - 1) / nr,
		wGrain:    convGrain(nr * n * g.OutC),
		chGrain:   convGrain(taps * g.OutC * n),
	}
	ck.fwdShard = ck.runFwdShard
	ck.bwdChShard = ck.runBwdChShard
	ck.bwdWShard = ck.runBwdWShard
	return ck
}

// Geom returns the kernel's fixed geometry.
func (ck *ConvKernel) Geom() ConvGeom { return ck.g }

// runFwdShard computes output column panels [pLo, pHi): gather the
// panels' receptive-field columns into an L1-resident pack buffer, one
// convPackBlock-sized block at a time, aiming the GEBP tile kernel at
// the corresponding slice of the (OutC × N) output after each gather.
func (ck *ConvKernel) runFwdShard(pLo, pHi int) {
	g := &ck.g
	k, n, nr := g.K(), g.Cols(), ck.impl.nr
	blk := ck.fwdBlock
	if blk > pHi-pLo {
		blk = pHi - pLo
	}
	pb := Scratch.Get(blk * k * nr)
	local := *pb
	for b := pLo; b < pHi; b += blk {
		bHi := b + blk
		if bHi > pHi {
			bHi = pHi
		}
		packConvCols(local, ck.in, g, nr, b, bHi)
		colLo := b * nr
		colHi := bHi * nr
		if colHi > n {
			colHi = n
		}
		ck.impl.gebpTile(ck.out[colLo:], n, ck.w, ck.packedW, local, g.OutC, k, colHi-colLo)
	}
	Scratch.Put(pb)
}

// runBwdWShard computes weight-gradient column panels [pLo, pHi) of
// gradWProd = g_out × colsᵀ: gather the transposed column panels and
// multiply against the once-packed g_out. Each shard writes a disjoint
// column slice of the (OutC × K) product; the per-element fold over all
// N positions happens inside one gebpTile call, so sharding never
// touches it.
func (ck *ConvKernel) runBwdWShard(pLo, pHi int) {
	g := &ck.g
	k, n, nr := g.K(), g.Cols(), ck.impl.nr
	pb := Scratch.Get((pHi - pLo) * n * nr)
	local := *pb
	packConvColsT(local, ck.in, g, nr, pLo, pHi)
	colLo := pLo * nr
	colHi := pHi * nr
	if colHi > k {
		colHi = k
	}
	ck.impl.gebpTile(ck.gradW[colLo:], k, ck.gout, ck.packedGA, local, g.OutC, n, colHi-colLo)
	Scratch.Put(pb)
}

// runBwdChShard computes the input gradient for channels [chLo, chHi).
// Per channel: materialize the tiny (KH·KW × OutC) transposed weight
// block, GEBP it against the once-packed g_out into a per-worker
// cols-gradient stripe (fold ascending output channel, exactly the
// aᵀ×b reference loop's order), then scatter the stripe onto the
// channel's input plane in the col2im reference's order.
func (ck *ConvKernel) runBwdChShard(chLo, chHi int) {
	g := &ck.g
	k, n := g.K(), g.Cols()
	taps := g.KH * g.KW
	outC := g.OutC
	// Pad the row count to whole microM blocks with zero rows: the GEBP
	// kernel then runs full register tiles only (no scalar ragged-row
	// tail, which otherwise fires once per panel for small tap counts).
	// The pad rows compute zeros into stripe rows the scatter never
	// reads; rows [0, taps) fold exactly as before.
	mPad := (taps + microM - 1) / microM * microM
	blocks := mPad / microM
	ps := Scratch.Get(mPad * n)
	stripe := *ps
	pl := Scratch.Get(mPad*outC + blocks*microM*outC)
	local := *pl
	la := local[:mPad*outC]
	lp := local[mPad*outC:]
	for i := taps * outC; i < mPad*outC; i++ {
		la[i] = 0
	}
	for ch := chLo; ch < chHi; ch++ {
		for t := 0; t < taps; t++ {
			col := ch*taps + t
			for oc := 0; oc < outC; oc++ {
				la[t*outC+oc] = ck.w[oc*k+col]
			}
		}
		packRows(lp, la, outC, blocks)
		ck.impl.gebpTile(stripe, n, la, lp, ck.packedG, mPad, outC, n)
		scatterConvChannel(ck.gradIn, stripe, g, ch)
	}
	Scratch.Put(pl)
	Scratch.Put(ps)
}

// Forward computes out = W × im2col(in) without materializing the
// column matrix. in is (InC·InH·InW), w is the row-major (OutC × K)
// filter matrix, out is the (OutC × N) pre-bias output. Weights are
// packed per call (the training path mutates them every step); the
// compiled serving path prepacks once via PrepackConv instead. Output
// column panels shard over the worker pool; results are bit-identical
// to the materialized im2col-plus-naive-matmul reference at any width.
func (ck *ConvKernel) Forward(out, in, w []float64) {
	g := &ck.g
	k, n := g.K(), g.Cols()
	ck.checkOperand("in", in, g.InC*g.InH*g.InW)
	ck.checkOperand("w", w, g.OutC*k)
	ck.checkOperand("out", out, g.OutC*n)
	var pw *[]float64
	if blocks := g.OutC / microM; blocks > 0 {
		pw = Scratch.Get(blocks * microM * k)
		packRows(*pw, w, k, blocks)
		ck.packedW = *pw
	} else {
		ck.packedW = nil
	}
	ck.in, ck.w, ck.out = in, w, out
	parallel.For(ck.fwdPanels, ck.fwdGrain, ck.fwdShard)
	ck.in, ck.w, ck.out, ck.packedW = nil, nil, nil, nil
	Scratch.Put(pw)
}

// Backward computes the weight-gradient product gradWProd = g_out ×
// im2col(in)ᵀ (overwritten, formed from zero — the caller adds it into
// the accumulated gradient, one example at a time) and the input
// gradient gradIn (overwritten), without
// materializing the column matrix or its gradient. gout is the
// (OutC × N) output gradient; in must be the same buffer passed to the
// matching Forward. Bit-identical to the materialized a×bᵀ and
// aᵀ×b-plus-col2im reference compositions at any width.
//
// A nil gradIn skips the input gradient: neither g_out's column panels,
// which only that product reads, nor the per-channel pass run. A
// network's first layer needs no dL/dinput, and gradWProd does not
// depend on it.
func (ck *ConvKernel) Backward(gradWProd, gradIn, in, w, gout []float64) {
	g := &ck.g
	k, n := g.K(), g.Cols()
	ck.checkOperand("in", in, g.InC*g.InH*g.InW)
	ck.checkOperand("w", w, g.OutC*k)
	ck.checkOperand("gout", gout, g.OutC*n)
	ck.checkOperand("gradWProd", gradWProd, g.OutC*k)
	var pg *[]float64
	if gradIn != nil {
		ck.checkOperand("gradIn", gradIn, g.InC*g.InH*g.InW)
		nr := ck.impl.nr
		panels := (n + nr - 1) / nr
		pg = Scratch.Get(panels * nr * g.OutC)
		packPanels(*pg, gout, g.OutC, n, nr)
		ck.packedG = *pg
	}
	var pga *[]float64
	if blocks := g.OutC / microM; blocks > 0 {
		pga = Scratch.Get(blocks * microM * n)
		packRows(*pga, gout, n, blocks)
		ck.packedGA = *pga
	} else {
		ck.packedGA = nil
	}
	ck.in, ck.w, ck.gout, ck.gradW, ck.gradIn = in, w, gout, gradWProd, gradIn
	if gradIn != nil {
		parallel.For(ck.g.InC, ck.chGrain, ck.bwdChShard)
	}
	parallel.For(ck.wPanels, ck.wGrain, ck.bwdWShard)
	ck.in, ck.w, ck.gout, ck.gradW, ck.gradIn = nil, nil, nil, nil, nil
	ck.packedG, ck.packedGA = nil, nil
	Scratch.Put(pga)
	Scratch.Put(pg)
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
	if blocks := g.OutC / microM; blocks > 0 {
		p.packedW = make([]float64, blocks*microM*g.K())
		packRows(p.packedW, p.w, g.K(), blocks)
	}
	p.blk = convPackBlock(&p.g, kern.nr)
	if panels := (g.Cols() + kern.nr - 1) / kern.nr; p.blk > panels {
		p.blk = panels
	}
	return p
}

// Geom returns the packed convolution's geometry.
func (p *PackedConv) Geom() ConvGeom { return p.g }

// PackedColsLen returns the scratch length Forward needs for one
// cache-resident gather block under the active kernel's geometry.
func (p *PackedConv) PackedColsLen() int {
	return p.blk * p.g.K() * kern.nr
}

// Forward computes the pre-bias (OutC × N) output sequentially — the
// compiled-plan contract puts parallelism above the plan — gathering
// the input's receptive-field columns into the caller-owned packedCols
// scratch (length ≥ PackedColsLen) and running one GEBP over the
// prepacked filters. No allocation, no weight packing, bit-identical to
// the training path and the naive reference.
func (p *PackedConv) Forward(out, in, packedCols []float64) {
	g := &p.g
	k, n, nr := g.K(), g.Cols(), kern.nr
	if len(in) != g.InC*g.InH*g.InW {
		panic(fmt.Sprintf("tensor: PackedConv input %d, want %d", len(in), g.InC*g.InH*g.InW))
	}
	if len(out) != g.OutC*n {
		panic(fmt.Sprintf("tensor: PackedConv output %d, want %d", len(out), g.OutC*n))
	}
	if need := p.PackedColsLen(); len(packedCols) < need {
		panic(fmt.Sprintf("tensor: PackedConv scratch %d, need %d", len(packedCols), need))
	}
	panels := (n + nr - 1) / nr
	for b := 0; b < panels; b += p.blk {
		bHi := b + p.blk
		if bHi > panels {
			bHi = panels
		}
		packConvCols(packedCols, in, g, nr, b, bHi)
		colLo := b * nr
		colHi := bHi * nr
		if colHi > n {
			colHi = n
		}
		kern.gebpTile(out[colLo:], n, p.w, p.packedW, packedCols, g.OutC, k, colHi-colLo)
	}
}
