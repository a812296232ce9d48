// pack.go is the pack-once API behind the compiled inference plans
// (DESIGN.md §5g). MatMulInto packs both operands from scratch on every
// call, which is right for training (weights change every step) and
// wasteful for serving (weights are immutable between hot reloads).
// PackA and PackDense snapshot a weight matrix into the active kernel
// implementation's packed layout exactly once; the per-call work that
// remains is only what depends on the input.
//
// Packed values are snapshots: they do not observe later mutations of
// the source tensors. That is exactly the compiled-plan contract — a
// plan is recompiled when new weights are published, never mutated.
package tensor

import "fmt"

// PackedA is a matrix packed once for the left-hand side of GEBP
// products (dst = A×b): full microM-row blocks in kk-major packed form,
// plus a plain row-major copy that the ragged row tail reads directly.
// The convolution plan packs its (OutC × InC·KH·KW) weights this way at
// compile time.
type PackedA struct {
	a     []float64 // full row-major snapshot (m×k)
	panel []float64 // full microM-row blocks, kk-major
	m, k  int
}

// PackA snapshots a rank-2 tensor into GEBP-packed form.
func PackA(a *Tensor) *PackedA {
	if len(a.shape) != 2 {
		panic("tensor: PackA requires a rank-2 tensor")
	}
	m, k := a.shape[0], a.shape[1]
	p := &PackedA{a: append([]float64(nil), a.data...), m: m, k: k}
	if blocks := m / microM; blocks > 0 && k > 0 {
		p.panel = make([]float64, blocks*microM*k)
		packRows(p.panel, p.a, k, blocks)
	}
	return p
}

// Rows returns the packed matrix's row count (the product's m).
func (p *PackedA) Rows() int { return p.m }

// Cols returns the packed matrix's column count (the product's k).
func (p *PackedA) Cols() int { return p.k }

// PackedBLen returns the scratch length a caller must provide to PackB /
// MulInto for a k×n right-hand operand under the active kernel's panel
// geometry.
func PackedBLen(k, n int) int {
	panels := (n + kern.nr - 1) / kern.nr
	return panels * kern.nr * k
}

// PackB packs rank-2 b into packed (length ≥ PackedBLen(k, n)) in the
// active kernel's nr-wide zero-padded panel layout, ready for MulInto.
func PackB(packed []float64, b *Tensor) {
	if len(b.shape) != 2 {
		panic("tensor: PackB requires a rank-2 tensor")
	}
	k, n := b.shape[0], b.shape[1]
	if need := PackedBLen(k, n); len(packed) < need {
		panic(fmt.Sprintf("tensor: PackB scratch %d, need %d", len(packed), need))
	}
	packPanels(packed, b.data, k, n, kern.nr)
}

// MulInto computes dst = p×b from b's packed panels (filled by PackB for
// a p.Cols()×n operand), overwriting the m×n dst. It runs sequentially —
// no sharding, no scratch, no allocation: the compiled plan's building
// block, where parallelism lives above the plan (one instance per
// goroutine) rather than inside the kernel. Results are bit-identical to
// MatMulNaiveInto by the dispatch contract.
func (p *PackedA) MulInto(dst *Tensor, packedB []float64, n int) *Tensor {
	checkDst(dst, p.m, n)
	if p.m == 0 || n == 0 {
		return dst
	}
	if p.k == 0 {
		dst.Fill(0)
		return dst
	}
	kern.gebpTile(dst.data, n, p.a, p.panel, packedB, p.m, p.k, n)
	return dst
}

// PackedDense is a dense layer's weights and bias packed once for the
// lane-blocked single-vector forward pass dst = W·x + bias. The packed
// layout groups kern.lanes output rows per block, kk-major, so each k
// step feeds every lane from one contiguous load; rows past the last
// full block stay row-major and run the scalar Dot path.
type PackedDense struct {
	lanes  int
	blocks int
	panel  []float64 // blocks*lanes rows, lane-packed kk-major
	tail   []float64 // rows [blocks*lanes, out), row-major
	bias   []float64
	out, k int
}

// PackDense snapshots a Dense layer's (out×in) weights and bias.
func PackDense(w, bias *Tensor) *PackedDense {
	if len(w.shape) != 2 {
		panic("tensor: PackDense requires rank-2 weights")
	}
	out, k := w.shape[0], w.shape[1]
	if bias.Size() != out {
		panic(fmt.Sprintf("tensor: PackDense bias size %d, want %d", bias.Size(), out))
	}
	lanes := kern.lanes
	p := &PackedDense{
		lanes: lanes, blocks: out / lanes, out: out, k: k,
		bias: append([]float64(nil), bias.data...),
	}
	p.panel = make([]float64, p.blocks*lanes*k)
	for blk := 0; blk < p.blocks; blk++ {
		for lane := 0; lane < lanes; lane++ {
			row := w.data[(blk*lanes+lane)*k : (blk*lanes+lane+1)*k]
			dst := p.panel[blk*k*lanes+lane:]
			for kk, v := range row {
				dst[kk*lanes] = v
			}
		}
	}
	p.tail = append([]float64(nil), w.data[p.blocks*lanes*k:]...)
	return p
}

// In returns the input width (k).
func (p *PackedDense) In() int { return p.k }

// Out returns the output width.
func (p *PackedDense) Out() int { return p.out }

// Forward computes dst = W·x + bias, sequentially and without
// allocating. Every output folds its terms ascending-k with separate
// multiply and add, then adds the bias once — bit-identical to the
// uncompiled Dense layer's Dot(row, x) + bias[o].
func (p *PackedDense) Forward(dst, x []float64) {
	if len(x) != p.k {
		panic(fmt.Sprintf("tensor: PackedDense input %d, want %d", len(x), p.k))
	}
	if len(dst) != p.out {
		panic(fmt.Sprintf("tensor: PackedDense output %d, want %d", len(dst), p.out))
	}
	if p.blocks > 0 {
		kern.gemv(dst, p.panel, x, p.bias, p.blocks, p.k)
	}
	for o := p.blocks * p.lanes; o < p.out; o++ {
		t := o - p.blocks*p.lanes
		dst[o] = Dot(p.tail[t*p.k:(t+1)*p.k], x) + p.bias[o]
	}
}
