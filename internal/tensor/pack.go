// pack.go is the lane-packed dense forward behind every Dense forward,
// the compiled inference plans' and the training network's (DESIGN.md
// §5g). Serving weights are immutable between hot reloads, so PackDense
// snapshots a Dense layer's weights into the active kernel
// implementation's lane-blocked layout exactly once and the per-call
// work that remains is only what depends on the input. PrepackConv
// (convgemm.go) does the same for convolution filters. Training weights
// move only when they are written (an optimizer step or a load), so a
// training Dense layer keeps one PackedDense and Repacks it in place at
// the first forward after each write: one O(weights) copy shared by
// every forward until the next write.
//
// Packed values are snapshots: they do not observe later mutations of
// the source tensors. That is exactly the compiled-plan contract — a
// plan is recompiled when new weights are published, never mutated —
// and the reason every write of a training layer's weights marks its
// pack stale.
package tensor

import "fmt"

// PackedDense is a dense layer's weights and bias packed for the
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
	lanes := kern.lanes
	p := &PackedDense{lanes: lanes, blocks: out / lanes, out: out, k: k}
	p.panel = make([]float64, p.blocks*lanes*k)
	p.tail = make([]float64, (out-p.blocks*lanes)*k)
	p.bias = make([]float64, out)
	p.Repack(w, bias)
	return p
}

// Repack refreshes the snapshot in place from weights and bias of the
// shape it was packed from, allocating nothing. A training Dense layer
// repacks this way at its first forward after each write of its
// weights, and reads the pack until the next write.
func (p *PackedDense) Repack(w, bias *Tensor) {
	if len(w.shape) != 2 || w.shape[0] != p.out || w.shape[1] != p.k {
		panic(fmt.Sprintf("tensor: PackedDense repack with weights %v, want [%d %d]", w.shape, p.out, p.k))
	}
	if bias.Size() != p.out {
		panic(fmt.Sprintf("tensor: PackedDense bias size %d, want %d", bias.Size(), p.out))
	}
	lanes, k := p.lanes, p.k
	for blk := 0; blk < p.blocks; blk++ {
		for lane := 0; lane < lanes; lane++ {
			row := w.data[(blk*lanes+lane)*k : (blk*lanes+lane+1)*k]
			dst := p.panel[blk*k*lanes+lane:]
			for kk, v := range row {
				dst[kk*lanes] = v
			}
		}
	}
	copy(p.tail, w.data[p.blocks*lanes*k:])
	copy(p.bias, bias.data)
}

// In returns the input width (k).
func (p *PackedDense) In() int { return p.k }

// Out returns the output width.
func (p *PackedDense) Out() int { return p.out }

// Forward computes dst = W·x + bias, sequentially and without
// allocating. Every output folds its terms ascending-k with separate
// multiply and add, then adds the bias once — bit-identical to
// Dot(row, x) + bias[o].
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
