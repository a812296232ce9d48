package tensor

import (
	"math"
	"math/rand"
	"testing"
)

// TestKernelSelected sanity-checks the init-time dispatch: the selected
// implementation must exist and expose a coherent geometry.
func TestKernelSelected(t *testing.T) {
	if kern == nil {
		t.Fatal("no kernel selected")
	}
	t.Logf("active kernel: %s (nr=%d, lanes=%d)", kern.name, kern.nr, kern.lanes)
	if kern.nr < microN || kern.lanes < 1 {
		t.Fatalf("implausible kernel geometry nr=%d lanes=%d", kern.nr, kern.lanes)
	}
}

// gebpPacks holds gebpVia's pack buffers between calls, so the
// benchmarks that loop over it time the multiply rather than the
// allocator. The package's tests do not run in parallel.
var gebpPacks struct{ a, b []float64 }

// growPack returns s resliced to n elements, reallocated when its
// capacity falls short.
func growPack(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

// gebpVia computes dst = a×b through impl's packing geometry and a
// single gebpTile call: the work a packed, blocked matmul does.
func gebpVia(impl *kernelImpl, dst, a, b *Tensor) *Tensor {
	m, k, n := matMulDims(a, b)
	checkDst(dst, m, n)
	if m == 0 || n == 0 {
		return dst
	}
	if k == 0 {
		dst.Fill(0)
		return dst
	}
	pb := growPack(gebpPacks.b, (n+impl.nr-1)/impl.nr*impl.nr*k)
	packPanels(pb, b.data, k, n, impl.nr)
	blocks := m / microM
	pa := growPack(gebpPacks.a, blocks*microM*k)
	packRows(pa, a.data, k, blocks)
	gebpPacks.a, gebpPacks.b = pa, pb
	impl.gebpTile(dst.data, n, a.data, pa, pb, m, k, n)
	return dst
}

// TestGEBPBitIdenticalAcrossImpls drives every available implementation
// directly over shapes that hit full tiles, ragged columns for both
// panel widths, ragged rows, and the special values the zero-skip trap
// would corrupt. Every implementation must be bit-identical to the naive
// reference.
func TestGEBPBitIdenticalAcrossImpls(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	shapes := [][3]int{
		{4, 8, 8}, {4, 3, 8}, {8, 16, 16}, {5, 7, 9}, {7, 5, 11},
		{1, 1, 1}, {3, 2, 5}, {4, 9, 12}, {12, 33, 17}, {64, 64, 64},
		{9, 64, 23}, {16, 128, 8}, {13, 31, 7}, {100, 10, 3},
	}
	for _, sh := range shapes {
		m, k, n := sh[0], sh[1], sh[2]
		a := New(m, k)
		b := New(k, n)
		for i := range a.Data() {
			a.Data()[i] = rng.NormFloat64()
		}
		for i := range b.Data() {
			b.Data()[i] = rng.NormFloat64()
		}
		// Seed special values: zeros, infinities and a NaN so any
		// zero-skip or reassociation shortcut shows up as a mismatch.
		if k >= 2 && m >= 2 {
			a.Data()[0] = 0
			a.Data()[k] = math.Inf(1)
			b.Data()[1] = math.NaN()
			b.Data()[n] = 0
		}
		want := MatMulNaiveInto(New(m, n), a, b)
		for _, impl := range convImpls() {
			got := gebpVia(impl, New(m, n), a, b)
			for i, w := range want.Data() {
				g := got.Data()[i]
				if math.Float64bits(g) != math.Float64bits(w) {
					t.Fatalf("%s %dx%dx%d: elem %d = %x, want %x", impl.name, m, k, n, i, math.Float64bits(g), math.Float64bits(w))
				}
			}
		}
	}
}

// TestPackedDenseMatchesDot verifies the lane-blocked dense forward is
// bit-identical to the uncompiled per-row fold Dot(row, x) + bias[o],
// across widths that hit full lane blocks, tails, and both at once.
func TestPackedDenseMatchesDot(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, sh := range [][2]int{{16, 8}, {32, 64}, {17, 5}, {1, 1}, {15, 3}, {48, 33}, {16, 1}, {3, 128}} {
		out, in := sh[0], sh[1]
		w := New(out, in)
		bias := New(out)
		x := make([]float64, in)
		for i := range w.Data() {
			w.Data()[i] = rng.NormFloat64()
		}
		for i := range bias.Data() {
			bias.Data()[i] = rng.NormFloat64()
		}
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		pd := PackDense(w, bias)
		got := make([]float64, out)
		pd.Forward(got, x)
		for o := 0; o < out; o++ {
			want := Dot(w.Data()[o*in:(o+1)*in], x) + bias.Data()[o]
			if math.Float64bits(got[o]) != math.Float64bits(want) {
				t.Fatalf("out=%d in=%d: lane %d = %v, want %v", out, in, o, got[o], want)
			}
		}
	}
}
