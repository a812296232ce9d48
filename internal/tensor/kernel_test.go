package tensor

import (
	"math"
	"testing"
)

// fillPseudo fills t with a deterministic pseudo-random pattern.
func fillPseudo(t *Tensor, seed uint64) {
	s := seed | 1
	for i := range t.Data() {
		s ^= s >> 12
		s ^= s << 25
		s ^= s >> 27
		t.Data()[i] = float64(int64(s*0x2545F4914F6CDD1D)) / (1 << 62)
	}
}

func bitsEqual(t *testing.T, name string, a, b *Tensor) {
	t.Helper()
	if a.Size() != b.Size() {
		t.Fatalf("%s: size %d vs %d", name, a.Size(), b.Size())
	}
	for i := range a.Data() {
		if math.Float64bits(a.Data()[i]) != math.Float64bits(b.Data()[i]) {
			t.Fatalf("%s: element %d differs: %v vs %v", name, i, a.Data()[i], b.Data()[i])
		}
	}
}

// kernelShapes covers the edge and straddle cases every product must get
// right: degenerate 1×N / N×1 / 1×1, zero dimensions, shapes straddling
// the 4×4 register tile, and mid-sized and large shapes that run many
// full tiles.
var kernelShapes = [][3]int{
	{1, 1, 1}, {1, 7, 1}, {1, 16, 33}, {33, 16, 1},
	{0, 5, 4}, {5, 0, 4}, {5, 4, 0},
	{3, 5, 3}, {4, 4, 4}, {5, 9, 7}, {8, 8, 8}, {9, 13, 11},
	{12, 14, 48}, {12, 16, 48}, {16, 32, 16},
	{64, 64, 64}, {65, 50, 67},
}

// TestMatMulATBMatchesReference checks the transpose-free aᵀ×b loop the
// conv backward benchmark times folds every element exactly like the
// naive product over a materialized transpose.
func TestMatMulATBMatchesReference(t *testing.T) {
	for _, sh := range kernelShapes {
		m, k, n := sh[0], sh[1], sh[2]
		a, b := New(k, m), New(k, n) // a is stored transposed
		fillPseudo(a, 21)
		fillPseudo(b, 22)
		want := MatMulNaiveInto(New(m, n), Transpose(a), b)
		bitsEqual(t, "aᵀ×b", want, refATB(a, b))
	}
}

// TestMatMulABTMatchesReference is the a×bᵀ counterpart.
func TestMatMulABTMatchesReference(t *testing.T) {
	for _, sh := range kernelShapes {
		m, k, n := sh[0], sh[1], sh[2]
		a, b := New(m, k), New(n, k) // b is stored transposed
		fillPseudo(a, 31)
		fillPseudo(b, 32)
		want := MatMulNaiveInto(New(m, n), a, Transpose(b))
		bitsEqual(t, "a×bᵀ", want, refABT(a, b))
	}
}

// TestMatMulNaNInfPropagation pins IEEE-754 propagation through an
// all-zero row: skipping av == 0 would drop the poison, because 0×NaN
// and 0×Inf are NaN, not 0. The naive reference and every
// implementation's GEBP tile, on full tiles and on the ragged edges,
// must keep it.
func TestMatMulNaNInfPropagation(t *testing.T) {
	check := func(name string, m, k, n int) {
		a, b := New(m, k), New(k, n)
		fillPseudo(a, 41)
		fillPseudo(b, 42)
		// Row 0 of a is all zeros; b carries NaN and Inf in column 0 and
		// column n-1 of row 0. 0×NaN = NaN and 0×Inf = NaN must reach the
		// output despite every multiplier being zero.
		for kk := 0; kk < k; kk++ {
			a.data[kk] = 0
		}
		b.data[0] = math.NaN()
		b.data[n-1] = math.Inf(1)
		got := map[string]*Tensor{"naive": MatMulNaiveInto(New(m, n), a, b)}
		for _, impl := range convImpls() {
			got[impl.name] = gebpVia(impl, New(m, n), a, b)
		}
		for via, c := range got {
			if !math.IsNaN(c.data[0]) {
				t.Errorf("%s %s: 0×NaN gave %v, want NaN", name, via, c.data[0])
			}
			if !math.IsNaN(c.data[n-1]) {
				t.Errorf("%s %s: 0×Inf gave %v, want NaN", name, via, c.data[n-1])
			}
		}
	}
	check("ragged", 2, 3, 4) // below one register tile: scalar row tail
	check("tiled", 64, 64, 64)
}

// TestKernelDstValidation checks the reference's destination-shape panic.
func TestKernelDstValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Errorf("MatMulNaiveInto: bad destination did not panic")
		}
	}()
	MatMulNaiveInto(New(3, 4), New(3, 4), New(4, 5))
}

// TestReuse checks the layer-scratch primitive: recycle when capacity
// suffices, allocate otherwise.
func TestReuse(t *testing.T) {
	a := New(4, 8)
	a.Fill(7)
	b := Reuse(a, 2, 16) // same element count: must recycle
	if &b.Data()[0] != &a.Data()[0] {
		t.Errorf("Reuse with sufficient capacity reallocated")
	}
	if b.Shape()[0] != 2 || b.Shape()[1] != 16 {
		t.Errorf("Reuse shape = %v", b.Shape())
	}
	c := Reuse(b, 3, 16) // larger: must allocate fresh
	if c.Size() != 48 {
		t.Fatalf("Reuse grow size = %d", c.Size())
	}
	for _, v := range c.Data() {
		if v != 0 {
			t.Fatalf("grown Reuse not zeroed")
		}
	}
	if d := Reuse(nil, 3); d.Size() != 3 {
		t.Errorf("Reuse(nil) size = %d", d.Size())
	}
}

// TestViewOf checks the allocation-free reshape header.
func TestViewOf(t *testing.T) {
	src := New(2, 6)
	fillPseudo(src, 61)
	v := View(nil, src, 3, 4)
	if &v.Data()[0] != &src.Data()[0] {
		t.Fatalf("View does not share data")
	}
	v2 := View(v, src, 12)
	if v2 != v {
		t.Errorf("View allocated a new header instead of recycling")
	}
	defer func() {
		if recover() == nil {
			t.Errorf("View with mismatched count did not panic")
		}
	}()
	View(v, src, 5)
}
