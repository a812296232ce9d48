package tensor

import (
	"math"
	"testing"
	"testing/quick"
)

func TestNewAndShape(t *testing.T) {
	a := New(2, 3)
	if a.Size() != 6 {
		t.Fatalf("Size = %d, want 6", a.Size())
	}
	if s := a.Shape(); len(s) != 2 || s[0] != 2 || s[1] != 3 {
		t.Fatalf("Shape = %v", s)
	}
	for _, v := range a.Data() {
		if v != 0 {
			t.Fatal("New tensor not zeroed")
		}
	}
}

func TestNewNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("New(-1) did not panic")
		}
	}()
	New(-1)
}

func TestFromSlice(t *testing.T) {
	a := FromSlice([]float64{1, 2, 3, 4, 5, 6}, 2, 3)
	if a.At(1, 2) != 6 {
		t.Errorf("At(1,2) = %v, want 6", a.At(1, 2))
	}
	a.Set(9, 0, 1)
	if a.At(0, 1) != 9 {
		t.Errorf("Set failed")
	}
	defer func() {
		if recover() == nil {
			t.Error("FromSlice size mismatch did not panic")
		}
	}()
	FromSlice([]float64{1, 2}, 3)
}

func TestAtBounds(t *testing.T) {
	a := New(2, 2)
	defer func() {
		if recover() == nil {
			t.Error("out-of-bounds At did not panic")
		}
	}()
	a.At(2, 0)
}

func TestCloneIndependence(t *testing.T) {
	a := FromSlice([]float64{1, 2}, 2)
	b := a.Clone()
	b.Set(99, 0)
	if a.At(0) != 1 {
		t.Error("Clone shares data with original")
	}
}

func TestMatMulKnown(t *testing.T) {
	a := FromSlice([]float64{1, 2, 3, 4, 5, 6}, 2, 3)
	b := FromSlice([]float64{7, 8, 9, 10, 11, 12}, 3, 2)
	c := MatMulNaiveInto(New(2, 2), a, b)
	want := []float64{58, 64, 139, 154}
	for i, w := range want {
		if c.Data()[i] != w {
			t.Fatalf("MatMul = %v, want %v", c.Data(), want)
		}
	}
}

func TestMatMulIdentity(t *testing.T) {
	prop := func(vals [9]float64) bool {
		for i, v := range vals {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				vals[i] = 1
			}
		}
		a := FromSlice(vals[:], 3, 3)
		id := New(3, 3)
		for i := 0; i < 3; i++ {
			id.Set(1, i, i)
		}
		c := MatMulNaiveInto(New(3, 3), a, id)
		for i := range a.Data() {
			if c.Data()[i] != a.Data()[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestMatMulMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("inner-dimension mismatch did not panic")
		}
	}()
	MatMulNaiveInto(New(2, 3), New(2, 3), New(2, 3))
}

func TestTranspose(t *testing.T) {
	a := FromSlice([]float64{1, 2, 3, 4, 5, 6}, 2, 3)
	b := Transpose(a)
	if s := b.Shape(); s[0] != 3 || s[1] != 2 {
		t.Fatalf("Transpose shape = %v", s)
	}
	if b.At(2, 1) != 6 || b.At(0, 1) != 4 {
		t.Errorf("Transpose values wrong: %v", b.Data())
	}
}

func TestTransposeInvolution(t *testing.T) {
	prop := func(vals [12]float64) bool {
		a := FromSlice(vals[:], 3, 4)
		b := Transpose(Transpose(a))
		for i := range a.Data() {
			av, bv := a.Data()[i], b.Data()[i]
			if av != bv && !(math.IsNaN(av) && math.IsNaN(bv)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestElementwiseOps(t *testing.T) {
	a := FromSlice([]float64{1, 2}, 2)
	b := FromSlice([]float64{3, 4}, 2)
	a.AddInPlace(b)
	if a.At(0) != 4 || a.At(1) != 6 {
		t.Errorf("AddInPlace = %v", a.Data())
	}
	a.ScaleInPlace(0.5)
	if a.At(0) != 2 || a.At(1) != 3 {
		t.Errorf("ScaleInPlace = %v", a.Data())
	}
	a.Fill(7)
	if a.At(0) != 7 || a.At(1) != 7 {
		t.Errorf("Fill = %v", a.Data())
	}
}

func TestShapeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("shape mismatch did not panic")
		}
	}()
	New(2).AddInPlace(New(3))
}

func TestDot(t *testing.T) {
	if got := Dot([]float64{1, 2, 3}, []float64{4, 5, 6}); got != 32 {
		t.Errorf("Dot = %v, want 32", got)
	}
	defer func() {
		if recover() == nil {
			t.Error("Dot length mismatch did not panic")
		}
	}()
	Dot([]float64{1}, []float64{1, 2})
}

func TestNorms(t *testing.T) {
	a := FromSlice([]float64{3, -4}, 2)
	if got := a.L2Norm(); math.Abs(got-5) > 1e-12 {
		t.Errorf("L2Norm = %v, want 5", got)
	}
}

func TestIm2ColIdentityKernel(t *testing.T) {
	// A 1x1 kernel with stride 1 and no padding is the identity lowering.
	in := FromSlice([]float64{1, 2, 3, 4}, 1, 2, 2)
	cols := Im2Col(in, 1, 1, 1, 0)
	if s := cols.Shape(); s[0] != 1 || s[1] != 4 {
		t.Fatalf("Im2Col shape = %v", s)
	}
	for i, want := range []float64{1, 2, 3, 4} {
		if cols.Data()[i] != want {
			t.Fatalf("Im2Col identity = %v", cols.Data())
		}
	}
}

func TestIm2ColKnown(t *testing.T) {
	// 1 channel, 3x3 input, 2x2 kernel, stride 1, no pad -> 4 columns.
	in := FromSlice([]float64{
		1, 2, 3,
		4, 5, 6,
		7, 8, 9,
	}, 1, 3, 3)
	cols := Im2Col(in, 2, 2, 1, 0)
	if s := cols.Shape(); s[0] != 4 || s[1] != 4 {
		t.Fatalf("Im2Col shape = %v", s)
	}
	// Column for output (0,0) must be the top-left 2x2 patch 1,2,4,5
	// laid out down the rows.
	patch := []float64{cols.At(0, 0), cols.At(1, 0), cols.At(2, 0), cols.At(3, 0)}
	want := []float64{1, 2, 4, 5}
	for i := range want {
		if patch[i] != want[i] {
			t.Fatalf("first patch = %v, want %v", patch, want)
		}
	}
}

func TestIm2ColPadding(t *testing.T) {
	in := FromSlice([]float64{5}, 1, 1, 1)
	cols := Im2Col(in, 3, 3, 1, 1)
	if s := cols.Shape(); s[0] != 9 || s[1] != 1 {
		t.Fatalf("padded Im2Col shape = %v", s)
	}
	// Only the center of the 3x3 window overlaps the real pixel.
	for i := 0; i < 9; i++ {
		want := 0.0
		if i == 4 {
			want = 5
		}
		if cols.At(i, 0) != want {
			t.Fatalf("padded window = %v", cols.Data())
		}
	}
}

// TestCol2ImAdjoint verifies <Im2Col(x), y> == <x, Col2Im(y)>, the adjoint
// identity that makes the convolution backward pass correct.
func TestCol2ImAdjoint(t *testing.T) {
	prop := func(xv [16]float64, seed int64) bool {
		for i, v := range xv {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				xv[i] = 0
			}
			// Bound magnitudes so the dot products stay finite.
			xv[i] = math.Mod(xv[i], 1e6)
		}
		x := FromSlice(xv[:], 1, 4, 4)
		cols := Im2Col(x, 3, 3, 1, 1)
		y := New(cols.Shape()[0], cols.Shape()[1])
		s := uint64(seed)
		for i := range y.Data() {
			s = s*6364136223846793005 + 1442695040888963407
			y.Data()[i] = float64(int64(s>>40)) / (1 << 20)
		}
		lhs := Dot(cols.Data(), y.Data())
		back := Col2Im(y, 1, 4, 4, 3, 3, 1, 1)
		rhs := Dot(x.Data(), back.Data())
		return math.Abs(lhs-rhs) <= 1e-9*(1+math.Abs(lhs))
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestConvOutputSize(t *testing.T) {
	if got := ConvOutputSize(84, 8, 4, 0); got != 20 {
		t.Errorf("ConvOutputSize(84,8,4,0) = %d, want 20 (DeepMind first layer)", got)
	}
	if got := ConvOutputSize(4, 3, 1, 1); got != 4 {
		t.Errorf("same-padding ConvOutputSize = %d, want 4", got)
	}
}

func TestIm2ColPanics(t *testing.T) {
	for name, f := range map[string]func(){
		"bad rank":     func() { Im2Col(New(2, 2), 1, 1, 1, 0) },
		"zero stride":  func() { Im2Col(New(1, 2, 2), 1, 1, 0, 0) },
		"huge kernel":  func() { Im2Col(New(1, 2, 2), 5, 5, 1, 0) },
		"col2im shape": func() { Col2Im(New(3, 3), 1, 4, 4, 3, 3, 1, 1) },
	} {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			f()
		})
	}
}

func TestString(t *testing.T) {
	if got := New(2, 3).String(); got != "Tensor[2 3]" {
		t.Errorf("String = %q", got)
	}
}
