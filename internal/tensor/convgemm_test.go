package tensor

import (
	"math"
	"math/rand"
	"runtime"
	"testing"
)

// convCase is one geometry row of the implicit-GEMM bit-identity table.
type convCase struct {
	name                                     string
	inC, inH, inW, kh, kw, stride, pad, outC int
}

// convCases spans the geometry corners the packers special-case: 1×1
// kernels (pure channel mix), strides 2 and 3 (the strided gather
// path), pads 0–2 (zero-run prefixes/suffixes and all-padding rows),
// non-square inputs and kernels, single-channel and 16-channel inputs,
// output channel counts on and off the microM register block, the
// benchmark geometry whose blocks tile whole output rows, and the three
// layers of the DeepMind CNN on a 1×16×16 screen (nn.NewDeepMindCNN),
// the geometries the training and serving paths actually run.
var convCases = []convCase{
	{"bench-3x3", 4, 32, 32, 3, 3, 1, 1, 8},
	{"small-3x3", 1, 8, 8, 3, 3, 1, 1, 4},
	{"1x1", 1, 7, 9, 1, 1, 1, 0, 3},
	{"1x1-stride2", 3, 9, 7, 1, 1, 2, 0, 5},
	{"stride2-pad2", 2, 11, 5, 3, 3, 2, 2, 4},
	{"deep-C16", 16, 6, 6, 3, 3, 1, 1, 4},
	{"stride3-rect", 2, 13, 11, 5, 3, 3, 2, 6},
	{"kernel-covers-input", 1, 5, 5, 5, 5, 1, 2, 2},
	{"even-kernel-C16", 16, 9, 11, 2, 4, 2, 1, 12},
	{"pad0-ragged-outc", 3, 16, 16, 3, 3, 1, 0, 7},
	{"deepmind16-conv1", 1, 16, 16, 5, 5, 2, 2, 8},
	{"deepmind16-conv2", 8, 4, 4, 3, 3, 1, 1, 16},
	{"deepmind16-conv3", 16, 2, 2, 3, 3, 1, 1, 16},
}

// seedConv fills data with normal noise and plants the special values
// (zero, NaN, ±Inf) that would expose any zero-skip or padding shortcut:
// the implicit path must gather padding as explicit zeros because 0×NaN
// is NaN, and both paths must propagate NaN/Inf through the identical
// FMA fold to stay bit-equal.
func seedConv(data []float64, rng *rand.Rand) {
	for i := range data {
		data[i] = rng.NormFloat64()
	}
	if len(data) >= 8 {
		data[0] = 0
		data[1] = math.NaN()
		data[2] = math.Inf(1)
		data[3] = math.Inf(-1)
		data[len(data)-1] = math.NaN()
	}
}

// convImpls returns the kernel implementations to drive explicitly:
// always the generic portable one, plus the arch kernel when present.
func convImpls() []*kernelImpl {
	impls := []*kernelImpl{genericImpl}
	if arch := archKernel(); arch != nil {
		impls = append(impls, arch)
	}
	return impls
}

// diffBits returns the first index where got and want differ bitwise, or
// -1 when identical.
func diffBits(got, want []float64) int {
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			return i
		}
	}
	return -1
}

// TestConvKernelBitIdentical drives ConvKernel.Forward/Backward over
// the geometry table, every implementation, and widths {1, 2, 8},
// comparing bit-for-bit against the materialized reference compositions
// (Im2Col+MatMulNaiveInto forward; refABT and refATB+Col2ImInto
// backward). This is the determinism contract of DESIGN.md §5j:
// blocking chooses when tiles compute, never how an element folds, and
// the configured worker width never enters the kernel at all.
func TestConvKernelBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for _, tc := range convCases {
		g := NewConvGeom(tc.inC, tc.inH, tc.inW, tc.kh, tc.kw, tc.stride, tc.pad, tc.outC)
		k, n := g.K(), g.Cols()

		inT := New(tc.inC, tc.inH, tc.inW)
		wT := New(tc.outC, k)
		gT := New(tc.outC, n)
		seedConv(inT.Data(), rng)
		seedConv(wT.Data(), rng)
		seedConv(gT.Data(), rng)

		cols := Im2Col(inT, tc.kh, tc.kw, tc.stride, tc.pad)
		wantOut := MatMulNaiveInto(New(tc.outC, n), wT, cols)
		wantGradW := refABT(gT, cols)
		gradCols := refATB(wT, gT)
		wantGradIn := Col2ImInto(New(tc.inC, tc.inH, tc.inW), gradCols,
			tc.inC, tc.inH, tc.inW, tc.kh, tc.kw, tc.stride, tc.pad)

		for _, impl := range convImpls() {
			ck := newConvKernel(g, impl)
			for _, workers := range []int{1, 2, 8} {
				prev := runtime.GOMAXPROCS(workers)
				out := make([]float64, tc.outC*n)
				gradW := make([]float64, tc.outC*k)
				gradIn := make([]float64, tc.inC*tc.inH*tc.inW)
				ck.Forward(out, inT.Data(), wT.Data())
				ck.Backward(gradW, gradIn, inT.Data(), wT.Data(), gT.Data())
				runtime.GOMAXPROCS(prev)
				if i := diffBits(out, wantOut.Data()); i >= 0 {
					t.Fatalf("%s/%s/w%d forward: elem %d = %x, want %x",
						tc.name, impl.name, workers, i,
						math.Float64bits(out[i]), math.Float64bits(wantOut.Data()[i]))
				}
				if i := diffBits(gradW, wantGradW.Data()); i >= 0 {
					t.Fatalf("%s/%s/w%d gradW: elem %d = %x, want %x",
						tc.name, impl.name, workers, i,
						math.Float64bits(gradW[i]), math.Float64bits(wantGradW.Data()[i]))
				}
				if i := diffBits(gradIn, wantGradIn.Data()); i >= 0 {
					t.Fatalf("%s/%s/w%d gradIn: elem %d = %x, want %x",
						tc.name, impl.name, workers, i,
						math.Float64bits(gradIn[i]), math.Float64bits(wantGradIn.Data()[i]))
				}
			}
		}
	}
}

// TestConvKernelBackwardWithoutGradIn pins the input-layer skip: a nil
// gradIn must leave gradWProd bit-identical to a call that also forms
// the input gradient, for every implementation and at widths {1, 2, 8}.
func TestConvKernelBackwardWithoutGradIn(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for _, tc := range convCases {
		g := NewConvGeom(tc.inC, tc.inH, tc.inW, tc.kh, tc.kw, tc.stride, tc.pad, tc.outC)
		k, n := g.K(), g.Cols()
		in := make([]float64, tc.inC*tc.inH*tc.inW)
		w := make([]float64, tc.outC*k)
		gout := make([]float64, tc.outC*n)
		seedConv(in, rng)
		seedConv(w, rng)
		seedConv(gout, rng)
		for _, impl := range convImpls() {
			ck := newConvKernel(g, impl)
			for _, workers := range []int{1, 2, 8} {
				prev := runtime.GOMAXPROCS(workers)
				want := make([]float64, tc.outC*k)
				ck.Backward(want, make([]float64, len(in)), in, w, gout)
				got := make([]float64, tc.outC*k)
				ck.Backward(got, nil, in, w, gout)
				runtime.GOMAXPROCS(prev)
				if i := diffBits(got, want); i >= 0 {
					t.Fatalf("%s/%s/w%d gradW without gradIn: elem %d = %x, want %x",
						tc.name, impl.name, workers, i,
						math.Float64bits(got[i]), math.Float64bits(want[i]))
				}
			}
		}
	}
}

// TestPackedConvBitIdentical exercises the compiled serving path:
// PrepackConv + Forward over the same geometry table must reproduce the
// reference product bit-for-bit, and the prepack must be a snapshot —
// mutating the weights afterwards must not change the output.
func TestPackedConvBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for _, tc := range convCases {
		g := NewConvGeom(tc.inC, tc.inH, tc.inW, tc.kh, tc.kw, tc.stride, tc.pad, tc.outC)
		n := g.Cols()

		inT := New(tc.inC, tc.inH, tc.inW)
		wT := New(tc.outC, g.K())
		seedConv(inT.Data(), rng)
		seedConv(wT.Data(), rng)

		cols := Im2Col(inT, tc.kh, tc.kw, tc.stride, tc.pad)
		want := MatMulNaiveInto(New(tc.outC, n), wT, cols)

		pc := PrepackConv(wT, g)
		packedCols := make([]float64, pc.PackedColsLen())
		out := make([]float64, tc.outC*n)
		pc.Forward(out, inT.Data(), packedCols)
		if i := diffBits(out, want.Data()); i >= 0 {
			t.Fatalf("%s forward: elem %d = %x, want %x", tc.name, i,
				math.Float64bits(out[i]), math.Float64bits(want.Data()[i]))
		}

		wT.Data()[0] += 42 // snapshot contract
		again := make([]float64, tc.outC*n)
		pc.Forward(again, inT.Data(), packedCols)
		if i := diffBits(again, want.Data()); i >= 0 {
			t.Fatalf("%s snapshot violated at elem %d", tc.name, i)
		}
	}
}

// TestConvKernelOperandChecks pins the fail-fast contract: mis-sized
// operands and invalid geometries must panic with a diagnostic rather
// than corrupt memory.
func TestConvKernelOperandChecks(t *testing.T) {
	g := NewConvGeom(2, 8, 8, 3, 3, 1, 1, 4)
	ck := NewConvKernel(g)
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: expected panic", name)
			}
		}()
		f()
	}
	in := make([]float64, 2*8*8)
	w := make([]float64, 4*g.K())
	out := make([]float64, 4*g.Cols())
	mustPanic("short in", func() { ck.Forward(out, in[:10], w) })
	mustPanic("short w", func() { ck.Forward(out, in, w[:5]) })
	mustPanic("short out", func() { ck.Forward(out[:1], in, w) })
	mustPanic("bad geom", func() { NewConvGeom(0, 8, 8, 3, 3, 1, 1, 4) })
	mustPanic("bad stride", func() { NewConvGeom(2, 8, 8, 3, 3, 0, 1, 4) })
	mustPanic("kernel too large", func() { NewConvGeom(2, 2, 2, 5, 5, 1, 0, 4) })
}
