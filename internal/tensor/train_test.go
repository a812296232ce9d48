package tensor

import (
	"math"
	"math/rand"
	"testing"
)

// diffValues is diffBits with every NaN equal to every other: the
// index of the first element that differs bitwise, unless both are NaN,
// or -1. NaN payloads are outside the training kernels' contract: when
// both operands of an x86 add are NaN the first one's payload wins, and
// the Go compiler picks the operand order of the scalar references
// differently across builds (it flips under -race).
func diffValues(got, want []float64) int {
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) && !(math.IsNaN(got[i]) && math.IsNaN(want[i])) {
			return i
		}
	}
	return -1
}

// specialCoeffs are the coefficients that pin RowAXPY's skip rule: ±0
// are skipped in the skipping form only, and NaN and ±Inf are never
// skipped.
var specialCoeffs = []float64{0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1)}

// seedTrain fills data with normal draws and sprinkles special values
// over it: ±0 (so ±Inf coefficients meet 0 and make NaN), ±Inf and NaN.
func seedTrain(data []float64, rng *rand.Rand, specials bool) {
	for i := range data {
		data[i] = rng.NormFloat64()
	}
	if !specials || len(data) < 5 {
		return
	}
	for _, v := range []float64{0, math.Copysign(0, -1), math.Inf(1), math.NaN(), math.Inf(-1)} {
		data[rng.Intn(len(data))] = v
	}
}

// TestTrainKernelsBitIdenticalAcrossImpls drives every implementation's
// row AXPY and Adam kernels directly and through the exported entry
// points, against the scalar references.
func TestTrainKernelsBitIdenticalAcrossImpls(t *testing.T) {
	t.Run("RowAXPY", testRowAXPYAcrossImpls)
	t.Run("Adam", testAdamAcrossImpls)
}

// testRowAXPYAcrossImpls covers both Dense backward products. Row
// lengths cover whole and ragged 16-, 4- and 1-element blocks; row
// counts cover layers narrower than one 16-lane block; the coefficients
// include +0, −0, NaN and ±Inf.
func testRowAXPYAcrossImpls(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	type axpy func(dst, c, src []float64, n, dstStride, srcStride int, skipZero bool)
	impls := map[string]axpy{"RowAXPY": RowAXPY}
	for _, impl := range convImpls() {
		impls[impl.name] = impl.rowAXPY
	}
	for _, rows := range []int{1, 2, 3, 4, 5, 15, 16, 17, 32, 64} {
		for _, n := range []int{1, 2, 3, 4, 5, 7, 8, 15, 16, 17, 31, 33, 64} {
			for _, specials := range []bool{false, true} {
				g := make([]float64, rows)
				x := make([]float64, n)
				w := make([]float64, rows*n)
				seedTrain(g, rng, false)
				seedTrain(x, rng, specials)
				seedTrain(w, rng, specials)
				if specials {
					for i, c := range specialCoeffs {
						g[(i*7)%rows] = c
					}
				}
				gw := make([]float64, rows*n)
				seedTrain(gw, rng, false)
				wantW := append([]float64(nil), gw...)
				refDenseGradW(wantW, g, x)
				wantIn := make([]float64, n)
				refDenseGradIn(wantIn, g, w)
				for name, f := range impls {
					gotW := append([]float64(nil), gw...)
					f(gotW, g, x, n, n, 0, false)
					if i := diffValues(gotW, wantW); i >= 0 {
						t.Fatalf("%s dW %dx%d specials=%v: elem %d = %x, want %x",
							name, rows, n, specials, i, math.Float64bits(gotW[i]), math.Float64bits(wantW[i]))
					}
					gotIn := make([]float64, n)
					f(gotIn, g, w, n, 0, n, true)
					if i := diffValues(gotIn, wantIn); i >= 0 {
						t.Fatalf("%s dX %dx%d specials=%v: elem %d = %x, want %x",
							name, rows, n, specials, i, math.Float64bits(gotIn[i]), math.Float64bits(wantIn[i]))
					}
				}
			}
		}
	}
}

// TestRowAXPYSkipRule pins the skip rule on its own, independent of the
// references: with skipping on, a ±0 coefficient leaves the row's NaN
// and Inf unread, while NaN and ±Inf coefficients are folded; without
// skipping, 0·Inf reaches dst as NaN. Row strides wider than n must
// leave the gap elements alone.
func TestRowAXPYSkipRule(t *testing.T) {
	const n, stride = 5, 8
	for _, impl := range convImpls() {
		for _, c := range specialCoeffs {
			src := []float64{math.NaN(), math.Inf(1), 1, 2, 3}
			dst := make([]float64, n)
			impl.rowAXPY(dst, []float64{c}, src, n, 0, n, true)
			for i, d := range dst {
				want := c * src[i]
				if c == 0 {
					want = 0
				} else {
					want = 0 + want
				}
				if diffValues([]float64{d}, []float64{want}) >= 0 {
					t.Fatalf("%s skip c=%v: dst[%d] = %v, want %v", impl.name, c, i, d, want)
				}
			}
			dst = make([]float64, n)
			impl.rowAXPY(dst, []float64{c}, src, n, 0, n, false)
			if c == 0 && !math.IsNaN(dst[1]) {
				t.Fatalf("%s no-skip c=%v: 0·Inf folded to %v, want NaN", impl.name, c, dst[1])
			}
		}
		// Two rows of 5 at stride 8: the three gap elements of each row
		// must keep their sentinel.
		dst := make([]float64, 2*stride)
		for i := range dst {
			dst[i] = -7
		}
		impl.rowAXPY(dst, []float64{1, 2}, []float64{1, 1, 1, 1, 1}, n, stride, 0, false)
		for i, d := range dst {
			want := -7.0
			if i%stride < n {
				want = -7 + float64(1+i/stride)
			}
			if d != want {
				t.Fatalf("%s strided: dst[%d] = %v, want %v", impl.name, i, d, want)
			}
		}
	}
}

// testAdamAcrossImpls compares every implementation's Adam kernel, and
// AdamStep, with the optimizer's scalar loop over ragged lengths and
// moments that are zero, tiny and denormal, at the first step and late
// in training.
func testAdamAcrossImpls(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	type adam func(p, g, m, v []float64, beta1, beta2, lr, c1, c2, eps float64)
	impls := map[string]adam{"AdamStep": AdamStep}
	for _, impl := range convImpls() {
		impls[impl.name] = impl.adam
	}
	moments := map[string]func() float64{
		"zero":     func() float64 { return 0 },
		"tiny":     func() float64 { return rng.Float64() * 1e-300 },
		"denormal": func() float64 { return float64(rng.Intn(1<<20)) * math.SmallestNonzeroFloat64 },
		"normal":   func() float64 { return rng.NormFloat64() * 1e-3 },
	}
	grads := []float64{0, math.Copysign(0, -1), 1e-310, math.SmallestNonzeroFloat64, -1e-300, 1e3, -2.5}
	for _, n := range []int{1, 3, 4, 5, 8, 17, 64, 259} {
		for mname, draw := range moments {
			for _, step := range []int{1, 1000} {
				const b1, b2, lr, eps = 0.9, 0.999, 1e-3, 1e-8
				c1 := 1 - math.Pow(b1, float64(step))
				c2 := 1 - math.Pow(b2, float64(step))
				p, g, m, v := make([]float64, n), make([]float64, n), make([]float64, n), make([]float64, n)
				for j := range p {
					p[j] = rng.NormFloat64()
					g[j] = rng.NormFloat64() * 1e-2
					if j%3 == 0 {
						g[j] = grads[j%len(grads)]
					}
					m[j] = draw()
					v[j] = math.Abs(draw())
				}
				wp, wm, wv := append([]float64(nil), p...), append([]float64(nil), m...), append([]float64(nil), v...)
				refAdam(wp, g, wm, wv, b1, b2, lr, c1, c2, eps)
				for name, f := range impls {
					gp, gm, gv := append([]float64(nil), p...), append([]float64(nil), m...), append([]float64(nil), v...)
					f(gp, g, gm, gv, b1, b2, lr, c1, c2, eps)
					for _, c := range []struct {
						what      string
						got, want []float64
					}{{"p", gp, wp}, {"m", gm, wm}, {"v", gv, wv}} {
						if i := diffBits(c.got, c.want); i >= 0 {
							t.Fatalf("%s n=%d %s moments step %d: %s[%d] = %x, want %x",
								name, n, mname, step, c.what, i, math.Float64bits(c.got[i]), math.Float64bits(c.want[i]))
						}
					}
				}
			}
		}
	}
}
