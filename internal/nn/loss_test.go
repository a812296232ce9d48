package nn

import (
	"math"
	"testing"

	"github.com/autonomizer/autonomizer/internal/auerr"
	"github.com/autonomizer/autonomizer/internal/tensor"
)

// TestTDHuberMatchesHuber checks TDHuber against its definition: Huber
// against a clone of pred with y at action. Loss and gradient must match
// bit for bit, NaN and ±Inf predictions included.
func TestTDHuberMatchesHuber(t *testing.T) {
	inf, nan := math.Inf(1), math.NaN()
	cases := []struct {
		name   string
		pred   []float64
		action int
		y      float64
	}{
		{"1/quadratic", []float64{0.25}, 0, 0.75},
		{"1/linear-above", []float64{0.25}, 0, 4},
		{"1/linear-below", []float64{0.25}, 0, -4},
		{"1/nan-pred", []float64{nan}, 0, 1},
		{"1/nan-y", []float64{1}, 0, nan},
		{"2/quadratic", []float64{-0.5, 1.5}, 1, 0.2},
		{"2/linear-above", []float64{-0.5, 1.5}, 0, 9},
		{"2/linear-below", []float64{-0.5, 1.5}, 1, -9},
		{"2/inf-other", []float64{inf, 1.5}, 1, 0.2},
		{"2/neg-inf-taken", []float64{-0.5, -inf}, 1, 0.2},
		{"5/quadratic", []float64{0.1, -0.2, 0.3, -0.4, 0.5}, 2, 0.6},
		{"5/linear-above", []float64{0.1, -0.2, 0.3, -0.4, 0.5}, 4, 3},
		{"5/linear-below", []float64{0.1, -0.2, 0.3, -0.4, 0.5}, 0, -3},
		{"5/specials", []float64{nan, inf, -inf, 0, 2}, 3, 1},
		{"5/inf-y", []float64{0.1, -0.2, 0.3, -0.4, 0.5}, 1, -inf},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			pred := tensor.FromSlice(c.pred, len(c.pred))
			full := pred.Clone()
			full.Data()[c.action] = c.y
			td := tensor.FromSlice([]float64{float64(c.action), c.y}, 2)
			h, tdh := Huber{}, TDHuber{}

			if got, want := tdh.Loss(pred, td), h.Loss(pred, full); math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("Loss = %v, want %v", got, want)
			}
			got := tdh.GradInto(tensor.New(len(c.pred)), pred, td).Data()
			want := h.GradInto(tensor.New(len(c.pred)), pred, full).Data()
			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("GradInto = %v, want %v", got, want)
				}
			}
		})
	}
}

// TestTDHuberRejectsMalformedTargets checks that a target that is not an
// (action, y) pair naming one of pred's indices fails as an invariant.
func TestTDHuberRejectsMalformedTargets(t *testing.T) {
	pred := tensor.FromSlice([]float64{0.1, 0.2, 0.3}, 3)
	cases := map[string][]float64{
		"too-short":       {1},
		"too-long":        {1, 0.5, 0},
		"negative-action": {-1, 0.5},
		"action-too-big":  {3, 0.5},
		"fractional":      {1.5, 0.5},
		"nan-action":      {math.NaN(), 0.5},
		"inf-action":      {math.Inf(1), 0.5},
	}
	for name, target := range cases {
		for _, call := range []struct {
			name string
			fn   func(td *tensor.Tensor)
		}{
			{"Loss", func(td *tensor.Tensor) { TDHuber{}.Loss(pred, td) }},
			{"GradInto", func(td *tensor.Tensor) { TDHuber{}.GradInto(tensor.New(3), pred, td) }},
		} {
			t.Run(name+"/"+call.name, func(t *testing.T) {
				defer func() {
					if _, ok := recover().(*auerr.InvariantError); !ok {
						t.Error("malformed target did not fail as an invariant")
					}
				}()
				call.fn(tensor.FromSlice(target, len(target)))
			})
		}
	}
}
