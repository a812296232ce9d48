package nn

import (
	"math"
	"testing"

	"github.com/autonomizer/autonomizer/internal/stats"
	"github.com/autonomizer/autonomizer/internal/tensor"
)

func TestLeakyReLUForwardBackward(t *testing.T) {
	l := NewLeakyReLU(0.1)
	out := l.Forward(tensor.FromSlice([]float64{-2, 0, 3}, 3))
	want := []float64{-0.2, 0, 3}
	for i := range want {
		if math.Abs(out.Data()[i]-want[i]) > 1e-12 {
			t.Fatalf("forward = %v", out.Data())
		}
	}
	g := l.Backward(tensor.FromSlice([]float64{1, 1, 1}, 3))
	if math.Abs(g.Data()[0]-0.1) > 1e-12 || g.Data()[2] != 1 {
		t.Errorf("backward = %v", g.Data())
	}
	if NewLeakyReLU(0).Alpha != 0.01 {
		t.Error("default alpha wrong")
	}
}

func TestLeakyReLUGradCheck(t *testing.T) {
	rng := stats.NewRNG(1)
	n := NewNetwork(NewDense(3, 5, rng), NewLeakyReLU(0.2), NewDense(5, 2, rng))
	in := tensor.FromSlice([]float64{0.3, -0.8, 1.2}, 3)
	target := tensor.FromSlice([]float64{1, -1}, 2)
	checkGradients(t, n, MSE{}, in, target)
}

func TestDropoutTrainingVsInference(t *testing.T) {
	rng := stats.NewRNG(2)
	d := NewDropout(0.5, rng)
	in := tensor.New(1000)
	in.Fill(1)
	out := d.Forward(in)
	zeros, scaled := 0, 0
	for _, v := range out.Data() {
		switch v {
		case 0:
			zeros++
		case 2: // 1/keep = 2
			scaled++
		default:
			t.Fatalf("unexpected dropout output %v", v)
		}
	}
	if zeros < 400 || zeros > 600 {
		t.Errorf("dropped %d of 1000 at rate 0.5", zeros)
	}
	// Expected output mass preserved (inverted dropout).
	sum := 0.0
	for _, v := range out.Data() {
		sum += v
	}
	if math.Abs(sum-1000) > 150 {
		t.Errorf("output mass %v, want ~1000", sum)
	}
	// Inference: identity.
	d.SetTraining(false)
	out2 := d.Forward(in)
	for _, v := range out2.Data() {
		if v != 1 {
			t.Fatal("inference dropout not identity")
		}
	}
}

func TestDropoutBackwardUsesMask(t *testing.T) {
	rng := stats.NewRNG(3)
	d := NewDropout(0.5, rng)
	in := tensor.New(100)
	in.Fill(1)
	out := d.Forward(in)
	ones := tensor.New(100)
	ones.Fill(1)
	g := d.Backward(ones)
	for i := range g.Data() {
		if (out.Data()[i] == 0) != (g.Data()[i] == 0) {
			t.Fatal("gradient mask does not match forward mask")
		}
	}
}

func TestDropoutPanicsOnBadRate(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("rate 1 accepted")
		}
	}()
	NewDropout(1, stats.NewRNG(1))
}
