package nn

import (
	"fmt"
	"math"
	"testing"

	"github.com/autonomizer/autonomizer/internal/stats"
	"github.com/autonomizer/autonomizer/internal/tensor"
)

// denseProbes returns inputs of width n: one finite, and ones carrying
// NaN, ±Inf, ±0 and subnormals, so the packed fold is compared on every
// class of float the scalar Dot fold can see.
func denseProbes(n int) [][]float64 {
	rng := stats.NewRNG(11)
	finite := make([]float64, n)
	for i := range finite {
		finite[i] = rng.Range(-1, 1)
	}
	special := []float64{
		math.NaN(), math.Float64frombits(0x7ff8_0000_0000_beef),
		math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1),
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
		math.Float64frombits(0x000f_ffff_ffff_ffff), 1e300, -1e-300,
	}
	probes := [][]float64{finite}
	for s := range special {
		p := append([]float64(nil), finite...)
		p[s%n] = special[s]
		probes = append(probes, p)
	}
	zeros := make([]float64, n)
	subnormals := make([]float64, n)
	for i := range zeros {
		if i%2 == 1 {
			zeros[i] = math.Copysign(0, -1)
		}
		subnormals[i] = float64(i+1) * math.SmallestNonzeroFloat64
	}
	return append(probes, zeros, subnormals)
}

// TestDenseForwardAfterEveryWrite: after every writer of the weights
// (NewDense's init, TrainStep, TrainBatch, UnmarshalParams and
// UnmarshalTrainingState), Forward matches the scalar Dot reference bit
// for bit, so no Forward reads a pack older than the weights. Each
// stage first forwards, so a pack exists that the next write must mark
// stale, and checks that the write moved the weights. The nets are a
// DNN and a Dense stack whose widths leave a tail past the last full
// lane block.
func TestDenseForwardAfterEveryWrite(t *testing.T) {
	cases := []struct {
		name    string
		build   func(rng *stats.RNG) *Network
		in, out int
	}{
		{"DNN", func(rng *stats.RNG) *Network { return NewDNN(8, []int{64, 32}, 4, rng) }, 8, 4},
		{"Tail", func(rng *stats.RNG) *Network {
			return NewNetwork(
				NewDense(7, 37, rng.Split()), NewReLU(),
				NewDense(37, 19, rng.Split()), NewTanh(),
				NewDense(19, 6, rng.Split()),
			)
		}, 7, 6},
	}
	for _, tc := range cases {
		net := tc.build(stats.NewRNG(5))
		net.UseAdam(1e-2)
		ins, targets := makeDataset(8, tc.out, tc.in)
		probes := denseProbes(tc.in)
		var last []float64
		check := func(stage string) {
			t.Helper()
			for i, p := range probes {
				x := tensor.FromSlice(p, tc.in)
				label := fmt.Sprintf("%s after %s, probe %d", tc.name, stage, i)
				bitsEqual(t, label, net.Forward(x).Data(), refForward(net, x))
			}
			ref := refForward(net, tensor.FromSlice(probes[0], tc.in))
			if last != nil && math.Float64bits(ref[0]) == math.Float64bits(last[0]) {
				t.Fatalf("%s: %s left the weights unchanged", tc.name, stage)
			}
			last = ref
		}

		check("NewDense")
		initParams, err := net.MarshalParams()
		if err != nil {
			t.Fatal(err)
		}
		initOpt, err := net.MarshalOptState()
		if err != nil {
			t.Fatal(err)
		}
		net.TrainStep(ins[0], targets[0])
		check("TrainStep")
		net.TrainBatch(ins, targets)
		check("TrainBatch")

		donor := tc.build(stats.NewRNG(6))
		donorParams, err := donor.MarshalParams()
		if err != nil {
			t.Fatal(err)
		}
		if err := net.UnmarshalParams(donorParams); err != nil {
			t.Fatal(err)
		}
		check("UnmarshalParams")
		if err := net.UnmarshalTrainingState(initParams, initOpt); err != nil {
			t.Fatal(err)
		}
		check("UnmarshalTrainingState")
	}
}
