package nn

import (
	"bytes"
	"runtime"
	"testing"

	"github.com/autonomizer/autonomizer/internal/stats"
	"github.com/autonomizer/autonomizer/internal/tensor"
)

// trainRun builds a fresh network from seed, trains it over the given
// dataset for a few epochs of mini-batches, and returns the serialized
// final weights plus the prediction on the first example.
func trainRun(t *testing.T, build func(rng *stats.RNG) *Network, ins, targets []*tensor.Tensor, batch int) ([]byte, []float64) {
	t.Helper()
	net := build(stats.NewRNG(42))
	net.UseAdam(1e-3)
	for epoch := 0; epoch < 3; epoch++ {
		for start := 0; start < len(ins); start += batch {
			end := start + batch
			if end > len(ins) {
				end = len(ins)
			}
			net.TrainBatch(ins[start:end], targets[start:end])
		}
	}
	params, err := net.MarshalParams()
	if err != nil {
		t.Fatal(err)
	}
	pred := net.Forward(ins[0])
	return params, append([]float64(nil), pred.Data()...)
}

// makeDataset builds a deterministic dataset of n examples with the given
// input shape and output size.
func makeDataset(n, outSize int, shape ...int) (ins, targets []*tensor.Tensor) {
	rng := stats.NewRNG(7)
	for i := 0; i < n; i++ {
		in := tensor.New(shape...)
		for j := range in.Data() {
			in.Data()[j] = rng.Range(-1, 1)
		}
		tg := tensor.New(outSize)
		for j := range tg.Data() {
			tg.Data()[j] = rng.Range(-1, 1)
		}
		ins = append(ins, in)
		targets = append(targets, tg)
	}
	return ins, targets
}

// TestParallelTrainingDeterminism is the parallel layer's core guarantee:
// training with workers ∈ {1, 2, 8} produces weights and predictions
// bit-identical to width 1, on a DNN, a CNN (whose conv kernels shard by
// width) and a Builder net with Dropout (whose mask draws must stay in
// example order).
func TestParallelTrainingDeterminism(t *testing.T) {
	cases := []struct {
		name  string
		build func(rng *stats.RNG) *Network
		ins   []*tensor.Tensor
		tgt   []*tensor.Tensor
	}{
		{name: "DNN"},
		{name: "CNN"},
		{name: "Dropout"},
	}
	cases[0].build = func(rng *stats.RNG) *Network { return NewDNN(6, []int{16, 8}, 3, rng) }
	cases[0].ins, cases[0].tgt = makeDataset(12, 3, 6)
	cases[1].build = func(rng *stats.RNG) *Network { return NewDeepMindCNN(1, 16, 16, 3, rng) }
	cases[1].ins, cases[1].tgt = makeDataset(6, 3, 1, 16, 16)
	cases[2].build = func(rng *stats.RNG) *Network {
		return NewNetwork(
			NewDense(4, 8, rng.Split()), NewReLU(),
			NewDropout(0.2, rng.Split()),
			NewDense(8, 2, rng.Split()),
		)
	}
	cases[2].ins, cases[2].tgt = makeDataset(8, 2, 4)

	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			prev := runtime.GOMAXPROCS(1)
			defer runtime.GOMAXPROCS(prev)
			wantParams, wantPred := trainRun(t, tc.build, tc.ins, tc.tgt, 4)
			for _, w := range []int{1, 2, 8} {
				runtime.GOMAXPROCS(w)
				gotParams, gotPred := trainRun(t, tc.build, tc.ins, tc.tgt, 4)
				if !bytes.Equal(wantParams, gotParams) {
					t.Errorf("workers=%d: weights differ from sequential training", w)
				}
				for i := range wantPred {
					if wantPred[i] != gotPred[i] {
						t.Fatalf("workers=%d: prediction[%d] = %v, sequential %v", w, i, gotPred[i], wantPred[i])
					}
				}
			}
		})
	}
}
