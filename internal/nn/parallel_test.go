package nn

import (
	"bytes"
	"testing"

	"github.com/autonomizer/autonomizer/internal/parallel"
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
// bit-identical to the sequential path, on both a DNN and a CNN.
func TestParallelTrainingDeterminism(t *testing.T) {
	cases := []struct {
		name  string
		build func(rng *stats.RNG) *Network
		ins   []*tensor.Tensor
		tgt   []*tensor.Tensor
	}{
		{name: "DNN"},
		{name: "CNN"},
	}
	cases[0].build = func(rng *stats.RNG) *Network { return NewDNN(6, []int{16, 8}, 3, rng) }
	cases[0].ins, cases[0].tgt = makeDataset(12, 3, 6)
	cases[1].build = func(rng *stats.RNG) *Network { return NewDeepMindCNN(1, 16, 16, 3, rng) }
	cases[1].ins, cases[1].tgt = makeDataset(6, 3, 1, 16, 16)

	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			prev := parallel.SetWorkers(1)
			defer parallel.SetWorkers(prev)
			wantParams, wantPred := trainRun(t, tc.build, tc.ins, tc.tgt, 4)
			for _, w := range []int{1, 2, 8} {
				parallel.SetWorkers(w)
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

// TestReplicaSharesParams checks the replica contract: parameters are the
// same tensors, gradients are not.
func TestReplicaSharesParams(t *testing.T) {
	net := NewDNN(4, []int{8}, 2, stats.NewRNG(1))
	rep, ok := net.replica()
	if !ok {
		t.Fatal("DNN should be replicable")
	}
	np, rp := net.Params(), rep.Params()
	if len(np) != len(rp) {
		t.Fatalf("param count %d vs %d", len(np), len(rp))
	}
	for i := range np {
		if np[i] != rp[i] {
			t.Errorf("param %d not shared", i)
		}
	}
	ng, rg := net.Grads(), rep.Grads()
	for i := range ng {
		if ng[i] == rg[i] {
			t.Errorf("grad %d shared; must be private", i)
		}
	}
}

// TestDropoutFallsBackSequential checks a non-replicable layer degrades
// to the sequential path instead of failing.
func TestDropoutFallsBackSequential(t *testing.T) {
	prev := parallel.SetWorkers(4)
	defer parallel.SetWorkers(prev)
	rng := stats.NewRNG(3)
	net := NewNetwork(
		NewDense(4, 8, rng.Split()), NewReLU(),
		NewDropout(0.2, rng.Split()),
		NewDense(8, 2, rng.Split()),
	)
	if _, ok := net.replica(); ok {
		t.Fatal("dropout network must not be replicable")
	}
	net.UseAdam(1e-3)
	ins, targets := makeDataset(8, 2, 4)
	if loss := net.TrainBatch(ins, targets); loss <= 0 {
		t.Errorf("fallback training loss = %v", loss)
	}
}

// TestSetMaxWorkersCap checks the per-network cap keeps results identical
// while bounding the replica set.
func TestSetMaxWorkersCap(t *testing.T) {
	prev := parallel.SetWorkers(8)
	defer parallel.SetWorkers(prev)
	ins, targets := makeDataset(12, 3, 6)
	build := func(rng *stats.RNG) *Network { return NewDNN(6, []int{16, 8}, 3, rng) }

	capped := build(stats.NewRNG(42))
	capped.SetMaxWorkers(2)
	capped.UseAdam(1e-3)
	capped.TrainBatch(ins, targets)
	if len(capped.replicas) > 2 {
		t.Errorf("cap 2 built %d replicas", len(capped.replicas))
	}

	free := build(stats.NewRNG(42))
	free.UseAdam(1e-3)
	free.TrainBatch(ins, targets)
	a, _ := capped.MarshalParams()
	b, _ := free.MarshalParams()
	if !bytes.Equal(a, b) {
		t.Error("capped and uncapped training disagree")
	}
}
