package rl

import (
	"bytes"
	"math"
	"testing"

	"github.com/autonomizer/autonomizer/internal/nn"
	"github.com/autonomizer/autonomizer/internal/stats"
	"github.com/autonomizer/autonomizer/internal/tensor"
)

// refAgent is the replayed update without the target-value cache: it
// predicts Q_target(s', ·) on the target plan for every non-terminal
// draw. It draws from its RNG in the same order as Agent, so both train
// on the same minibatches.
type refAgent struct {
	cfg     Config
	online  *nn.Network
	buffer  *ReplayBuffer
	target  *nn.PlanInstance
	steps   int
	trained int
	batch   []Transition
	slots   []int
}

func newRefAgent(online *nn.Network, cfg Config, rng *stats.RNG) *refAgent {
	cfg.fillDefaults()
	online.SetLoss(nn.TDHuber{})
	return &refAgent{
		cfg: cfg, online: online,
		buffer: NewReplayBuffer(cfg.ReplayCapacity, rng.Split()),
		batch:  make([]Transition, cfg.BatchSize),
		slots:  make([]int, cfg.BatchSize),
	}
}

func (r *refAgent) shape(n int) []int {
	if len(r.cfg.StateShape) > 0 {
		return r.cfg.StateShape
	}
	return []int{n}
}

func (r *refAgent) sync(t *testing.T, n int) {
	p, err := nn.Compile(r.online, r.shape(n)...)
	if err != nil {
		t.Fatal(err)
	}
	r.target = p.NewInstance()
}

func (r *refAgent) observe(t *testing.T, tr Transition) float64 {
	r.buffer.Add(tr)
	r.steps++
	if r.buffer.Len() < r.cfg.WarmupSteps || r.steps%r.cfg.LearnEvery != 0 {
		return 0
	}
	if r.trained == 0 {
		r.online.UseAdam(r.cfg.LR)
		r.sync(t, len(tr.State))
	}
	r.buffer.Sample(r.batch, r.slots)
	ins := make([]*tensor.Tensor, len(r.batch))
	targets := make([]*tensor.Tensor, len(r.batch))
	for i, b := range r.batch {
		y := b.Reward
		if !b.Terminal {
			q := r.target.Predict(b.NextState)
			pick := q
			if r.cfg.DoubleDQN {
				pick = r.online.Predict(b.NextState, r.shape(len(b.NextState))...)
			}
			y += r.cfg.Gamma * q[stats.ArgMax(pick)]
		}
		ins[i] = tensor.FromSlice(b.State, r.shape(len(b.State))...)
		targets[i] = tensor.FromSlice([]float64{float64(b.Action), y}, 2)
	}
	loss := r.online.TrainBatch(ins, targets)
	r.trained++
	if r.trained%r.cfg.TargetSyncEvery == 0 {
		r.sync(t, len(tr.State))
	}
	return loss
}

// TestTargetCacheMatchesRecomputation trains an Agent and a refAgent
// from identical networks and seeds on the same transitions and
// requires equal losses at every step and bit-identical final weights:
// reusing cached target rows within a sync window must change nothing.
// The cases overwrite replay slots (capacity below the step count), sync
// the target every few updates so rows go stale often, mix terminal
// transitions in, and run with DoubleDQN off and on, on a DNN and a CNN.
func TestTargetCacheMatchesRecomputation(t *testing.T) {
	cases := []struct {
		name            string
		cnn, double     bool
		capacity, syncN int
		steps           int
	}{
		{"dnn", false, false, 40, 3, 400},
		{"dnn-double", false, true, 40, 3, 400},
		{"dnn-sync1", false, false, 25, 1, 200},
		{"dnn-wide", false, true, 1000, 50, 400},
		{"cnn", true, false, 30, 4, 120},
		{"cnn-double", true, true, 30, 4, 120},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cfg := Config{
				BatchSize: 8, WarmupSteps: 16, ReplayCapacity: c.capacity,
				TargetSyncEvery: c.syncN, LR: 3e-3, DoubleDQN: c.double,
			}
			stateLen := 6
			build := func() *nn.Network { return nn.NewDNN(stateLen, []int{16, 8}, 3, stats.NewRNG(41)) }
			if c.cnn {
				cfg.StateShape = []int{2, 8, 8}
				stateLen = 128
				build = func() *nn.Network { return smallCNN(stats.NewRNG(41)) }
			}
			a := NewAgent(build(), 3, cfg, stats.NewRNG(43))
			ref := newRefAgent(build(), cfg, stats.NewRNG(43))
			env := stats.NewRNG(47)
			draw := func() []float64 {
				s := make([]float64, stateLen)
				for i := range s {
					s[i] = env.Float64()
				}
				return s
			}
			state := draw()
			for i := 0; i < c.steps; i++ {
				next := draw()
				tr := Transition{
					State: state, Action: i % 3, Reward: env.Range(-1, 1),
					NextState: next, Terminal: i%7 == 6,
				}
				got, want := a.Observe(tr), ref.observe(t, tr)
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("step %d: loss %v, reference %v", i, got, want)
				}
				state = next
			}
			if ref.trained == 0 {
				t.Fatal("no replayed update ran")
			}
			gotW, err := a.Online().MarshalParams()
			if err != nil {
				t.Fatal(err)
			}
			wantW, err := ref.online.MarshalParams()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(gotW, wantW) {
				t.Fatal("final weights differ from the recomputing reference")
			}
		})
	}
}
