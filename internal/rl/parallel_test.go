package rl

import (
	"bytes"
	"runtime"
	"testing"

	"github.com/autonomizer/autonomizer/internal/nn"
	"github.com/autonomizer/autonomizer/internal/stats"
)

// runAgent feeds a deterministic stream of transitions through a fresh
// agent and returns the online network's final weights.
func runAgent(t *testing.T, steps int) []byte {
	t.Helper()
	rng := stats.NewRNG(11)
	online := nn.NewDNN(4, []int{16}, 3, rng.Split())
	a := NewAgent(online, 3, Config{
		BatchSize: 8, WarmupSteps: 8, EpsilonDecaySteps: steps, TargetSyncEvery: 10,
	}, stats.NewRNG(13))
	env := stats.NewRNG(17)
	state := []float64{0.1, 0.2, 0.3, 0.4}
	for i := 0; i < steps; i++ {
		next := []float64{env.Float64(), env.Float64(), env.Float64(), env.Float64()}
		a.Observe(Transition{
			State: state, Action: a.Act(state),
			Reward: env.Range(-1, 1), NextState: next,
			Terminal: i%25 == 24,
		})
		state = next
	}
	params, err := a.online.MarshalParams()
	if err != nil {
		t.Fatal(err)
	}
	return params
}

// TestObserveParallelDeterminism checks the replayed Q-learning update is
// bit-identical across worker counts, including the sequential path.
func TestObserveParallelDeterminism(t *testing.T) {
	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)
	want := runAgent(t, 120)
	for _, w := range []int{2, 8} {
		runtime.GOMAXPROCS(w)
		if got := runAgent(t, 120); !bytes.Equal(want, got) {
			t.Errorf("workers=%d: DQN update diverged from sequential", w)
		}
	}
}
