package rl

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"runtime"
	"testing"

	"github.com/autonomizer/autonomizer/internal/nn"
	"github.com/autonomizer/autonomizer/internal/stats"
)

// smallCNN is a conv → ReLU → max-pool → dense Q-network over (2,8,8)
// states: every layer kind the DeepMind CNN has, at a size the race
// detector runs in seconds.
func smallCNN(rng *stats.RNG) *nn.Network {
	return nn.NewNetwork(
		nn.NewConv2D(2, 4, 3, 3, 1, 1, rng.Split()), nn.NewReLU(), nn.NewMaxPool2D(2),
		nn.NewFlatten(), nn.NewDense(4*4*4, 3, rng.Split()),
	)
}

// goldenDigest runs a fixed-seed 300-step DQN (a terminal transition
// every 25 steps, a target sync every 10 updates) and returns the FNV-64a
// digest of every action and loss followed by the final online weights.
func goldenDigest(t *testing.T, cnn, double bool) uint64 {
	t.Helper()
	cfg := Config{
		BatchSize: 8, WarmupSteps: 16, EpsilonDecaySteps: 200,
		TargetSyncEvery: 10, LR: 3e-3, DoubleDQN: double,
	}
	var online *nn.Network
	stateLen := 6
	if cnn {
		cfg.StateShape = []int{2, 8, 8}
		stateLen = 128
		online = smallCNN(stats.NewRNG(21))
	} else {
		online = nn.NewDNN(stateLen, []int{16, 8}, 3, stats.NewRNG(21))
	}
	a := NewAgent(online, 3, cfg, stats.NewRNG(23))
	env := stats.NewRNG(29)
	draw := func() []float64 {
		s := make([]float64, stateLen)
		for i := range s {
			s[i] = env.Float64()
		}
		return s
	}
	h := fnv.New64a()
	var word [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(word[:], v)
		h.Write(word[:])
	}
	state := draw()
	for i := 0; i < 300; i++ {
		act := a.Act(state)
		next := draw()
		loss := a.Observe(Transition{
			State: state, Action: act, Reward: env.Range(-1, 1),
			NextState: next, Terminal: i%25 == 24,
		})
		put(uint64(act))
		put(math.Float64bits(loss))
		state = next
	}
	params, err := a.Online().MarshalParams()
	if err != nil {
		t.Fatal(err)
	}
	h.Write(params)
	return h.Sum64()
}

// TestGoldenDigest pins the DQN's losses, actions and final weights at
// every worker width to digests recorded when the target was a second
// network synced by parameter copy and the replay update had its own
// data-parallel loop: the compiled target plan and the single TrainBatch
// must reproduce that training bit for bit.
func TestGoldenDigest(t *testing.T) {
	cases := []struct {
		name        string
		cnn, double bool
		want        uint64
	}{
		{"dnn", false, false, 0xcba308ed1961ff17},
		{"dnn-double", false, true, 0x17eb6dafdf0a912b},
		{"cnn", true, false, 0x8a9a3b9d56fdfc3c},
		{"cnn-double", true, true, 0xdfe3f812a0df6579},
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for _, w := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(w)
		for _, c := range cases {
			if got := goldenDigest(t, c.cnn, c.double); got != c.want {
				t.Errorf("workers=%d %s: digest %#016x, want %#016x", w, c.name, got, c.want)
			}
		}
	}
}
