package rl

import (
	"testing"
	"testing/quick"

	"github.com/autonomizer/autonomizer/internal/nn"
	"github.com/autonomizer/autonomizer/internal/stats"
)

func TestReplayBufferBasics(t *testing.T) {
	b := NewReplayBuffer(3, stats.NewRNG(1))
	if b.Cap() != 3 || b.Len() != 0 {
		t.Fatalf("fresh buffer len/cap = %d/%d", b.Len(), b.Cap())
	}
	// Add reports the ring slot it wrote: 0, 1, 2, then the oldest.
	inSlot := map[int]int{}
	for i, want := range []int{0, 1, 2, 0, 1} {
		if got := b.Add(Transition{State: []float64{float64(i)}, Action: i}); got != want {
			t.Fatalf("Add %d wrote slot %d, want %d", i, got, want)
		}
		inSlot[want] = i
	}
	if b.Len() != 3 {
		t.Fatalf("Len after overflow = %d, want 3", b.Len())
	}
	// Oldest entries (0, 1) must have been evicted, and every draw must
	// report the slot that holds it.
	seen := map[int]bool{}
	one, slot := make([]Transition, 1), make([]int, 1)
	for i := 0; i < 200; i++ {
		b.Sample(one, slot)
		if inSlot[slot[0]] != one[0].Action {
			t.Fatalf("draw of action %d reported slot %d, which holds %d", one[0].Action, slot[0], inSlot[slot[0]])
		}
		seen[one[0].Action] = true
	}
	if seen[0] || seen[1] {
		t.Errorf("evicted transitions still sampled: %v", seen)
	}
	if !seen[2] || !seen[3] || !seen[4] {
		t.Errorf("recent transitions missing from samples: %v", seen)
	}
}

func TestReplayBufferPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("zero capacity did not panic")
		}
	}()
	NewReplayBuffer(0, stats.NewRNG(1))
}

func TestReplaySampleEmptyPanics(t *testing.T) {
	b := NewReplayBuffer(2, stats.NewRNG(1))
	defer func() {
		if recover() == nil {
			t.Error("sampling empty buffer did not panic")
		}
	}()
	b.Sample(make([]Transition, 1), make([]int, 1))
}

func TestReplayBufferNeverExceedsCap(t *testing.T) {
	prop := func(n uint8) bool {
		b := NewReplayBuffer(7, stats.NewRNG(uint64(n)+1))
		for i := 0; i < int(n); i++ {
			b.Add(Transition{})
		}
		return b.Len() <= 7
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestTraceBytes(t *testing.T) {
	b := NewReplayBuffer(10, stats.NewRNG(1))
	b.Add(Transition{State: make([]float64, 4), NextState: make([]float64, 4)})
	if got := b.TraceBytes(); got != 8*8+24 {
		t.Errorf("TraceBytes = %d, want %d", got, 8*8+24)
	}
	// Raw-pixel states must dominate internal-state traces, the Table 2
	// relationship.
	raw := NewReplayBuffer(10, stats.NewRNG(1))
	raw.Add(Transition{State: make([]float64, 84*84), NextState: make([]float64, 84*84)})
	if raw.TraceBytes() <= b.TraceBytes() {
		t.Error("raw trace not larger than internal-state trace")
	}
}

func TestEpsilonSchedule(t *testing.T) {
	rng := stats.NewRNG(2)
	online := nn.NewDNN(2, []int{4}, 2, rng)
	a := NewAgent(online, 2, Config{EpsilonDecaySteps: 10, WarmupSteps: 1000}, rng)
	if e := a.Epsilon(); e != 1.0 {
		t.Errorf("initial epsilon = %v, want 1.0", e)
	}
	for i := 0; i < 20; i++ {
		a.Observe(Transition{State: []float64{0, 0}, NextState: []float64{0, 0}})
	}
	if e := a.Epsilon(); e < 0.05-1e-9 || e > 0.05+1e-9 {
		t.Errorf("final epsilon = %v, want 0.05", e)
	}
	if a.Steps() != 20 {
		t.Errorf("Steps = %d, want 20", a.Steps())
	}
}

func TestGreedyActIsArgmax(t *testing.T) {
	rng := stats.NewRNG(3)
	online := nn.NewDNN(2, nil, 3, rng)
	// An ε this small never explores, so Act is the greedy policy.
	a := NewAgent(online, 3, Config{EpsilonStart: 1e-300, EpsilonEnd: 1e-300}, rng)
	s := []float64{1, -1}
	want := stats.ArgMax(a.Online().Predict(s))
	for i := 0; i < 10; i++ {
		if got := a.Act(s); got != want {
			t.Fatalf("greedy Act = %d, want argmax %d", got, want)
		}
	}
}

// TestTargetPlanSnapshot checks the target plan's lifecycle: nothing is
// compiled during warmup; the first replayed update snapshots the online
// weights as they were before it trained; the snapshot holds still across
// fewer than TargetSyncEvery updates while the online network moves; and
// the sync update snapshots the weights it just produced.
func TestTargetPlanSnapshot(t *testing.T) {
	const sync = 4
	a := NewAgent(nn.NewDNN(2, []int{4}, 2, stats.NewRNG(5)), 2, Config{
		BatchSize: 4, WarmupSteps: 4, TargetSyncEvery: sync, LR: 0.05,
	}, stats.NewRNG(4))
	s := []float64{0.5, -0.5}
	observe := func() {
		a.Observe(Transition{State: []float64{1, 0}, Action: 1, Reward: 1, NextState: []float64{0, 1}})
	}
	equal := func(x, y []float64) bool {
		for i := range x {
			if x[i] != y[i] {
				return false
			}
		}
		return len(x) == len(y)
	}
	for i := 0; i < 3; i++ {
		observe()
	}
	if a.target != nil {
		t.Fatal("target plan compiled during warmup")
	}
	before := a.Online().Predict(s)
	observe() // first update
	snap := a.target.Predict(s)
	if !equal(snap, before) {
		t.Fatalf("target snapshot %v, want the pre-update online forward %v", snap, before)
	}
	for u := 2; u < sync; u++ {
		observe()
		if got := a.target.Predict(s); !equal(got, snap) {
			t.Fatalf("target moved at update %d: %v, want %v", u, got, snap)
		}
	}
	if equal(a.Online().Predict(s), snap) {
		t.Fatal("online network did not move; the snapshot check proves nothing")
	}
	observe() // sync update
	if got, want := a.target.Predict(s), a.Online().Predict(s); !equal(got, want) {
		t.Fatalf("target after sync %v, want online %v", got, want)
	}
}

// TestAgentSolvesChainMDP trains the agent on a tiny deterministic chain
// MDP where moving right always pays off; the learned greedy policy must
// prefer "right" in every state. This is the end-to-end check that the
// replay + target-network + Adam pipeline actually learns.
func TestAgentSolvesChainMDP(t *testing.T) {
	const chainLen = 5
	rng := stats.NewRNG(7)
	encode := func(pos int) []float64 {
		s := make([]float64, chainLen)
		s[pos] = 1
		return s
	}
	online := nn.NewDNN(chainLen, []int{16}, 2, rng.Split())
	a := NewAgent(online, 2, Config{
		EpsilonDecaySteps: 1500,
		WarmupSteps:       64,
		BatchSize:         16,
		TargetSyncEvery:   50,
		LR:                5e-3,
	}, rng.Split())

	pos := 0
	for step := 0; step < 4000; step++ {
		s := encode(pos)
		act := a.Act(s)
		next := pos
		reward := -0.1
		terminal := false
		if act == 1 { // right
			next = pos + 1
			if next == chainLen-1 {
				reward = 10
				terminal = true
			}
		} else if pos > 0 { // left
			next = pos - 1
		}
		a.Observe(Transition{State: s, Action: act, Reward: reward, NextState: encode(next), Terminal: terminal})
		if terminal {
			pos = 0
		} else {
			pos = next
		}
	}
	for p := 0; p < chainLen-1; p++ {
		if got := stats.ArgMax(a.Online().Predict(encode(p))); got != 1 {
			t.Errorf("greedy policy at pos %d = %d, want 1 (right)", p, got)
		}
	}
}

func TestObserveReturnsZeroDuringWarmup(t *testing.T) {
	rng := stats.NewRNG(8)
	online := nn.NewDNN(1, nil, 2, rng)
	a := NewAgent(online, 2, Config{WarmupSteps: 50}, rng)
	for i := 0; i < 49; i++ {
		if loss := a.Observe(Transition{State: []float64{0}, NextState: []float64{0}}); loss != 0 {
			t.Fatalf("training ran during warmup at step %d", i)
		}
	}
}

func TestNewAgentPanicsOnBadActions(t *testing.T) {
	rng := stats.NewRNG(9)
	defer func() {
		if recover() == nil {
			t.Error("zero actions did not panic")
		}
	}()
	n := nn.NewDNN(1, nil, 1, rng)
	NewAgent(n, 0, Config{}, rng)
}

func TestConfigDefaults(t *testing.T) {
	var c Config
	c.fillDefaults()
	if c.Gamma != 0.97 || c.BatchSize != 32 || c.ReplayCapacity != 10000 ||
		c.TargetSyncEvery != 250 || c.LearnEvery != 1 || c.WarmupSteps != 100 ||
		c.LR != 1e-3 || c.EpsilonStart != 1.0 || c.EpsilonEnd != 0.05 {
		t.Errorf("defaults wrong: %+v", c)
	}
}

// TestDoubleDQNSolvesChain repeats the chain-MDP check with double
// Q-learning enabled: the decoupled action selection must not break
// convergence.
func TestDoubleDQNSolvesChain(t *testing.T) {
	const chainLen = 5
	rng := stats.NewRNG(70)
	encode := func(pos int) []float64 {
		s := make([]float64, chainLen)
		s[pos] = 1
		return s
	}
	online := nn.NewDNN(chainLen, []int{16}, 2, rng.Split())
	a := NewAgent(online, 2, Config{
		EpsilonDecaySteps: 1500,
		WarmupSteps:       64,
		BatchSize:         16,
		TargetSyncEvery:   50,
		LR:                5e-3,
		DoubleDQN:         true,
	}, rng.Split())

	pos := 0
	for step := 0; step < 4000; step++ {
		s := encode(pos)
		act := a.Act(s)
		next := pos
		reward := -0.1
		terminal := false
		if act == 1 {
			next = pos + 1
			if next == chainLen-1 {
				reward = 10
				terminal = true
			}
		} else if pos > 0 {
			next = pos - 1
		}
		a.Observe(Transition{State: s, Action: act, Reward: reward, NextState: encode(next), Terminal: terminal})
		if terminal {
			pos = 0
		} else {
			pos = next
		}
	}
	for p := 0; p < chainLen-1; p++ {
		if got := stats.ArgMax(a.Online().Predict(encode(p))); got != 1 {
			t.Errorf("double-DQN greedy policy at pos %d = %d, want 1", p, got)
		}
	}
}
