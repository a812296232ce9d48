// Package rl implements the reinforcement-learning algorithm the paper
// names for interactive programs: Q-learning (Watkins & Dayan) realized
// as a deep Q-network over either extracted internal program state
// ("All") or raw screen pixels ("Raw"). It provides the experience
// replay buffer, ε-greedy exploration, bootstrapping from a compiled
// target plan, and the replayed update — one nn.Network.TrainBatch of
// the TD Huber loss — that the Autonomizer runtime invokes from the
// au_NN primitive in training mode.
package rl

import (
	"github.com/autonomizer/autonomizer/internal/auerr"
	"github.com/autonomizer/autonomizer/internal/stats"
)

// Transition is one (s, a, r, s', terminal) experience tuple. State
// vectors are owned by the buffer after Add; callers must not mutate
// them afterwards.
type Transition struct {
	State     []float64
	Action    int
	Reward    float64
	NextState []float64
	Terminal  bool
}

// ReplayBuffer is a fixed-capacity ring buffer of transitions with
// uniform random sampling — the experience-replay mechanism of DQN.
type ReplayBuffer struct {
	buf  []Transition
	next int
	rng  *stats.RNG
}

// NewReplayBuffer creates a buffer holding at most capacity transitions.
func NewReplayBuffer(capacity int, rng *stats.RNG) *ReplayBuffer {
	if capacity <= 0 {
		auerr.Failf("rl: replay capacity must be positive, got %d", capacity)
	}
	return &ReplayBuffer{buf: make([]Transition, 0, capacity), rng: rng}
}

// Add appends a transition, evicting the oldest when full, and returns
// the slot it wrote: the index Sample reports for draws of it until a
// later Add overwrites that slot.
func (b *ReplayBuffer) Add(t Transition) int {
	if len(b.buf) < cap(b.buf) {
		b.buf = append(b.buf, t)
		return len(b.buf) - 1
	}
	slot := b.next
	b.buf[slot] = t
	b.next = (b.next + 1) % cap(b.buf)
	return slot
}

// Len reports the number of stored transitions.
func (b *ReplayBuffer) Len() int { return len(b.buf) }

// Cap reports the buffer capacity.
func (b *ReplayBuffer) Cap() int { return cap(b.buf) }

// Sample fills dst with transitions drawn uniformly with replacement
// and slots[i] with the slot dst[i] was drawn from; slots must be at
// least as long as dst. It panics if the buffer is empty.
func (b *ReplayBuffer) Sample(dst []Transition, slots []int) {
	if len(b.buf) == 0 {
		auerr.Failf("rl: sampling from empty replay buffer")
	}
	slots = slots[:len(dst)]
	for i := range dst {
		s := b.rng.Intn(len(b.buf))
		dst[i], slots[i] = b.buf[s], s
	}
}

// TraceBytes estimates the in-memory footprint of the stored experience:
// 8 bytes per state scalar plus the tuple bookkeeping. Table 2's "Trace
// Size" columns are derived from this accounting — the paper's central
// quantitative point that raw-pixel traces dwarf internal-state traces.
func (b *ReplayBuffer) TraceBytes() int {
	total := 0
	for i := range b.buf {
		total += 8*(len(b.buf[i].State)+len(b.buf[i].NextState)) + 24
	}
	return total
}
