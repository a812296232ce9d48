package bench

import (
	"runtime"
	"testing"

	"github.com/autonomizer/autonomizer/internal/games/env"
	"github.com/autonomizer/autonomizer/internal/stats"
)

// rolloutScore runs the noisy-player reference evaluation the way RunRL
// does: per-episode environments and per-episode noise streams split
// from one seed.
func rolloutScore(subject *RLSubject, episodes int) (float64, float64) {
	streams := stats.NewRNG(101).SplitN(episodes)
	return env.ParallelAverageScore(
		func(int) env.Env { return subject.NewEnv(7) },
		func(ep int) env.Policy {
			return noisyPolicyStream(subject.Player, subject.Actions, streams[ep], playerNoise)
		},
		episodes, 400)
}

// TestParallelRolloutsDeterministic checks episode rollouts reduce to
// bit-identical aggregates at any worker count: each episode's outcome
// depends only on its own environment and RNG stream, never on which
// worker ran it.
func TestParallelRolloutsDeterministic(t *testing.T) {
	subject := FlappySubject()
	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)
	wantScore, wantSuccess := rolloutScore(subject, 12)
	for _, w := range []int{2, 8} {
		runtime.GOMAXPROCS(w)
		gotScore, gotSuccess := rolloutScore(subject, 12)
		if gotScore != wantScore || gotSuccess != wantSuccess {
			t.Errorf("workers=%d: rollout aggregate (%v, %v) != sequential (%v, %v)",
				w, gotScore, gotSuccess, wantScore, wantSuccess)
		}
	}
}
