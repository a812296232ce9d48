package env

import "github.com/autonomizer/autonomizer/internal/parallel"

// ParallelAverageScore plays episodes concurrently and reports the mean
// score and success rate, the fan-out counterpart of AverageScore. Each
// episode owns a private environment and policy built by the factories
// (called from shard goroutines — they must not hand out shared mutable
// state), and results are reduced in episode order, so the outcome is
// bit-identical at any width, including 1.
func ParallelAverageScore(newEnv func(episode int) Env, newPolicy func(episode int) Policy,
	episodes, maxSteps int) (score, successRate float64) {
	results := make([]EpisodeResult, episodes)
	parallel.For(episodes, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			results[i] = RunEpisode(newEnv(i), newPolicy(i), maxSteps)
		}
	})
	for _, res := range results {
		score += res.Score
		if res.Success {
			successRate++
		}
	}
	return score / float64(episodes), successRate / float64(episodes)
}
