package main

import (
	"testing"
	"time"
)

// TestRankingVerdict pins Ablation 1's wording: a negative score
// difference is a loss, never a win by a negative percentage, and a
// slower ranked run costs more training time, not "less".
func TestRankingVerdict(t *testing.T) {
	cases := []struct {
		min, raw           float64
		minTrain, rawTrain time.Duration
		want               string
	}{
		{0.9, 0.6, time.Second, 3 * time.Second, "ranking wins by 50% score at 3.0x less training time"},
		{0.4, 0.45, time.Second, 2 * time.Second, "ranking loses by 11% score at 2.0x less training time"},
		{0.5, 0.5, 2 * time.Second, time.Second, "ranking ties on score at 2.0x more training time"},
	}
	for _, c := range cases {
		if got := rankingVerdict(c.min, c.raw, c.minTrain, c.rawTrain); got != c.want {
			t.Errorf("rankingVerdict(%v, %v, %v, %v) = %q, want %q", c.min, c.raw, c.minTrain, c.rawTrain, got, c.want)
		}
	}
}
