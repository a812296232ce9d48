// Package stats provides the small statistical toolkit that the rest of
// Autonomizer builds on: summary statistics, min-max scaling, Euclidean
// trace distances (with the zero-padding rule from the paper, Section 4),
// and a deterministic splittable random number generator used to keep
// every experiment reproducible.
package stats

import (
	"errors"
	"math"
)

// ErrEmpty is returned by functions that cannot operate on empty input.
var ErrEmpty = errors.New("stats: empty input")

// Mean returns the arithmetic mean of xs, or 0 for empty input.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Variance returns the population variance of xs, or 0 for fewer than two
// samples. Algorithm 2 in the paper compares this value against the
// threshold epsilon2 to prune unchanging candidate feature variables.
func Variance(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	sum := 0.0
	for _, x := range xs {
		d := x - m
		sum += d * d
	}
	return sum / float64(len(xs))
}

// Min returns the minimum of xs. It returns ErrEmpty for empty input.
func Min(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m, nil
}

// Max returns the maximum of xs. It returns ErrEmpty for empty input.
func Max(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m, nil
}

// MinMaxScale returns a copy of xs linearly rescaled into [0, 1], matching
// sklearn's minmax_scale which the paper cites for trace normalization.
// A constant sequence scales to all zeros.
func MinMaxScale(xs []float64) []float64 {
	out := make([]float64, len(xs))
	if len(xs) == 0 {
		return out
	}
	lo, _ := Min(xs)
	hi, _ := Max(xs)
	span := hi - lo
	if span == 0 {
		return out
	}
	for i, x := range xs {
		out[i] = (x - lo) / span
	}
	return out
}

// EuclideanDistance returns the Euclidean distance between two sequences.
// Following the paper (Section 4, footnote 2), when the sequences have
// different lengths the shorter one is implicitly padded with zeros.
func EuclideanDistance(a, b []float64) float64 {
	n := len(a)
	if len(b) > n {
		n = len(b)
	}
	sum := 0.0
	for i := 0; i < n; i++ {
		var av, bv float64
		if i < len(a) {
			av = a[i]
		}
		if i < len(b) {
			bv = b[i]
		}
		d := av - bv
		sum += d * d
	}
	return math.Sqrt(sum)
}

// Clamp limits x to the inclusive range [lo, hi].
func Clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}

// ArgMax returns the index of the largest element of xs, or -1 for empty
// input. Ties resolve to the lowest index, which keeps greedy action
// selection deterministic.
func ArgMax(xs []float64) int {
	if len(xs) == 0 {
		return -1
	}
	idx := 0
	for i := 1; i < len(xs); i++ {
		if xs[i] > xs[idx] {
			idx = i
		}
	}
	return idx
}

// Sum returns the sum of xs.
func Sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

// Normalize returns a copy of xs scaled so its elements sum to 1. If the
// sum is zero the result is a uniform distribution.
func Normalize(xs []float64) []float64 {
	out := make([]float64, len(xs))
	if len(xs) == 0 {
		return out
	}
	s := Sum(xs)
	if s == 0 {
		u := 1 / float64(len(xs))
		for i := range out {
			out[i] = u
		}
		return out
	}
	for i, x := range xs {
		out[i] = x / s
	}
	return out
}

// Histogram bins xs into n equal-width buckets over [lo, hi]. Values
// outside the range clamp into the first or last bucket. The Canny subject
// feeds its gradient-magnitude histogram through this function; the
// histogram is the paper's flagship "Min-distance" feature variable.
func Histogram(xs []float64, n int, lo, hi float64) []float64 {
	out := make([]float64, n)
	if n == 0 || hi <= lo {
		return out
	}
	w := (hi - lo) / float64(n)
	for _, x := range xs {
		i := int((x - lo) / w)
		if i < 0 {
			i = 0
		}
		if i >= n {
			i = n - 1
		}
		out[i]++
	}
	return out
}
