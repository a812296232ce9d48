package main

import (
	"slices"
	"time"
)

// Plain-frame pairing. On a shared host the CPU switches between a fast
// and a slow mode, every 100 ms to several seconds, and a fixed piece of
// work takes up to twice as long in the slow mode. Every CPU-bound metric
// is therefore a cost in plain frames: each timed slice of work is
// followed by a short slice of the plain loop, and the two are compared.
//
// The slow mode slows the plain loop's scalar game code more than the
// vectorized NN kernels (on a shared 2-vCPU Xeon VM 1.9x against about
// 1.2x for a Raw deployed frame), so a ratio of summed times would still
// move with the share of a run spent in each mode. The slices of each
// metric are alike (training slices only past the replay warm-up), so
// fastCost compares 10th percentiles instead: the cost of a slice and of
// a plain frame in the host's fast mode, whatever share of the run it had.

// pair is one timed slice of work and the plain slice that followed it.
type pair struct {
	work        time.Duration
	units       int // frames or requests in the work slice
	plain       time.Duration
	plainFrames int
	samples     [2]int // [first, end) of the slice's per-unit samples, if kept
}

func (p pair) unitCost() float64   { return float64(p.work) / float64(p.units) }
func (p pair) plainFrame() float64 { return float64(p.plain) / float64(p.plainFrames) }

// fastCost is the cost of one unit of work in plain frames in the host's
// fast mode: per group, the 10th percentile of unit costs over the 10th
// percentile of plain frames, averaged over groups weighted by units.
// Groups (one per game) are kept apart because their plain loops differ.
func fastCost(groups ...[]pair) float64 {
	var sum, units float64
	for _, g := range groups {
		if len(g) == 0 {
			continue
		}
		n := 0
		for _, p := range g {
			n += p.units
		}
		sum += float64(n) * lowDecile(g, pair.unitCost) / lowDecile(g, pair.plainFrame)
		units += float64(n)
	}
	if units == 0 {
		return 0
	}
	return sum / units
}

func lowDecile(g []pair, f func(pair) float64) float64 {
	xs := make([]float64, len(g))
	for i, p := range g {
		xs[i] = f(p)
	}
	slices.Sort(xs)
	return xs[len(xs)/10]
}

// plainQuantile is the q-quantile of per-unit samples, each divided by
// its own pair's plain frame.
func plainQuantile(samples []float32, q float64, groups ...[]pair) float64 {
	var xs []float32
	for _, g := range groups {
		for _, p := range g {
			pf := float32(p.plainFrame())
			for _, v := range samples[p.samples[0]:p.samples[1]] {
				xs = append(xs, v/pf)
			}
		}
	}
	return quantile(xs, q)
}
