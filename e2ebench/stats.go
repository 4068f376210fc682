package main

import (
	"math"
	"sort"
)

// tailMinBeyond is the tail rule: the reported tail is the highest
// percentile that still has at least this many samples above it, so a
// tail is never a single outlier.
const tailMinBeyond = 10

// median returns the median of xs (NaN for an empty slice).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// mean returns the arithmetic mean of xs (NaN for an empty slice).
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// tail applies the tail rule to xs: it returns the sample with exactly
// tailMinBeyond samples above it in sorted order, and the percentile
// that sample sits at (100·rank/len). With fewer than tailMinBeyond+1
// samples no percentile qualifies and ok is false.
func tail(xs []float64) (value, pct float64, ok bool) {
	if len(xs) <= tailMinBeyond {
		return math.NaN(), 0, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := len(s) - 1 - tailMinBeyond
	return s[rank], 100 * float64(rank+1) / float64(len(s)), true
}
