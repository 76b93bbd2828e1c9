package main

import (
	"math"
	"sort"
	"time"
)

// percentile returns the nearest-rank p-th percentile (0 < p ≤ 1) of the
// samples: the smallest value with at least p·n samples at or below it.
// It returns 0 for no samples.
func percentile(samples []float64, p float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	rank := int(math.Ceil(p * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

func median(samples []float64) float64 { return percentile(samples, 0.5) }

func maxOf(samples []float64) float64 {
	m := 0.0
	for _, v := range samples {
		if v > m {
			m = v
		}
	}
	return m
}

func sum(samples []float64) float64 {
	t := 0.0
	for _, v := range samples {
		t += v
	}
	return t
}

// beyond returns how many of n samples lie strictly beyond the nearest-rank
// p-th percentile.
func beyond(n int, p float64) int { return n - int(math.Ceil(p*float64(n))) }

// tailSupported reports whether n samples support reporting the p-th
// percentile: the rule is at least ten samples beyond it, so p99 needs
// 1,000 samples and a median 20.
func tailSupported(n int, p float64) bool { return beyond(n, p) >= 10 }

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// ratio is a/b, or 0 when b is 0 (a metric that does not apply).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
