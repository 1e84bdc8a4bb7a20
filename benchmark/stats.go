package main

import (
	"math"
	"sort"
)

// median returns the middle value of vs (mean of the two middle values
// for an even count), or 0 for an empty slice.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := sortedCopy(vs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sortedCopy(vs []float64) []float64 {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	return s
}

// quartiles returns the first and third quartile exactly as Python's
// statistics.quantiles(vs, n=4) does (the "exclusive" method), so the
// spreads this harness prints match the ones the acceptance check takes.
// Fewer than two values have no spread: both quartiles are the value.
func quartiles(vs []float64) (q1, q3 float64) {
	s := sortedCopy(vs)
	n := len(s)
	switch n {
	case 0:
		return 0, 0
	case 1:
		return s[0], s[0]
	}
	at := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// percentile returns the nearest-rank p-th percentile (0 < p ≤ 100) of
// an ascending-sorted slice.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// tailLadder lists the percentiles a tail metric may report, highest
// first.
var tailLadder = []float64{99, 90, 75, 50}

// tailPercentile applies the reporting rule for tails: a percentile is
// only trusted with at least ten samples beyond it. want is the
// workload's fixed tail percentile; with too few samples the rule steps
// down the ladder, and the percentile actually used is returned so the
// report can print it next to the sample count.
func tailPercentile(n int, want float64) float64 {
	for _, p := range tailLadder {
		if p > want {
			continue
		}
		if beyond(n, p) >= 10 {
			return p
		}
	}
	return tailLadder[len(tailLadder)-1]
}

// beyond counts the samples strictly above the nearest-rank p-th
// percentile of n samples.
func beyond(n int, p float64) int {
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank > n {
		rank = n
	}
	return n - rank
}
