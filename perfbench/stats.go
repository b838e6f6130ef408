package main

import (
	"math"
	"sort"
)

// summary holds a sample's order statistics together with its size, so
// every reported timing carries the number of observations behind it.
type summary struct {
	N   int
	P50 float64
	Max float64
	// Tail is the highest of p99, p95, p90, p75 and p50 that leaves at
	// least ten samples beyond it, or the maximum when none does; TailPct
	// names it, 100 for the maximum.
	Tail    float64
	TailPct int
}

// summarize computes the order statistics of xs; xs is not modified.
func summarize(xs []float64) summary {
	if len(xs) == 0 {
		return summary{}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	out := summary{
		N:   len(s),
		P50: quantile(s, 0.5),
		Max: s[len(s)-1],
	}
	out.Tail, out.TailPct = out.Max, 100
	for _, pct := range []int{99, 95, 90, 75, 50} {
		if len(s)*(100-pct) >= 10*100 { // at least ten samples beyond pct
			out.Tail, out.TailPct = quantile(s, float64(pct)/100), pct
			break
		}
	}
	return out
}

// quantile interpolates linearly between the closest ranks of an
// ascending sample (the "type 7" estimator).
func quantile(sorted []float64, q float64) float64 {
	switch len(sorted) {
	case 0:
		return math.NaN()
	case 1:
		return sorted[0]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	if lo >= len(sorted)-1 {
		return sorted[len(sorted)-1]
	}
	frac := pos - float64(lo)
	return sorted[lo] + frac*(sorted[lo+1]-sorted[lo])
}

// median is the sample's 50th percentile; 0 for an empty sample.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return summarize(xs).P50
}

// ratio divides a by b, returning 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
