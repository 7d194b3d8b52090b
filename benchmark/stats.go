package main

import "sort"

// quantile returns the q-quantile (0 ≤ q ≤ 1) of sorted, linearly
// interpolated between order statistics; 0 for no samples.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	if lo+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}

// sortedCopy returns xs sorted ascending without touching xs.
func sortedCopy(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// tailPerMille are the candidates, in per mille, for "the highest
// percentile the sample supports".
var tailPerMille = []int{999, 990, 950, 900, 750}

// supportedTail returns the highest candidate percentile with at least
// ten samples beyond it, or 50 when even the lowest has fewer.
func supportedTail(n int) float64 {
	for _, pm := range tailPerMille {
		if n*(1000-pm) >= 10*1000 {
			return float64(pm) / 10
		}
	}
	return 50
}

// median of unsorted xs.
func median(xs []float64) float64 { return quantile(sortedCopy(xs), 0.5) }
