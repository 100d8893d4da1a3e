package main

import (
	"math"
	"sort"
)

// quantile returns the q-quantile (0 ≤ q ≤ 1) of xs by the nearest-rank
// rule on a sorted copy. Failed operations enter as +Inf, so they count
// as missing any latency limit; an empty sample yields NaN.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	idx := int(math.Ceil(q*float64(len(s)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(s) {
		idx = len(s) - 1
	}
	return s[idx]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// beyond counts the samples strictly above the q-quantile, the check
// behind each workload's fixed tail percentile (at least ten samples
// must lie beyond it).
func beyond(xs []float64, q float64) int {
	v := quantile(xs, q)
	n := 0
	for _, x := range xs {
		if x > v {
			n++
		}
	}
	return n
}

// relClose reports whether a and b agree within rel relative tolerance.
// floor is the magnitude below which the comparison turns absolute
// (rel·floor): callers pass the scale of the whole vector a value
// belongs to, so entries that are near zero compare against it.
func relClose(a, b, rel, floor float64) bool {
	scale := math.Max(math.Max(math.Abs(a), math.Abs(b)), floor)
	return math.Abs(a-b) <= rel*scale
}
