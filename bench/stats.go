package main

import (
	"math"
	"sort"
)

// median returns the middle of xs (mean of the two middle values for an
// even count); 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quantileSorted returns the q-quantile of an ascending slice by the
// nearest-rank rule: the smallest value with at least q of the sample at or
// below it.
func quantileSorted(s []float64, q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[min(max(i, 0), len(s)-1)]
}

// percentileLadder are the percentiles, in percent, a tail metric may fall
// back to.
var percentileLadder = []int{99, 95, 90, 50}

// supportedPercentile returns the highest percentile of the ladder, not
// above want, that has at least ten samples beyond it in a sample of n —
// the rule for reporting a tail from a small sample. With fewer than 20
// samples even the median has no ten beyond it; the median is returned.
func supportedPercentile(n int, want float64) float64 {
	for _, pct := range percentileLadder {
		if q := float64(pct) / 100; q <= want && n*(100-pct)/100 >= 10 {
			return q
		}
	}
	return 0.50
}

// spreadShare is (max-min)/median of xs: the run-to-run spread compare
// mode holds against a metric's bound.
func spreadShare(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	lo, hi := xs[0], xs[0]
	for _, x := range xs {
		lo, hi = min(lo, x), max(hi, x)
	}
	m := median(xs)
	if m == 0 {
		return 0
	}
	return (hi - lo) / math.Abs(m)
}
