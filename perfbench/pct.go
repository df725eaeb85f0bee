package main

import (
	"math"
	"sort"
)

// rankIndex is the 0-based index of the p-quantile (0 < p <= 1) among n
// sorted samples by the nearest-rank rule: the smallest sample with at
// least ceil(p*n) samples at or below it. The epsilon keeps products such
// as 0.99*100 from rounding up past an exact rank.
func rankIndex(p float64, n int) int {
	i := int(math.Ceil(p*float64(n)-1e-9)) - 1
	if i < 0 {
		return 0
	}
	if i > n-1 {
		return n - 1
	}
	return i
}

// latencies is one op kind's samples in milliseconds.
type latencies []float64

func (l latencies) sorted() latencies {
	out := append(latencies(nil), l...)
	sort.Float64s(out)
	return out
}

// at returns the nearest-rank p-quantile of sorted samples.
func (l latencies) at(p float64) float64 {
	if len(l) == 0 {
		return 0
	}
	return l[rankIndex(p, len(l))]
}

// tailQuantile is the highest of the usual reporting quantiles that
// still has at least ten samples above its rank, or 0.5 when none has.
func tailQuantile(n int) float64 {
	for _, p := range []float64{0.999, 0.99, 0.95, 0.9} {
		if n-(rankIndex(p, n)+1) >= 10 {
			return p
		}
	}
	return 0.5
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
