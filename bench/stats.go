package main

import (
	"math"
	"sort"
)

// quantile returns the q-quantile (0..1) of sorted by linear interpolation
// between the two nearest ranks, so quantile(s, 0.5) is the textbook median.
// It returns 0 for an empty slice: a metric nothing was sampled for reads 0.
func quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo < 0 {
		lo = 0
	}
	if hi >= n {
		hi = n - 1
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// sortedCopy returns an ascending copy of v.
func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// median is the 0.5-quantile of the (unsorted) samples.
func median(v []float64) float64 { return quantile(sortedCopy(v), 0.5) }

// quartiles returns the first, second and third quartile exactly as
// Python's statistics.quantiles(values, n=4) does (the "exclusive" method),
// because that is the rule the acceptance driver applies to repeated runs.
// Fewer than two values have no spread: all three read the single value.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := sortedCopy(v)
	n := len(s)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	cut := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*(n+1) - j*4 // after clamping, as Python does: the ends extrapolate
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// spread is the interquartile distance as a share of the median — the
// run-to-run noise figure bounds are compared against.
func spread(v []float64) float64 {
	q1, q2, q3 := quartiles(v)
	if q2 == 0 {
		return 0
	}
	return math.Abs((q3 - q1) / q2)
}

// tailPercentile returns the highest of p99, p95, p90, p75 that still has at
// least ten samples beyond it in a set of n, or p50 when none has. A
// percentile with fewer samples beyond it is set by a handful of outliers
// and is not worth reporting.
func tailPercentile(n int) float64 {
	for _, pct := range []int{99, 95, 90, 75} {
		if n*(100-pct) >= 10*100 { // whole numbers: 100*(1-0.9) is not 10 in floating point
			return float64(pct) / 100
		}
	}
	return 0.5
}

// timing summarizes one latency sample set in the unit the samples carry.
type timing struct {
	N     int     `json:"n"`
	P50   float64 `json:"p50"`
	P95   float64 `json:"p95"`
	P99   float64 `json:"p99"`
	TailP float64 `json:"tail_p"` // highest percentile with >=10 samples beyond it
	Tail  float64 `json:"tail"`
}

func summarize(samples []float64) timing {
	s := sortedCopy(samples)
	tp := tailPercentile(len(s))
	return timing{
		N: len(s), P50: quantile(s, 0.5), P95: quantile(s, 0.95), P99: quantile(s, 0.99),
		TailP: tp * 100, Tail: quantile(s, tp),
	}
}
