package main

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/stats"
)

// minBeyond is the percentile rule: a tail percentile is reported only when
// at least this many samples lie beyond it.
const minBeyond = 10

// median returns the median of xs, 0 for none: a layer the workload never
// called reads 0.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return stats.Quantile(xs, 0.5)
}

// tailPercentile returns the p-quantile (0.5 < p < 1) of xs, or an error
// when fewer than minBeyond samples lie above it.
func tailPercentile(xs []float64, p float64) (float64, error) {
	beyond := len(xs) - int(math.Ceil(p*float64(len(xs))))
	if beyond < minBeyond {
		return 0, fmt.Errorf("p%g of %d samples has %d beyond it, need %d", p*100, len(xs), beyond, minBeyond)
	}
	return stats.Quantile(xs, p), nil
}

// quartiles returns the first and third quartiles of xs by the method of
// Python's statistics.quantiles(xs, n=4) (the default "exclusive" method),
// so spreads computed here match the ones a Python harness computes from
// the same values. It needs at least two samples.
func quartiles(xs []float64) (q1, q3 float64) {
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	n := len(d)
	q := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		j = max(1, min(j, n-1))
		delta := i*m - j*4
		return (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}

// spread is the quartile distance as a share of the median.
func spread(xs []float64) float64 {
	q1, q3 := quartiles(xs)
	return (q3 - q1) / median(xs)
}
