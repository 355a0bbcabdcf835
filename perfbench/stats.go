package main

import (
	"fmt"
	"math"
	"sort"
)

// tailLadder is the set of percentiles a timing may report as its tail, from
// the highest down. A run reports the highest one that still has at least
// minBeyond samples above it.
var tailLadder = []float64{99.9, 99, 95, 90, 75, 50}

// minBeyond is how many samples must lie beyond a reported percentile.
const minBeyond = 10

// quantile returns the q-th percentile (0..100) of sorted xs by linear
// interpolation between closest ranks.
func quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	if n == 1 {
		return sorted[0]
	}
	pos := q / 100 * float64(n-1)
	lo := int(math.Floor(pos))
	if lo >= n-1 {
		return sorted[n-1]
	}
	frac := pos - float64(lo)
	return sorted[lo] + frac*(sorted[lo+1]-sorted[lo])
}

// supports reports whether n samples leave at least minBeyond samples above
// the q-th percentile.
func supports(n int, q float64) bool {
	return float64(n)*(100-q)/100 >= minBeyond-1e-9 // tolerate 100-99.9 != 0.1 exactly
}

// summary is a timing distribution reduced by the benchmark's rule: the
// median plus the highest percentile with at least ten samples beyond it.
type summary struct {
	N      int
	Median float64
	TailQ  float64 // 0 when too few samples for any tail
	Tail   float64
}

// summarize applies the percentile rule to xs (which it sorts in place).
func summarize(xs []float64) summary {
	sort.Float64s(xs)
	s := summary{N: len(xs), Median: quantile(xs, 50)}
	for _, q := range tailLadder {
		if supports(len(xs), q) {
			s.TailQ, s.Tail = q, quantile(xs, q)
			break
		}
	}
	return s
}

// percentileOrTail returns the q-th percentile when n supports it, else the
// summary's tail (the highest supported percentile), else the maximum. The
// label says which one the value is.
func percentileOrTail(xs []float64, q float64) (float64, string) {
	sort.Float64s(xs)
	n := len(xs)
	if n == 0 {
		return 0, "no samples"
	}
	if supports(n, q) {
		return quantile(xs, q), fmt.Sprintf("p%g of n=%d", q, n)
	}
	s := summarize(xs)
	if s.TailQ > 0 {
		return s.Tail, fmt.Sprintf("p%g of n=%d (too few samples for p%g)", s.TailQ, n, q)
	}
	return xs[n-1], fmt.Sprintf("max of n=%d (too few samples for any tail)", n)
}

// median returns the median of xs without modifying it.
func median(xs []float64) float64 {
	c := append([]float64(nil), xs...)
	sort.Float64s(c)
	return quantile(c, 50)
}

func (s summary) String() string {
	if s.TailQ == 0 {
		return fmt.Sprintf("median %.6g (n=%d, too few samples for a tail)", s.Median, s.N)
	}
	return fmt.Sprintf("median %.6g, p%g %.6g (n=%d)", s.Median, s.TailQ, s.Tail, s.N)
}
