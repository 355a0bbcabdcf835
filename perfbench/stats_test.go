package main

import (
	"math"
	"strings"
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // reversed: summarize must sort
	}
	return xs
}

// The tail is the highest percentile with at least ten samples beyond it.
func TestPercentileRule(t *testing.T) {
	for _, tc := range []struct {
		n     int
		tailQ float64
	}{
		{5, 0}, {19, 0}, {20, 50}, {39, 50}, {40, 75}, {99, 75}, {100, 90},
		{199, 90}, {200, 95}, {999, 95}, {1000, 99}, {9999, 99}, {10000, 99.9},
	} {
		s := summarize(seq(tc.n))
		if s.TailQ != tc.tailQ {
			t.Errorf("n=%d: tail p%g, want p%g", tc.n, s.TailQ, tc.tailQ)
		}
		if s.N != tc.n {
			t.Errorf("n=%d: summary counts %d samples", tc.n, s.N)
		}
		if want := float64(tc.n+1) / 2; s.Median != want {
			t.Errorf("n=%d: median %g, want %g", tc.n, s.Median, want)
		}
		if tc.tailQ > 0 {
			beyond := 0
			for _, x := range seq(tc.n) {
				if x > s.Tail {
					beyond++
				}
			}
			if beyond < minBeyond {
				t.Errorf("n=%d: only %d samples beyond p%g=%g", tc.n, beyond, s.TailQ, s.Tail)
			}
		}
	}
}

func TestQuantileInterpolates(t *testing.T) {
	xs := []float64{10, 20, 30, 40}
	for q, want := range map[float64]float64{0: 10, 50: 25, 100: 40, 75: 32.5} {
		if got := quantile(xs, q); math.Abs(got-want) > 1e-12 {
			t.Errorf("quantile(%g) = %g, want %g", q, got, want)
		}
	}
	if !math.IsNaN(quantile(nil, 50)) {
		t.Error("quantile of no samples is not NaN")
	}
}

// A fixed-name percentile falls back to the highest supported one and says so.
func TestPercentileOrTailLabels(t *testing.T) {
	if v, note := percentileOrTail(seq(1000), 99); !strings.HasPrefix(note, "p99 of n=1000") || v < 989 || v > 991 {
		t.Errorf("n=1000: %g %q", v, note)
	}
	if _, note := percentileOrTail(seq(200), 99); !strings.Contains(note, "p95 of n=200") || !strings.Contains(note, "too few") {
		t.Errorf("n=200: %q", note)
	}
	if v, note := percentileOrTail(seq(7), 99); v != 7 || !strings.HasPrefix(note, "max of n=7") {
		t.Errorf("n=7: %g %q", v, note)
	}
}

// Self time subtracts the union of the children, counted once when they
// overlap (parallel points), and clips children to the parent.
func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Layer: "bench", Start: 0, End: 100e9},
		{ID: 2, Parent: 1, Layer: "himeno", Start: 10e9, End: 50e9},
		{ID: 3, Parent: 1, Layer: "himeno", Start: 30e9, End: 70e9}, // overlaps 2
		{ID: 4, Parent: 1, Layer: "xfer", Start: 90e9, End: 120e9},  // runs past the parent
		{ID: 5, Parent: 2, Layer: "sim", Start: 20e9, End: 30e9},
	}
	self := selfTimes(spans)
	want := map[string]float64{"bench": 100 - 60 - 10, "himeno": 30 + 40, "xfer": 30, "sim": 10}
	for layer, w := range want {
		if math.Abs(self[layer]-w) > 1e-9 {
			t.Errorf("self[%s] = %g s, want %g s", layer, self[layer], w)
		}
	}
}

func TestTracerNilIsNoop(t *testing.T) {
	var tr *tracer
	called := false
	if err := tr.do(0, "sim", "x", func(int) error { called = true; return nil }); err != nil || !called {
		t.Fatalf("nil tracer: err %v, called %v", err, called)
	}
	if tr.snapshot() != nil {
		t.Error("nil tracer has spans")
	}
}
