package main

import (
	"math"
	"sort"
	"time"
)

// metric is one reported number. Timings are medians; Samples says over
// how many operations, and Tail carries the gated median's ungated
// companion.
type metric struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples,omitempty"`
	Tail    *tail   `json:"tail,omitempty"`
	// Note defines an end-to-end metric, or names the end-to-end metric
	// a per-layer one should move.
	Note string `json:"note,omitempty"`
}

// tail is the tail latency printed beside a median: p99, or — with
// fewer than 1000 samples — the highest percentile that still has ten
// samples beyond it. It is a diagnostic, never gated: tails on a shared
// two-core box do not repeat within a tenth.
type tail struct {
	Percentile float64 `json:"percentile"`
	Value      float64 `json:"value"`
}

// percentile returns the p-th percentile (0 < p <= 100) of sorted
// samples by the nearest-rank rule: the smallest sample with at least
// p percent of the samples at or below it.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p * float64(len(sorted)) / 100))
	return sorted[min(max(rank, 1), len(sorted))-1]
}

// tailRank picks the tail n samples support, as a rank: that of p99
// when at least ten samples lie beyond it, else the highest rank with
// exactly ten beyond. ok is false when n has no ten samples to spare.
func tailRank(n int) (rank int, ok bool) {
	if n <= 10 {
		return 0, false
	}
	return min((99*n+99)/100, n-10), true
}

// timing summarizes latency samples in the given unit.
func timing(samples []time.Duration, unit time.Duration, unitName string) metric {
	xs := make([]float64, len(samples))
	for i, d := range samples {
		xs[i] = float64(d) / float64(unit)
	}
	sort.Float64s(xs)
	m := metric{Value: percentile(xs, 50), Unit: unitName, Samples: len(xs)}
	if rank, ok := tailRank(len(xs)); ok {
		m.Tail = &tail{Percentile: 100 * float64(rank) / float64(len(xs)), Value: xs[rank-1]}
	}
	return m
}

func ms(samples []time.Duration) metric { return timing(samples, time.Millisecond, "ms") }
func us(samples []time.Duration) metric { return timing(samples, time.Microsecond, "us") }

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return percentile(s, 50)
}

// ratio divides, mapping an empty denominator to 0 instead of NaN
// (JSON has no NaN).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
