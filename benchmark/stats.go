package main

import (
	"math"
	"sort"
)

// minBeyond is the number of samples that must lie beyond a percentile for
// it to be reported: below that the "percentile" is a handful of outliers
// (a p99 over 8 samples is a max).
const minBeyond = 10

// sample is a set of latencies in nanoseconds.
type sample []int64

// percentile returns the q-quantile (0 < q < 1, nearest rank) in
// milliseconds and whether at least minBeyond samples lie beyond it. The
// median needs no such margin, only a non-empty sample.
func (s sample) percentile(q float64) (ms float64, ok bool) {
	n := len(s)
	if n == 0 {
		return 0, false
	}
	if !sort.SliceIsSorted(s, func(i, j int) bool { return s[i] < s[j] }) {
		sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	}
	rank := int(math.Ceil(q * float64(n))) // 1-based
	if rank < 1 {
		rank = 1
	}
	ms = float64(s[rank-1]) / 1e6
	return ms, q <= 0.5 || n-rank >= minBeyond
}

// metric is one reported number. N is the sample count behind a percentile
// or the event count behind a ratio (0 when the value is a plain reading).
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"`
}

// metrics maps metric name to its value; absent means "does not apply to
// this workload" (or, for a percentile, too few samples to report).
type metrics map[string]metric

func (m metrics) set(name string, v float64, unit string, n int) {
	m[name] = metric{Value: v, Unit: unit, N: n}
}

// setPercentile reports s's q-quantile under name unless the sample is too
// small to support it.
func (m metrics) setPercentile(name string, s sample, q float64) {
	if v, ok := s.percentile(q); ok {
		m.set(name, v, "ms", len(s))
	}
}

// ratio is a/b, or 0 when b is 0 (a per-op figure over a window with no ops).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
