package main

import "testing"

func ramp(n int) sample {
	s := make(sample, n)
	for i := range s {
		s[n-1-i] = int64(i+1) * 1e6 // 1..n ms, unsorted
	}
	return s
}

// A percentile is reported only with at least ten samples beyond it; the
// median always is.
func TestPercentileNeedsSamplesBeyond(t *testing.T) {
	if v, ok := ramp(1000).percentile(0.99); !ok || v != 990 {
		t.Errorf("p99 of 1..1000 ms = %v, %v; want 990, true", v, ok)
	}
	if _, ok := ramp(999).percentile(0.99); ok {
		t.Error("p99 over 999 samples has 9 beyond it and must not be reported")
	}
	if v, ok := ramp(7).percentile(0.5); !ok || v != 4 {
		t.Errorf("p50 of 1..7 ms = %v, %v; want 4, true", v, ok)
	}
	if _, ok := (sample{}).percentile(0.5); ok {
		t.Error("an empty sample has no median")
	}

	m := metrics{}
	m.setPercentile("lat_p99_ms", ramp(50), 0.99)
	m.setPercentile("lat_p50_ms", ramp(50), 0.50)
	if _, ok := m["lat_p99_ms"]; ok {
		t.Error("p99 over 50 samples was reported")
	}
	if got := m["lat_p50_ms"]; got.Value != 25 || got.N != 50 || got.Unit != "ms" {
		t.Errorf("p50 = %+v, want 25 ms over n=50", got)
	}
}
