package fed

import (
	"sort"
	"testing"
	"time"
)

// p95Reference is the window's p95 as it was first written: a heap
// copy of the samples, sort.Slice, and the index clamped to the copy.
func p95Reference(samples []time.Duration) time.Duration {
	n := len(samples)
	if n == 0 {
		return 0
	}
	c := append([]time.Duration(nil), samples...)
	sort.Slice(c, func(i, j int) bool { return c[i] < c[j] })
	idx := (n*95+99)/100 - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= n {
		idx = n - 1
	}
	return c[idx]
}

// TestLatWindowP95: the window's p95 is the reference's over the
// samples it holds — empty, one, a few, exactly full and wrapped past
// full (the oldest samples dropped) — and costs no allocation.
func TestLatWindowP95(t *testing.T) {
	ms := func(vs ...int) []time.Duration {
		out := make([]time.Duration, len(vs))
		for i, v := range vs {
			out[i] = time.Duration(v) * time.Millisecond
		}
		return out
	}
	ramp := func(n, mul, mod int) []time.Duration {
		out := make([]time.Duration, n)
		for i := range out {
			out[i] = time.Duration(i*mul%mod) * time.Microsecond
		}
		return out
	}
	for _, tc := range []struct {
		name    string
		records []time.Duration
	}{
		{"empty", nil},
		{"one", ms(7)},
		{"two", ms(9, 3)},
		{"twenty", ramp(20, 37, 101)},
		{"full", ramp(latWindowSize, 53, 997)},
		{"wrapped", ramp(latWindowSize+37, 71, 1009)},
		{"ties", ms(5, 5, 5, 1, 5, 9, 9, 5)},
	} {
		var w latWindow
		for _, d := range tc.records {
			w.record(d)
		}
		held := tc.records[max(len(tc.records)-latWindowSize, 0):]
		if got, want := w.p95(), p95Reference(held); got != want {
			t.Errorf("%s: p95 = %v, want %v", tc.name, got, want)
		}
	}
	var w latWindow
	for _, d := range ramp(latWindowSize, 53, 997) {
		w.record(d)
	}
	if allocs := testing.AllocsPerRun(100, func() { w.p95() }); allocs != 0 {
		t.Errorf("p95 allocates %.0f times per call, want 0", allocs)
	}
}
