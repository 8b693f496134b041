package main

import (
	"math"
	"sort"
)

// tailLevels are the percentiles a tail latency may be reported at,
// highest first.
var tailLevels = []float64{99, 95, 90, 75}

// minBeyond is how many samples must lie beyond a percentile for it to
// be reported.
const minBeyond = 10

// tailLevel returns the highest of tailLevels that leaves at least
// minBeyond of n samples beyond it, or 50 when none does.
func tailLevel(n int) float64 {
	for _, p := range tailLevels {
		if float64(n)*(100-p)/100 >= minBeyond {
			return p
		}
	}
	return 50
}

// percentile returns the p-th percentile (nearest rank) of sorted
// samples; 0 for an empty slice.
func percentile(sorted []int64, p float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

// quartiles returns the first quartile, median and third quartile of
// vals by linear interpolation between closest ranks.
func quartiles(vals []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	at := func(f float64) float64 {
		if len(s) == 0 {
			return 0
		}
		pos := f * float64(len(s)-1)
		lo := int(math.Floor(pos))
		hi := int(math.Ceil(pos))
		return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
	}
	return at(0.25), at(0.5), at(0.75)
}

func median(vals []float64) float64 {
	_, m, _ := quartiles(vals)
	return m
}

// ratio is a/b, or 0 when b is 0: per-op and per-call metrics of a
// layer the workload bypasses read 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
