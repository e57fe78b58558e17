package telemetry

import (
	"fmt"
	"math"
)

// RunningStat accumulates count/min/max/mean/variance online (Welford's
// algorithm, after NDN-DPDK's RunningStat): the experiment grid keeps one
// per cell metric across repeats. Not safe for concurrent use.
type RunningStat struct {
	n        uint64
	min, max float64
	mean, m2 float64
}

// Push adds one sample.
func (s *RunningStat) Push(x float64) {
	s.n++
	if s.n == 1 {
		s.min, s.max = x, x
	} else {
		if x < s.min {
			s.min = x
		}
		if x > s.max {
			s.max = x
		}
	}
	d := x - s.mean
	s.mean += d / float64(s.n)
	s.m2 += d * (x - s.mean)
}

// Count returns the number of samples.
func (s *RunningStat) Count() uint64 { return s.n }

// Min returns the smallest sample (0 with no samples).
func (s *RunningStat) Min() float64 { return s.min }

// Max returns the largest sample (0 with no samples).
func (s *RunningStat) Max() float64 { return s.max }

// Mean returns the sample mean (0 with no samples).
func (s *RunningStat) Mean() float64 { return s.mean }

// Stddev returns the sample standard deviation (0 with <2 samples).
func (s *RunningStat) Stddev() float64 {
	if s.n < 2 {
		return 0
	}
	return math.Sqrt(s.m2 / float64(s.n-1))
}

// String renders the stat as one scrape-friendly fragment.
func (s RunningStat) String() string {
	return fmt.Sprintf("count=%d mean=%.1f stddev=%.1f min=%.1f max=%.1f",
		s.n, s.Mean(), s.Stddev(), s.Min(), s.Max())
}

// Percentile returns the p-th percentile (0..100) of xs by nearest-rank
// on a sorted copy-free input: xs MUST already be sorted ascending.
// Returns 0 for an empty slice.
func Percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[len(sorted)-1]
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}
