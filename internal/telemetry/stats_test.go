package telemetry

import (
	"sort"
	"testing"
)

// TestPercentile pins the nearest-rank convention on a known sequence.
func TestPercentile(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 100..1, unsorted input
	}
	sort.Float64s(xs)
	for _, tc := range []struct{ p, want float64 }{
		{50, 50}, {95, 95}, {99, 99}, {100, 100},
	} {
		if got := Percentile(xs, tc.p); got != tc.want {
			t.Errorf("p%.0f = %v, want %v", tc.p, got, tc.want)
		}
	}
}
