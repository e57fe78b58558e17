package bench

import (
	"strings"
	"testing"

	"xorp/internal/telemetry"
)

// TestTableLoadTraced pins the ops-plane acceptance criteria at a
// test-friendly size: the traced pipeline produces per-stage latencies
// for every stage pair, and the wired-but-disabled tracer costs no
// measurable allocations per route. Throughput deltas are not checked
// here — a unit test on a shared machine cannot pin them, even loosely;
// that bound is asserted over full-size runs via the bench grid's stddev
// columns.
func TestTableLoadTraced(t *testing.T) {
	if testing.Short() {
		t.Skip("full pipeline assembly")
	}
	const n = 4000
	res, err := RunTableLoadTraced(n, 4) // 1 in 16
	if err != nil {
		t.Fatal(err)
	}

	// The disabled tracer seam must be allocation-free: the per-route
	// alloc counts of the plain and disabled runs agree to noise.
	if extra := res.DisabledExtraAllocs(); extra > 0.5 {
		t.Errorf("disabled tracer costs %.2f allocs/route, want ~0", extra)
	}

	// Every adjacent stage pair plus the total must be summarized, with
	// samples and sane percentile ordering.
	wantRows := int(telemetry.NumStages) // 4 adjacent pairs + total
	if len(res.Stages) != wantRows {
		t.Fatalf("got %d stage rows, want %d", len(res.Stages), wantRows)
	}
	if res.Sampled == 0 {
		t.Fatal("no routes sampled")
	}
	for _, s := range res.Stages {
		if s.Samples == 0 {
			t.Errorf("stage %s: no samples", s.Label)
		}
		if s.P50 < 0 || s.P50 > s.P95 || s.P95 > s.P99 || s.P99 > s.Max {
			t.Errorf("stage %s: percentiles out of order: p50=%v p95=%v p99=%v max=%v",
				s.Label, s.P50, s.P95, s.P99, s.Max)
		}
	}

	out := FormatTableLoadTraced(res)
	for _, want := range []string{"peer_in -> decision", "fib_apply -> snap_pub", "total"} {
		if !strings.Contains(out, want) {
			t.Errorf("formatted summary missing %q:\n%s", want, out)
		}
	}
}
