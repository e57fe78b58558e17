package profiler

import (
	"net/netip"
	"testing"
)

// TestDisabledPointIsFree pins what benchmark/layers.go measures as
// profiler.disabled_point_ns: a guarded disabled point is one load and no
// allocation.
func TestDisabledPointIsFree(t *testing.T) {
	pt := New(nil).Point("route_ribin")
	net := netip.MustParsePrefix("10.0.1.0/24")
	allocs := testing.AllocsPerRun(100, func() {
		if pt.Enabled() {
			pt.Logf("add %v", net)
		}
	})
	if pt.Enabled() || allocs != 0 {
		t.Fatalf("disabled point: enabled %v, %.1f allocations", pt.Enabled(), allocs)
	}
}
