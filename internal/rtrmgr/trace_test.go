package rtrmgr

import (
	"net/netip"
	"runtime"
	"testing"
	"time"

	"xorp/internal/eventloop"
	"xorp/internal/route"
	"xorp/internal/telemetry"
	"xorp/internal/workload"
)

// TestTracerStampsEveryStage is the one test that wires one route tracer
// through the assembled router — BGP peer-in → decision → XRL → RIB → XRL
// → FEA → snapshot publish — on the SharedLoop/SimClock assembly the repo
// benchmark drives. With every stage on, each route of a table load must
// come out as one complete trace, so all nine adjacent stage pairs and the
// total have one sample per route and ordered percentiles. Wired but
// disabled, the same tracer must cost the load no allocation at all: the
// assembly is deterministic, so the two counts are compared to within the
// runtime's own noise.
func TestTracerStampsEveryStage(t *testing.T) {
	const n = 3000
	updates := workload.GenerateTable(42, n, []netip.Addr{mustA("10.0.0.1"), mustA("10.0.0.2")}).Updates()

	// load assembles a router, wires tr (nil: no tracer) into the three
	// processes, injects the table on p1 in 256-update chunks, and returns
	// the heap allocations the injection cost.
	load := func(tr *telemetry.Tracer) uint64 {
		t.Helper()
		r, err := NewRouter(baseConfig, Options{
			Clock:      eventloop.NewSimClock(time.Unix(0, 0)),
			SharedLoop: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer r.Stop()
		r.BGP.SetTracer(tr)
		r.RIB.SetTracer(tr)
		r.FEA.SetTracer(tr)
		if err := r.Start(); err != nil {
			t.Fatal(err)
		}
		r.SettleAll()
		base := r.FEA.Snapshots().Current().Len()

		var ms0, ms1 runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms0)
		for off := 0; off < len(updates); off += 256 {
			chunk := updates[off:min(off+256, len(updates))]
			r.BGP.Loop().Dispatch(func() {
				for _, u := range chunk {
					if err := r.BGP.InjectUpdate("p1", u); err != nil {
						t.Error(err)
					}
				}
			})
			r.SettleAll()
		}
		runtime.ReadMemStats(&ms1)
		if got := r.FEA.Snapshots().Current().Len(); got != base+n {
			t.Fatalf("snapshot holds %d routes after the load, want %d", got, base+n)
		}
		return ms1.Mallocs - ms0.Mallocs
	}

	tr := telemetry.NewTracer()
	tr.Enable()
	load(tr)
	traces := tr.Take()
	if len(traces) != n || tr.Dropped() != 0 {
		t.Fatalf("%d complete traces (%d dropped) for %d routes, want one each", len(traces), tr.Dropped(), n)
	}
	rows := telemetry.Summarize(traces)
	if len(rows) != int(telemetry.NumStages) {
		t.Fatalf("%d summary rows, want %d (nine stage pairs and the total):\n%s",
			len(rows), telemetry.NumStages, telemetry.FormatSummary(rows))
	}
	for _, s := range rows {
		if s.Samples != n {
			t.Errorf("%s: %d samples, want %d", s.Label, s.Samples, n)
		}
		if s.P50 < 0 || s.P50 > s.P95 || s.P95 > s.P99 || s.P99 > s.Max {
			t.Errorf("%s: percentiles out of order: p50=%v p95=%v p99=%v max=%v", s.Label, s.P50, s.P95, s.P99, s.Max)
		}
	}

	// The count is process-wide: the runtime's own allocations inside the
	// window move it by up to 4 between identical loads.
	const slack = 8
	plain := load(nil)
	disabled := load(telemetry.NewTracer())
	if disabled > plain+slack {
		t.Errorf("a wired but disabled tracer cost %d allocations over %d routes (%d without a tracer, %d with), want none",
			disabled-plain, n, plain, disabled)
	}
}

// TestStaticRouteIsTraced: a static route enters the router at the RIB, so
// its trace opens there and runs to the snapshot publish, with nothing
// stamped for BGP.
func TestStaticRouteIsTraced(t *testing.T) {
	r, err := NewRouter(baseConfig, Options{
		Clock:      eventloop.NewSimClock(time.Unix(0, 0)),
		SharedLoop: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Stop()
	tr := telemetry.NewTracer()
	r.RIB.SetTracer(tr)
	r.FEA.SetTracer(tr)
	if err := r.Start(); err != nil {
		t.Fatal(err)
	}
	r.SettleAll()
	tr.Enable()
	net := netip.MustParsePrefix("10.77.0.0/16")
	r.RIB.Loop().Dispatch(func() {
		if err := r.RIB.AddRoute(route.ProtoStatic, route.Entry{Net: net, NextHop: mustA("192.168.1.254"), IfName: "eth0"}); err != nil {
			t.Error(err)
		}
	})
	r.SettleAll()
	traces := tr.Take()
	if len(traces) != 1 || traces[0].Net != net {
		t.Fatalf("%d traces %v, want one of %v", len(traces), traces, net)
	}
	x := traces[0]
	if x.T[telemetry.StageRIBIn] == 0 || x.T[telemetry.StageSnapPub] < x.T[telemetry.StageRIBIn] ||
		x.T[telemetry.StagePeerIn] != 0 || x.T[telemetry.StageDecision] != 0 || x.Del != 0 {
		t.Fatalf("static route trace %v (del %b), want rib_in through snap_pub", x.T, x.Del)
	}
}
