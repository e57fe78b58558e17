package bench

import (
	"fmt"
	"net/netip"
	"runtime"
	"strings"
	"time"

	"xorp/internal/rtrmgr"
	"xorp/internal/telemetry"
	"xorp/internal/workload"
)

// ---------------------------------------------------------------------
// Traced table load: a full table through the whole three-process
// pipeline (BGP peer-in → decision → RIB → FEA → snapshot
// publish) with the per-stage route latency tracer wired in. Reports
// end-to-end throughput in three configurations — no tracer, tracer
// wired-but-disabled (the seam must be free), and tracer enabled with
// sampling — plus per-stage p50/p95/p99 latencies from sampled routes.
// ---------------------------------------------------------------------

// TableLoadResult is one table-load measurement.
type TableLoadResult struct {
	Mode           string // "plain", "disabled" or "traced"
	Routes         int
	Elapsed        time.Duration
	RoutesPerSec   float64
	AllocsPerRoute float64
}

// TracedTableLoadResult aggregates the three configurations.
type TracedTableLoadResult struct {
	Plain    TableLoadResult // no tracer wired
	Disabled TableLoadResult // tracer wired, disabled
	Traced   TableLoadResult // tracer enabled, sampled
	Stages   []telemetry.StageLatency
	Traces   []telemetry.RouteTrace // raw completed traces (CSV material)
	Sampled  int                    // completed traces collected
	Dropped  uint64                 // traces lost to buffer bounds
}

// DisabledThroughputDelta is (disabled - plain)/plain: the fractional
// throughput cost of compiling the tracer in without enabling it.
// Negative values mean the disabled run was slower.
func (r *TracedTableLoadResult) DisabledThroughputDelta() float64 {
	return (r.Disabled.RoutesPerSec - r.Plain.RoutesPerSec) / r.Plain.RoutesPerSec
}

// DisabledExtraAllocs is the per-route allocation cost of the
// wired-but-disabled tracer over the plain pipeline.
func (r *TracedTableLoadResult) DisabledExtraAllocs() float64 {
	return r.Disabled.AllocsPerRoute - r.Plain.AllocsPerRoute
}

// RunTableLoadTraced loads n EBGP routes through a full assembled router
// (same config as the latency experiment) three times: without a
// tracer, with a disabled tracer, and with tracing enabled at
// 1-in-2^sampleShift sampling. Throughput is measured from first inject
// to FIB absorption of the whole table.
func RunTableLoadTraced(n int, sampleShift uint) (*TracedTableLoadResult, error) {
	res := &TracedTableLoadResult{}

	plain, err := runTracedLoad(n, nil, false, 0)
	if err != nil {
		return nil, err
	}
	res.Plain = plain.result

	disabled, err := runTracedLoad(n, telemetry.NewTracer(), false, 0)
	if err != nil {
		return nil, err
	}
	res.Disabled = disabled.result

	traced, err := runTracedLoad(n, telemetry.NewTracer(), true, sampleShift)
	if err != nil {
		return nil, err
	}
	res.Traced = traced.result
	res.Stages = telemetry.Summarize(traced.traces)
	res.Traces = traced.traces
	res.Sampled = len(traced.traces)
	res.Dropped = traced.dropped
	return res, nil
}

type tracedLoad struct {
	result  TableLoadResult
	traces  []telemetry.RouteTrace
	dropped uint64
}

// runTracedLoad assembles one router, optionally wires tr into all
// three processes (before the loops start, so no synchronisation is
// needed), and measures a full-table load through the feed peering.
func runTracedLoad(n int, tr *telemetry.Tracer, enable bool, sampleShift uint) (tracedLoad, error) {
	mode := "plain"
	if tr != nil {
		mode = "disabled"
		if enable {
			mode = "traced"
		}
	}
	out := tracedLoad{result: TableLoadResult{Mode: mode, Routes: n}}

	r, err := rtrmgr.NewRouter(latencyConfig, rtrmgr.Options{ConsistencyChecks: false})
	if err != nil {
		return out, err
	}
	defer r.Stop()
	if tr != nil {
		if enable {
			tr.SetSampleShift(sampleShift)
			tr.Enable()
		}
		r.BGP.SetTracer(tr)
		r.RIB.SetTracer(tr)
		r.FEA.SetTracer(tr)
	}
	if err := r.Start(); err != nil {
		return out, err
	}

	nexthops := []netip.Addr{
		netip.MustParseAddr("172.16.0.1"),
		netip.MustParseAddr("172.16.0.2"),
		netip.MustParseAddr("172.16.0.3"),
	}
	updates := workload.GenerateTable(42, n, nexthops).Updates()

	runtime.GC()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	const batch = 1000
	for off := 0; off < len(updates); off += batch {
		end := min(off+batch, len(updates))
		chunk := updates[off:end]
		r.BGP.Loop().DispatchAndWait(func() {
			for _, u := range chunk {
				r.BGP.InjectUpdate("feed", u)
			}
		})
	}
	deadline := time.Now().Add(5 * time.Minute)
	for r.FIB.Len() < n && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	out.result.Elapsed = time.Since(start)
	runtime.ReadMemStats(&ms1)
	if r.FIB.Len() < n {
		return out, fmt.Errorf("bench: tableload(%s): FIB absorbed %d/%d routes", mode, r.FIB.Len(), n)
	}
	out.result.RoutesPerSec = float64(n) / out.result.Elapsed.Seconds()
	out.result.AllocsPerRoute = float64(ms1.Mallocs-ms0.Mallocs) / float64(n)
	if tr != nil && enable {
		// Only traces that reached snapshot publish count; any still open
		// (sampled but not yet through all stages) are not summarized.
		out.traces = tr.Take()
		out.dropped = tr.Dropped()
	}
	return out, nil
}

// FormatTableLoadTraced renders the three-way comparison and the
// per-stage latency table.
func FormatTableLoadTraced(res *TracedTableLoadResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "pipeline table load, %d routes (BGP peer-in -> FIB):\n", res.Plain.Routes)
	for _, r := range []TableLoadResult{res.Plain, res.Disabled, res.Traced} {
		fmt.Fprintf(&b, "  %-9s %12.0f routes/sec %8.1f allocs/route\n",
			r.Mode, r.RoutesPerSec, r.AllocsPerRoute)
	}
	fmt.Fprintf(&b, "disabled-tracer cost: %+.1f%% throughput, %+.1f allocs/route\n",
		res.DisabledThroughputDelta()*100, res.DisabledExtraAllocs())
	fmt.Fprintf(&b, "sampled %d routes (%d dropped):\n", res.Sampled, res.Dropped)
	b.WriteString(telemetry.FormatSummary(res.Stages))
	return b.String()
}
