// Package telemetry is the ops plane's observability core: per-stage
// route latency tracing and a live metrics registry, shared by every
// XORP process.
//
// Tracing. A RouteTrace is one sampled route's timestamps through the
// pipeline's five stages — BGP peer-in decode, decision, RIB stage
// network entry, FIB batch apply, forwarding snapshot publish — kept
// flat and CSV-friendly so churn latency distributions (p50/p95/p99)
// are first-class alongside throughput. Trace points follow the same
// discipline as profiler.Point.Logf call sites: the hot path checks
// Tracer.Enabled() (one atomic load, nil-safe) before touching the
// tracer, so a compiled-in but disabled tracer costs zero allocations
// and no measurable throughput. Stamps correlate by prefix, like the
// §8.2 profile points, and are sampled 1-in-2^k by prefix hash so a
// full-table load traces a bounded subset.
//
// Metrics. A Registry holds typed counters (monotonic, atomic), gauges
// (instantaneous, atomic or computed-on-scrape), and Welford histograms
// (RunningStat: count/mean/stddev/min/max without storing samples).
// Every process registers its vitals — XRLs/sec from the xipc IO
// counters, routes by protocol — and exposes
// the registry over the stats/0.1 XRL interface; Render emits
// Prometheus-style plaintext for cmd/xorp_profiler's scrape, watch and
// HTTP endpoint modes. Registry updates are safe from any goroutine,
// so a scrape never blocks a hot path.
package telemetry
