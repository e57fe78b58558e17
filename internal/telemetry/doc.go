// Package telemetry is the ops plane's observability core: the route
// tracer, which is every process's one probe, and a live metrics
// registry, shared by every XORP process.
//
// Tracing. The Tracer is the paper's §8.2 profiling mechanism: its stages
// are the eight named profile points (route_ribin … route_enter_kernel)
// plus the decision and the forwarding-snapshot publish, each switched on
// alone, over profile/0.1 or by a harness. A stamp records an add or a
// delete; stamps correlate by prefix into one RouteTrace per pass of a
// route, opened at whichever stage first sees it, so a process traces
// from its own first stage and a static route from the RIB. The hot path
// checks Tracer.On(stage) (one atomic load, nil-safe) before touching the
// tracer, so a compiled-in but disabled stage costs zero allocations.
// Open and closed traces are bounded, and what the bounds drop is counted
// (trace_dropped_total). ProfileView renders a tracer as profile/0.1, in
// the paper's record format, for cmd/xorp_profiler and Figures 10–12.
//
// Metrics. A Registry holds counters (monotonic: an atomic it owns, or a
// value read at scrape time) and gauges computed at scrape time. Every
// process registers its vitals — XRLs/sec from the xipc IO
// counters, routes by protocol — and exposes
// the registry over the stats/0.1 XRL interface; Render emits
// Prometheus-style plaintext for cmd/xorp_profiler's scrape, watch and
// HTTP endpoint modes. Registry updates are safe from any goroutine,
// so a scrape never blocks a hot path.
package telemetry
