// Package xorp is a Go reproduction of "Designing Extensible IP Router
// Software" (Handley, Hodson, Kohler, Ghosh, Radoslavov — NSDI 2005): the
// XORP extensible router control plane.
//
// The library lives under internal/; the top-level deliverables are:
//
//   - internal/rtrmgr — assemble a complete router (Finder, FEA, RIB,
//     BGP, RIP, OSPF wired over XRLs) from configuration text;
//   - internal/core, internal/bgp, internal/rib — the staged routing
//     table design (§5);
//   - internal/ospf — the link-state IGP (adjacencies, LSA flooding,
//     incremental SPF) built on the §8.3 extension seams;
//   - internal/xrl, internal/xipc, internal/finder — the XRL IPC system
//     (§6);
//   - internal/bench — the §8 evaluation, regenerating every figure and
//     table (run by cmd/xorp_bench); benchmark/ measures what each layer
//     costs underneath;
//   - examples/ — runnable programs; cmd/ — the per-process binaries.
//
// See README.md for a guided tour, DESIGN.md for the system inventory and
// EXPERIMENTS.md for paper-vs-measured results.
package xorp
