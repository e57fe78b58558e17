// Package bench implements the paper's evaluation (§8): one experiment
// per figure/table (Figures 9–13, the §5.1 memory claim, and the OSPF SPF
// recompute), run by cmd/xorp_bench, which prints paper-formatted tables
// and drives the experiments.json grid. Costs below the figures are the
// repo benchmark's (benchmark/, BENCHMARK.json).
package bench

import (
	"fmt"
	"math"
	"net/netip"
	"runtime"
	"sort"
	"strings"
	"time"

	"xorp/internal/bgp"
	"xorp/internal/eventloop"
	"xorp/internal/finder"
	"xorp/internal/ospf"
	"xorp/internal/rib"
	"xorp/internal/route"
	"xorp/internal/rtrmgr"
	"xorp/internal/scanner"
	"xorp/internal/telemetry"
	"xorp/internal/workload"
	"xorp/internal/xif"
	"xorp/internal/xipc"
	"xorp/internal/xrl"
)

// ---------------------------------------------------------------------
// Figure 9: XRL performance for the three protocol families.
// ---------------------------------------------------------------------

// Fig9Result is one point of Figure 9, extended with the cost columns the
// fast-path work optimizes: heap allocations and transport syscalls per
// XRL (the latter counts socket read/write ops, ~1 syscall each; intra
// traffic performs none).
type Fig9Result struct {
	Transport      string        `json:"transport"`
	Args           int           `json:"args"`
	Total          int           `json:"total"`
	Elapsed        time.Duration `json:"elapsed_ns"`
	XRLsPerSec     float64       `json:"xrls_per_sec"`
	AllocsPerXRL   float64       `json:"allocs_per_xrl"`
	SyscallsPerXRL float64       `json:"syscalls_per_xrl"`
}

// RunFig9 measures XRL throughput: a transaction of total XRLs with a
// pipeline window of window (the paper used 10,000 and 100; UDP is
// stop-and-wait by construction, reproducing the unpipelined prototype).
// transport is "intra", "tcp" or "udp".
func RunFig9(transport string, nargs, total, window int) (Fig9Result, error) {
	res := Fig9Result{Transport: transport, Args: nargs, Total: total}

	// Receiver setup.
	recvLoop := eventloop.New(nil)
	recvRouter := xipc.NewRouter("fig9_receiver", recvLoop)
	target := xif.NewTarget("fig9echo", "fig9echo")
	xif.BindBench(target, xif.BenchSinkFunc(func(args xrl.Args) (xrl.Args, error) {
		return nil, nil
	}))
	recvRouter.AddTarget(target)

	// Sender setup. For "intra" the paper measured direct calls within
	// one process: sender and receiver share the router.
	var (
		sendRouter *xipc.Router
		sendLoop   *eventloop.Loop
		cleanup    []func()
	)
	switch transport {
	case "intra":
		sendRouter, sendLoop = recvRouter, recvLoop
		go recvLoop.Run()
		cleanup = append(cleanup, recvLoop.Stop)
	case "tcp", "udp":
		floop := eventloop.New(nil)
		f := finder.New(floop)
		if err := f.ListenTCP("127.0.0.1:0"); err != nil {
			return res, err
		}
		go floop.Run()
		cleanup = append(cleanup, floop.Stop)

		if transport == "tcp" {
			if err := recvRouter.ListenTCP("127.0.0.1:0"); err != nil {
				return res, err
			}
		} else {
			if err := recvRouter.ListenUDP("127.0.0.1:0"); err != nil {
				return res, err
			}
		}
		recvRouter.SetFinderTCP(f.TCPAddr())
		go recvLoop.Run()
		cleanup = append(cleanup, recvLoop.Stop)
		if err := finder.RegisterTargetSync(recvRouter, target, true); err != nil {
			return res, err
		}

		sendLoop = eventloop.New(nil)
		sendRouter = xipc.NewRouter("fig9_sender", sendLoop)
		sendRouter.SetFinderTCP(f.TCPAddr())
		go sendLoop.Run()
		cleanup = append(cleanup, sendLoop.Stop)
	default:
		return res, fmt.Errorf("bench: unknown transport %q", transport)
	}
	defer func() {
		for _, fn := range cleanup {
			fn()
		}
	}()

	args := make(xrl.Args, nargs)
	for i := range args {
		args[i] = xrl.U32(fmt.Sprintf("a%d", i), uint32(i))
	}
	call := xif.BenchSpec.NewXRL("fig9echo", "sink", args...)

	// Warm the resolution cache and the transport.
	if _, err := sendRouter.Call(call); err != nil {
		return res, fmt.Errorf("bench: warmup: %v", err)
	}

	// The driver state is confined to the sender's event loop (callbacks
	// run there), so the hot path carries no mutex: the only cross-
	// goroutine signal is the final close(done).
	var (
		sent      int
		completed int
		errCount  int
		firing    bool
		done      = make(chan struct{})
	)
	var fire func()
	onDone := func(_ xrl.Args, err *xrl.Error) {
		completed++
		if err != nil {
			errCount++
		}
		if completed == total {
			close(done)
			return
		}
		fire()
	}
	fire = func() {
		if firing {
			// Re-entered from a synchronously-completed send (the intra
			// fast path); the outer window loop below is still running.
			return
		}
		firing = true
		for sent < total && sent-completed < window {
			sent++
			sendRouter.SendFromLoop(call, onDone)
		}
		firing = false
	}

	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	w0, r0 := xipc.IOStats()
	start := time.Now()
	sendLoop.Dispatch(fire)
	select {
	case <-done:
	case <-time.After(5 * time.Minute):
		// completed/sent live on the loop goroutine; don't race on them.
		return res, fmt.Errorf("bench: fig9 %s stalled short of %d XRLs", transport, total)
	}
	res.Elapsed = time.Since(start)
	runtime.ReadMemStats(&ms1)
	w1, r1 := xipc.IOStats()
	if errCount > 0 {
		return res, fmt.Errorf("bench: %d/%d XRLs failed", errCount, total)
	}
	res.XRLsPerSec = float64(total) / res.Elapsed.Seconds()
	res.AllocsPerXRL = float64(ms1.Mallocs-ms0.Mallocs) / float64(total)
	res.SyscallsPerXRL = float64((w1-w0)+(r1-r0)) / float64(total)
	return res, nil
}

// ---------------------------------------------------------------------
// Figures 10–12: route propagation latency through the 8 profile points.
// ---------------------------------------------------------------------

// LatencyStats summarizes one profile point's deltas (ms from Entering
// BGP), like the paper's tables.
type LatencyStats struct {
	Label             string
	Avg, SD, Min, Max float64
	Samples           int
}

// LatencyResult is one Figure 10/11/12 run.
type LatencyResult struct {
	Label   string
	Preload int
	Stats   []LatencyStats
	// PerRoute[i][p] is route i's delta (ms) at point p (the scatter in
	// the paper's graphs).
	PerRoute [][]float64
}

const latencyConfig = `
interfaces {
    eth0 { address 192.168.1.1/24; }
}
static {
    route 10.0.0.0/8 next-hop 192.168.1.254;
    route 172.16.0.0/12 next-hop 192.168.1.254;
}
protocols {
    bgp {
        local-as 65000
        id 192.168.1.1
        peer feed { local-addr 192.168.1.1; peer-addr 192.168.1.2; as 65001; passive; }
        peer test { local-addr 192.168.1.1; peer-addr 192.168.1.3; as 65002; passive; }
    }
}
`

// RunLatency reproduces Figures 10–12: preload routes via the "feed"
// peering, then introduce testN routes (on "feed" when samePeering, else
// on "test"), each add followed by a withdraw, timing the eight profile
// points: the tracer stages with a paper label, stamped by one tracer the
// three processes share. It returns per-point statistics in ms.
func RunLatency(label string, preload, testN int, samePeering bool) (*LatencyResult, error) {
	r, err := rtrmgr.NewRouter(latencyConfig, rtrmgr.Options{ConsistencyChecks: false})
	if err != nil {
		return nil, err
	}
	defer r.Stop()
	tr := telemetry.NewTracer()
	r.BGP.Loop().DispatchAndWait(func() { r.BGP.SetTracer(tr) })
	r.RIB.Loop().DispatchAndWait(func() { r.RIB.SetTracer(tr) })
	r.FEA.Loop().DispatchAndWait(func() { r.FEA.SetTracer(tr) })
	if err := r.Start(); err != nil {
		return nil, err
	}

	// Preload the backbone feed via the feed peering, nexthops inside the
	// static /12 cover so they resolve.
	nexthops := []netip.Addr{
		netip.MustParseAddr("172.16.0.1"),
		netip.MustParseAddr("172.16.0.2"),
		netip.MustParseAddr("172.16.0.3"),
	}
	if preload > 0 {
		table := workload.GenerateTable(42, preload, nexthops)
		updates := table.Updates()
		// Inject in batches to let the loops interleave.
		const batch = 1000
		for off := 0; off < len(updates); off += batch {
			end := off + batch
			if end > len(updates) {
				end = len(updates)
			}
			chunk := updates[off:end]
			r.BGP.Loop().DispatchAndWait(func() {
				for _, u := range chunk {
					r.BGP.InjectUpdate("feed", u)
				}
			})
		}
		// Wait for the FIB to absorb the table (static + connected add 3).
		deadline := time.Now().Add(5 * time.Minute)
		for r.FIB.Len() < preload && time.Now().Before(deadline) {
			time.Sleep(20 * time.Millisecond)
		}
		if r.FIB.Len() < preload {
			return nil, fmt.Errorf("bench: FIB absorbed %d/%d preload routes", r.FIB.Len(), preload)
		}
	}

	// "We keep one route installed during the test to prevent additional
	// interactions with the RIB" (§8.2).
	keeper := &bgp.UpdateMsg{
		Attrs: workload.TestAttrs(nexthops[0], 65001),
		NLRI:  []netip.Prefix{netip.MustParsePrefix("10.200.0.0/16")},
	}
	r.BGP.Loop().DispatchAndWait(func() { r.BGP.InjectUpdate("feed", keeper) })

	tr.Enable()

	peering := "test"
	peerAS := uint16(65002)
	if samePeering {
		peering = "feed"
		peerAS = 65001
	}

	// Introduce each test route, wait for it to enter the kernel, then
	// withdraw it (the paper used 2 s adds / 1 s waits in real time; we
	// wait on the event instead — same code path, faster replay).
	routes := workload.TestRoutes(testN)
	for i, net := range routes {
		u := &bgp.UpdateMsg{Attrs: workload.TestAttrs(nexthops[i%3], peerAS), NLRI: []netip.Prefix{net}}
		r.BGP.Loop().Dispatch(func() { r.BGP.InjectUpdate(peering, u) })
		deadline := time.Now().Add(10 * time.Second)
		for {
			if fibHas(r, net) {
				break
			}
			if time.Now().After(deadline) {
				return nil, fmt.Errorf("bench: route %v never reached the kernel", net)
			}
			time.Sleep(50 * time.Microsecond)
		}
		w := &bgp.UpdateMsg{Withdrawn: []netip.Prefix{net}}
		r.BGP.Loop().Dispatch(func() { r.BGP.InjectUpdate(peering, w) })
		deadline = time.Now().Add(10 * time.Second)
		for {
			if !fibHas(r, net) {
				break
			}
			if time.Now().After(deadline) {
				return nil, fmt.Errorf("bench: route %v never left the kernel", net)
			}
			time.Sleep(50 * time.Microsecond)
		}
	}

	// Each add that reached every point is one row; the withdrawals'
	// traces are all deletes.
	var points []telemetry.Stage
	for s := telemetry.Stage(0); s < telemetry.NumStages; s++ {
		if s.Label() != "" {
			points = append(points, s)
		}
	}
	res := &LatencyResult{Label: label, Preload: preload}
	deltas := make([][]float64, len(points))
traces:
	for _, x := range tr.Take() {
		if x.Del != 0 {
			continue
		}
		row := make([]float64, len(points))
		for pi, s := range points {
			if x.T[s] == 0 {
				continue traces
			}
			row[pi] = float64(x.T[s]-x.T[points[0]]) / float64(time.Millisecond)
		}
		res.PerRoute = append(res.PerRoute, row)
		for pi := range points {
			deltas[pi] = append(deltas[pi], row[pi])
		}
	}
	for pi, s := range points {
		res.Stats = append(res.Stats, summarize(s.Label(), deltas[pi]))
	}
	return res, nil
}

// fibHas checks whether the kernel FIB holds exactly net.
func fibHas(r *rtrmgr.Router, net netip.Prefix) bool {
	e, ok := r.FIB.Lookup(net.Addr().Next())
	return ok && e.Net == net
}

func summarize(label string, xs []float64) LatencyStats {
	s := LatencyStats{Label: label, Samples: len(xs)}
	if len(xs) == 0 {
		return s
	}
	min, max, sum := xs[0], xs[0], 0.0
	for _, x := range xs {
		if x < min {
			min = x
		}
		if x > max {
			max = x
		}
		sum += x
	}
	mean := sum / float64(len(xs))
	varsum := 0.0
	for _, x := range xs {
		varsum += (x - mean) * (x - mean)
	}
	s.Avg, s.Min, s.Max = mean, min, max
	s.SD = math.Sqrt(varsum / float64(len(xs)))
	return s
}

// FormatLatencyTable renders the paper-style table.
func FormatLatencyTable(res *LatencyResult) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s (%d routes measured, %d preloaded)\n", res.Label, len(res.PerRoute), res.Preload)
	fmt.Fprintf(&sb, "%-38s %8s %8s %8s %8s\n", "Profile Point", "Avg", "SD", "Min", "Max")
	for i, st := range res.Stats {
		if i == 0 {
			fmt.Fprintf(&sb, "%-38s %8s %8s %8s %8s\n", st.Label, "-", "-", "-", "-")
			continue
		}
		fmt.Fprintf(&sb, "%-38s %8.3f %8.3f %8.3f %8.3f\n", st.Label, st.Avg, st.SD, st.Min, st.Max)
	}
	return sb.String()
}

// ---------------------------------------------------------------------
// Figure 13: BGP route latency induced by a router.
// ---------------------------------------------------------------------

// RunFig13 replays the Figure 13 experiment for the four router models.
func RunFig13(n int, interval time.Duration) []scanner.Series {
	mk := func(name string, build func(*eventloop.Loop) scanner.RouterModel) scanner.Series {
		loop := eventloop.New(eventloop.NewSimClock(time.Unix(0, 0)))
		return scanner.RunExperiment(loop, build(loop), n, interval)
	}
	return []scanner.Series{
		mk("XORP", func(l *eventloop.Loop) scanner.RouterModel {
			return scanner.NewEventDriven("XORP", l, 4*time.Millisecond)
		}),
		mk("MRTd", func(l *eventloop.Loop) scanner.RouterModel {
			return scanner.NewEventDriven("MRTd", l, 10*time.Millisecond)
		}),
		mk("Cisco", func(l *eventloop.Loop) scanner.RouterModel {
			return scanner.NewScanner("Cisco", l, 30*time.Second)
		}),
		mk("Quagga", func(l *eventloop.Loop) scanner.RouterModel {
			return scanner.NewScanner("Quagga", l, 30*time.Second)
		}),
	}
}

// FormatFig13 renders the series as arrival-time vs delay columns.
func FormatFig13(series []scanner.Series) string {
	var sb strings.Builder
	sb.WriteString("BGP route latency induced by a router (delay in seconds)\n")
	fmt.Fprintf(&sb, "%-8s %12s %12s %12s\n", "router", "mean", "max", "samples")
	for _, s := range series {
		fmt.Fprintf(&sb, "%-8s %12.3f %12.3f %12d\n",
			s.Router, s.MeanDelay().Seconds(), s.MaxDelay().Seconds(), len(s.Samples))
	}
	return sb.String()
}

// Fig13Points renders one series as gnuplot-style x y lines.
func Fig13Points(s scanner.Series) string {
	var sb strings.Builder
	samples := append([]scanner.Sample(nil), s.Samples...)
	sort.Slice(samples, func(i, j int) bool { return samples[i].ArrivalTime < samples[j].ArrivalTime })
	for _, smp := range samples {
		fmt.Fprintf(&sb, "%.0f %.3f\n", smp.ArrivalTime.Seconds(), smp.Delay.Seconds())
	}
	return sb.String()
}

// ---------------------------------------------------------------------
// OSPF SPF: full Dijkstra vs the incremental prefix-only recompute.
// ---------------------------------------------------------------------

// SPFResult is the mean cost of one recompute on an n-router grid: a full
// Dijkstra re-run (what a link change costs) and a prefix-table-only pass
// over the kept shortest-path tree (what route churn costs).
type SPFResult struct {
	Routers           int
	Full, Incremental time.Duration
}

// RunSPF times iters full and iters incremental recomputes on
// ospf.GridLSDB(n), checking every one yields n routes.
func RunSPF(n, iters int) (SPFResult, error) {
	res := SPFResult{Routers: n}
	db, root := ospf.GridLSDB(n)
	start := time.Now()
	for i := 0; i < iters; i++ {
		s := ospf.NewSPF(root)
		if got := len(s.Recompute(db, true)); got != n {
			return res, fmt.Errorf("spf: %d routes at n=%d", got, n)
		}
	}
	res.Full = time.Since(start) / time.Duration(iters)

	s := ospf.NewSPF(root)
	s.Recompute(db, true) // warm the shortest-path tree
	start = time.Now()
	for i := 0; i < iters; i++ {
		if !db.MutatePrefix(root, uint16(2+i%7)) {
			return res, fmt.Errorf("spf: mutation was not prefix-only")
		}
		if got := len(s.Recompute(db, false)); got != n {
			return res, fmt.Errorf("spf: %d routes at n=%d (incremental)", got, n)
		}
	}
	res.Incremental = time.Since(start) / time.Duration(iters)
	return res, nil
}

// ---------------------------------------------------------------------
// §5.1 memory claim: ~150k routes ≈ 120 MB BGP + 60 MB RIB (2005 C++).
// ---------------------------------------------------------------------

// MemoryResult reports heap growth while holding a full table.
type MemoryResult struct {
	Routes          int
	BGPHeapMB       float64
	BGPAndRIBHeapMB float64
}

// RunMemory loads a full table into a standalone BGP pipeline and then
// into a RIB, reporting heap growth at each stage.
func RunMemory(n int) (MemoryResult, error) {
	res := MemoryResult{Routes: n}
	baseline := settledHeapMB()

	loop := eventloop.New(eventloop.NewSimClock(time.Unix(0, 0)))
	proc := bgp.NewProcess(loop, bgp.Config{AS: 65000, BGPID: netip.MustParseAddr("1.1.1.1")}, nil, nil)
	loop.RunPending()
	var addErr error
	loop.Dispatch(func() {
		if _, err := proc.AddPeer(bgp.PeerConfig{
			Name:      "feed",
			LocalAddr: netip.MustParseAddr("192.168.1.1"),
			PeerAddr:  netip.MustParseAddr("192.168.1.2"),
			PeerAS:    65001,
			Passive:   true,
		}); err != nil {
			addErr = err
		}
	})
	loop.RunPending()
	if addErr != nil {
		return res, addErr
	}
	table := workload.GenerateTable(42, n, nil)
	updates := table.Updates()
	loop.Dispatch(func() {
		for _, u := range updates {
			proc.InjectUpdate("feed", u)
		}
	})
	loop.RunPending()
	res.BGPHeapMB = heapMB() - baseline

	ribProc := rib.NewProcess(loop, nil, nil)
	loop.Dispatch(func() {
		for i, p := range table.Prefixes {
			ribProc.AddRoute(route.ProtoEBGP, route.Entry{
				Net: p, NextHop: table.Attrs[i].NextHop, IfName: "eth0",
			})
		}
	})
	loop.RunPending()
	res.BGPAndRIBHeapMB = heapMB() - baseline
	runtime.KeepAlive(proc)
	runtime.KeepAlive(ribProc)
	return res, nil
}

// settledHeapMB is heapMB once a collection frees nothing more. What
// earlier work left behind — the goroutine of a stopped loop not yet gone,
// and the router it still reaches — is freed by then rather than during
// the measurement, where it would read as a negative size.
func settledHeapMB() float64 {
	h := heapMB()
	for range 10 {
		time.Sleep(time.Millisecond) // let exiting goroutines run
		next := heapMB()
		if next >= h {
			return next
		}
		h = next
	}
	return h
}

func heapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}
