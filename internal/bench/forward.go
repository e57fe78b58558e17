package bench

import (
	"fmt"
	"net/netip"
	"strings"
	"time"

	"xorp/internal/eventloop"
	"xorp/internal/fea"
	"xorp/internal/fwd"
	"xorp/internal/kernel"
	"xorp/internal/rib"
	"xorp/internal/route"
	"xorp/internal/workload"
)

// ---------------------------------------------------------------------
// Forwarding plane: lookups/sec at 1..N workers against the published
// FIB snapshots, measured concurrently with a full-table churn run — the
// data-plane half the paper's evaluation never covered. The churn path
// is the real one: RIB runs → FEA ApplyBatch → SimBackend →
// one snapshot publish per batch, while the workers chase the snapshot
// pointer lock-free.
// ---------------------------------------------------------------------

// ForwardResult is one forwarding measurement cell.
type ForwardResult struct {
	Workers       int
	Routes        int
	Churn         bool
	Elapsed       time.Duration
	Lookups       uint64
	LookupsPerSec float64
	HitRatio      float64
	LatMeanNs     float64
	Batches       uint64 // snapshot generations published in the window
}

// forwardChurnChunk is the run length of the preload and the
// per-transaction churn size: each churn step withdraws and re-adds this
// many routes as two RIB batch calls.
const forwardChurnChunk = 1024

// RunForward preloads nRoutes EBGP routes into a RIB→FEA assembly, then
// forwards a zipf-distributed synthetic stream (5% deliberate misses)
// from `workers` workers for dur. With churn set, the measurement runs
// concurrently with continuous withdraw/re-add transactions of
// forwardChurnChunk routes as one run through the RIB.
func RunForward(nRoutes, workers int, churn bool, dur time.Duration) (ForwardResult, error) {
	res := ForwardResult{Workers: workers, Routes: nRoutes, Churn: churn}

	loop := eventloop.New(nil)
	fib := kernel.NewFIB()
	fib.AddInterface("eth0", netip.MustParsePrefix("192.168.1.1/24"), 1500)
	feaProc := fea.New(loop, fib, nil, nil)
	p := rib.NewProcess(loop, fea.RIBClient{P: feaProc}, nil)

	nexthops := []netip.Addr{
		netip.MustParseAddr("172.16.0.1"),
		netip.MustParseAddr("172.16.0.2"),
	}
	loop.Dispatch(func() {
		p.AddRoute(route.ProtoStatic, route.Entry{
			Net:     netip.MustParsePrefix("172.16.0.0/12"),
			NextHop: netip.MustParseAddr("192.168.1.254"),
			IfName:  "eth0",
		})
	})
	loop.RunPending()

	table := workload.GenerateTable(42, nRoutes, nexthops)
	entries := make([]route.Entry, nRoutes)
	for i, pfx := range table.Prefixes {
		entries[i] = route.Entry{Net: pfx, NextHop: table.Attrs[i].NextHop}
	}
	var loadErr error
	loop.Dispatch(func() {
		for off := 0; off < len(entries); off += forwardChurnChunk {
			end := min(off+forwardChurnChunk, len(entries))
			if err := p.AddRoutes(route.ProtoEBGP, entries[off:end]); err != nil {
				loadErr = err
				return
			}
		}
	})
	loop.RunPending()
	if loadErr != nil {
		return res, loadErr
	}
	if got := feaProc.Snapshots().Current().Len(); got < nRoutes {
		return res, fmt.Errorf("bench: forward: snapshot absorbed %d/%d routes", got, nRoutes)
	}

	stream, err := fwd.NewStream(fwd.StreamConfig{
		Prefixes:  table.Prefixes,
		Dist:      "zipf",
		MissRatio: 0.05,
		Seed:      7,
	})
	if err != nil {
		return res, err
	}

	pool := fwd.NewPool(feaProc.Snapshots(), stream, workers)
	pool.Start()
	defer pool.Stop()

	c0 := pool.Counters()
	gen0 := feaProc.Snapshots().Current().Gen()
	start := time.Now()
	deadline := start.Add(dur)
	if churn {
		// Withdraw/re-add rolling windows as runs through the RIB
		// for the whole measurement interval.
		chunk := forwardChurnChunk
		if chunk > len(entries) {
			chunk = len(entries)
		}
		nets := make([]netip.Prefix, chunk)
		for off := 0; time.Now().Before(deadline); off = (off + chunk) % (len(entries) - chunk + 1) {
			span := entries[off : off+chunk]
			for i := range span {
				nets[i] = span[i].Net
			}
			loop.Dispatch(func() {
				if err := p.DeleteRoutes(route.ProtoEBGP, nets); err != nil {
					loadErr = err
					return
				}
				loadErr = p.AddRoutes(route.ProtoEBGP, span)
			})
			loop.RunPending()
			if loadErr != nil {
				return res, loadErr
			}
		}
	} else {
		time.Sleep(time.Until(deadline))
	}
	res.Elapsed = time.Since(start)
	c1 := pool.Counters()
	res.Batches = feaProc.Snapshots().Current().Gen() - gen0

	res.Lookups = c1.Lookups - c0.Lookups
	res.LookupsPerSec = float64(res.Lookups) / res.Elapsed.Seconds()
	if res.Lookups > 0 {
		res.HitRatio = float64(c1.Hits-c0.Hits) / float64(res.Lookups)
	}
	res.LatMeanNs = c1.Latency.Mean()
	if res.Lookups == 0 {
		return res, fmt.Errorf("bench: forward: workers made no progress")
	}
	return res, nil
}

// FormatForward renders the worker-scaling matrix: idle vs churn-active
// lookup throughput per worker count.
func FormatForward(idle, active []ForwardResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-8s %16s %16s %8s %12s %12s\n",
		"workers", "idle lookups/s", "churn lookups/s", "ratio", "churn hit%", "batches")
	for i := range idle {
		ratio := active[i].LookupsPerSec / idle[i].LookupsPerSec
		fmt.Fprintf(&b, "%-8d %16.0f %16.0f %7.2fx %11.1f%% %12d\n",
			idle[i].Workers, idle[i].LookupsPerSec, active[i].LookupsPerSec,
			ratio, active[i].HitRatio*100, active[i].Batches)
	}
	return b.String()
}
