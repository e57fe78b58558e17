package bench

import (
	"fmt"
	"net/netip"
	"runtime"
	"time"

	"xorp/internal/eventloop"
	"xorp/internal/fea"
	"xorp/internal/kernel"
	"xorp/internal/rib"
	"xorp/internal/route"
	"xorp/internal/workload"
)

// ---------------------------------------------------------------------
// Table load: routes/sec and allocs/route for a full-table RIB load —
// the preload phase of Figures 10–12 isolated. "single" feeds runs of one
// (AddRoute); "batch" feeds runs of TableLoadBatchSize (AddRoutes). Both
// take the same path through the stage network and end in a FIBBatch.
// ---------------------------------------------------------------------

// TableLoadBatchSize is the chunk size the batch mode feeds per
// AddRoutes call, mirroring a BGP feed's per-drain coalescing window.
const TableLoadBatchSize = 1024

// TableLoadResult is one table-load measurement.
type TableLoadResult struct {
	Mode           string // "single" or "batch"
	Routes         int
	Elapsed        time.Duration
	RoutesPerSec   float64
	AllocsPerRoute float64
}

// RunTableLoad loads n EBGP routes (with nexthops resolving through a
// static cover, so the extint stage does real recursive resolution) into
// a RIB wired to an in-process FEA and kernel FIB, and reports
// throughput and allocation cost.
func RunTableLoad(n int, batch bool) (TableLoadResult, error) {
	mode := "single"
	if batch {
		mode = "batch"
	}
	res := TableLoadResult{Mode: mode, Routes: n}

	loop := eventloop.New(nil)
	fib := kernel.NewFIB()
	fib.AddInterface("eth0", netip.MustParsePrefix("192.168.1.1/24"), 1500)
	feaProc := fea.New(loop, fib, nil, nil)
	p := rib.NewProcess(loop, fea.RIBClient{P: feaProc}, nil)

	nexthops := []netip.Addr{
		netip.MustParseAddr("172.16.0.1"),
		netip.MustParseAddr("172.16.0.2"),
		netip.MustParseAddr("172.16.0.3"),
	}
	loop.Dispatch(func() {
		p.AddRoute(route.ProtoStatic, route.Entry{
			Net:     netip.MustParsePrefix("172.16.0.0/12"),
			NextHop: netip.MustParseAddr("192.168.1.254"),
			IfName:  "eth0",
		})
	})
	loop.RunPending()

	table := workload.GenerateTable(42, n, nexthops)
	entries := make([]route.Entry, n)
	for i, pfx := range table.Prefixes {
		entries[i] = route.Entry{Net: pfx, NextHop: table.Attrs[i].NextHop}
	}

	var loadErr error
	runtime.GC()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	loop.Dispatch(func() {
		if batch {
			for off := 0; off < len(entries); off += TableLoadBatchSize {
				end := min(off+TableLoadBatchSize, len(entries))
				if err := p.AddRoutes(route.ProtoEBGP, entries[off:end]); err != nil {
					loadErr = err
					return
				}
			}
			return
		}
		for _, e := range entries {
			if err := p.AddRoute(route.ProtoEBGP, e); err != nil {
				loadErr = err
				return
			}
		}
	})
	loop.RunPending()
	res.Elapsed = time.Since(start)
	runtime.ReadMemStats(&ms1)
	if loadErr != nil {
		return res, loadErr
	}
	if fib.Len() < n {
		return res, fmt.Errorf("bench: tableload(%s): FIB absorbed %d/%d routes", mode, fib.Len(), n)
	}
	res.RoutesPerSec = float64(n) / res.Elapsed.Seconds()
	res.AllocsPerRoute = float64(ms1.Mallocs-ms0.Mallocs) / float64(n)
	return res, nil
}

// FormatTableLoad renders a single-vs-batch comparison.
func FormatTableLoad(single, batch TableLoadResult) string {
	speedup := batch.RoutesPerSec / single.RoutesPerSec
	allocCut := 1 - batch.AllocsPerRoute/single.AllocsPerRoute
	return fmt.Sprintf(
		"%-8s %12.0f routes/sec %8.1f allocs/route   (%d routes)\n"+
			"%-8s %12.0f routes/sec %8.1f allocs/route   (batch=%d)\n"+
			"batch path: %.1fx routes/sec, %.0f%% fewer allocs/route\n",
		single.Mode, single.RoutesPerSec, single.AllocsPerRoute, single.Routes,
		batch.Mode, batch.RoutesPerSec, batch.AllocsPerRoute, TableLoadBatchSize,
		speedup, allocCut*100)
}
