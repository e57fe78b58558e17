// Command xorp_bench regenerates the paper's evaluation (§8): every
// figure and table, printed in the paper's format. See EXPERIMENTS.md for
// the recorded paper-vs-measured comparison.
//
// Usage:
//
//	xorp_bench -experiment all          # everything (full sizes: slow)
//	xorp_bench -experiment fig9         # XRL throughput vs #args
//	xorp_bench -experiment fig10        # latency, empty table
//	xorp_bench -experiment fig11        # latency, full table, same peering
//	xorp_bench -experiment fig12        # latency, full table, diff peering
//	xorp_bench -experiment fig13        # event-driven vs scanner
//	xorp_bench -experiment memory       # §5.1 memory footprint
//	xorp_bench -experiment spf          # OSPF SPF full vs incremental
//	xorp_bench -experiment tableload -trace  # full-table load through the traced BGP->FIB pipeline
//	xorp_bench -experiment forward      # forwarding lookups/sec vs workers, idle + churn
//	xorp_bench -quick                   # scaled-down table sizes
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"xorp/internal/bench"
	"xorp/internal/ospf"
	"xorp/internal/telemetry"
	"xorp/internal/workload"
)

func main() {
	experiment := flag.String("experiment", "all", "which experiment to run")
	quick := flag.Bool("quick", false, "scale the full-table experiments down (20k routes)")
	points := flag.Bool("points", false, "also dump per-route data points (gnuplot style)")
	fig9json := flag.String("fig9json", "", "write the fig9 results as JSON to this file (see BENCH_fig9.json)")
	trace := flag.Bool("trace", false, "with -experiment tableload: run the full BGP->FIB pipeline with per-stage latency tracing")
	traceShift := flag.Uint("trace-shift", 6, "with -trace: sample 1 in 2^shift routes")
	traceCSV := flag.String("trace-csv", "", "with -trace: also write the raw sampled traces as CSV to this file")
	grid := flag.String("grid", "", "run a named experiment grid from -grid-spec (e.g. quick, full) instead of -experiment")
	gridSpec := flag.String("grid-spec", "experiments.json", "grid definition file")
	gridOut := flag.String("grid-out", "", "write the grid summary CSV to this file (default: stdout only)")
	gridRepeats := flag.Int("grid-repeats", 0, "override every cell's repeat count (0 = use the spec)")
	flag.Parse()

	if *grid != "" {
		if err := runGrid(*gridSpec, *grid, *gridOut, *gridRepeats); err != nil {
			fmt.Fprintf(os.Stderr, "xorp_bench: grid %s: %v\n", *grid, err)
			os.Exit(1)
		}
		return
	}

	preload := workload.FullTableSize
	testN := 255
	if *quick {
		preload = 20000
		testN = 64
	}

	run := func(name string, fn func() error) {
		if *experiment != "all" && *experiment != name {
			return
		}
		fmt.Printf("==== %s ====\n", name)
		if err := fn(); err != nil {
			fmt.Fprintf(os.Stderr, "xorp_bench: %s: %v\n", name, err)
			os.Exit(1)
		}
		fmt.Println()
	}

	run("fig9", func() error {
		fmt.Println("XRL performance for various communication families (Figure 9)")
		fmt.Println("columns: XRLs/sec | heap allocs per XRL | transport syscalls per XRL")
		fmt.Printf("%-6s %26s %26s %26s\n", "#args", "Intra-Process", "TCP", "UDP")
		var all []bench.Fig9Result
		for _, nargs := range []int{0, 1, 2, 4, 8, 12, 16, 20, 25} {
			row := [3]bench.Fig9Result{}
			for i, tr := range []string{"intra", "tcp", "udp"} {
				total := 10000
				if tr == "udp" {
					total = 3000 // stop-and-wait is slow by design
				}
				res, err := bench.RunFig9(tr, nargs, total, 100)
				if err != nil {
					return err
				}
				row[i] = res
				all = append(all, res)
			}
			fmt.Printf("%-6d", nargs)
			for _, r := range row {
				fmt.Printf(" %12.0f %5.1f %6.2f", r.XRLsPerSec, r.AllocsPerXRL, r.SyscallsPerXRL)
			}
			fmt.Println()
		}
		if *fig9json != "" {
			out, err := json.MarshalIndent(all, "", "  ")
			if err != nil {
				return err
			}
			if err := os.WriteFile(*fig9json, out, 0o644); err != nil {
				return err
			}
			fmt.Printf("wrote %s\n", *fig9json)
		}
		return nil
	})

	latency := func(label string, preloadN int, same bool) func() error {
		return func() error {
			res, err := bench.RunLatency(label, preloadN, testN, same)
			if err != nil {
				return err
			}
			fmt.Print(bench.FormatLatencyTable(res))
			if *points {
				fmt.Println("# per-route deltas (ms), columns = profile points")
				for i, row := range res.PerRoute {
					fmt.Printf("%d", i)
					for _, v := range row {
						fmt.Printf(" %.3f", v)
					}
					fmt.Println()
				}
			}
			return nil
		}
	}
	run("fig10", latency("Route propagation latency, no initial routes (Figure 10)", 0, true))
	run("fig11", latency(fmt.Sprintf("Route propagation latency, %d initial routes, same peering (Figure 11)", preload), preload, true))
	run("fig12", latency(fmt.Sprintf("Route propagation latency, %d initial routes, different peering (Figure 12)", preload), preload, false))

	run("fig13", func() error {
		series := bench.RunFig13(255, time.Second)
		fmt.Print(bench.FormatFig13(series))
		if *points {
			for _, s := range series {
				fmt.Printf("# %s: arrival(s) delay(s)\n", s.Router)
				fmt.Print(bench.Fig13Points(s))
			}
		}
		return nil
	})

	run("spf", func() error {
		fmt.Println("OSPF SPF recompute cost on grid topologies (see BENCH_fig9.json \"spf\")")
		fmt.Println("full = Dijkstra re-run (link change); incremental = prefix-table only (route churn)")
		fmt.Printf("%-8s %14s %14s %9s\n", "routers", "full", "incremental", "speedup")
		const iters = 100
		for _, n := range []int{100, 1000} {
			db, root := ospf.GridLSDB(n)
			start := time.Now()
			for i := 0; i < iters; i++ {
				s := ospf.NewSPF(root)
				if got := len(s.Recompute(db, true)); got != n {
					return fmt.Errorf("spf: %d routes at n=%d", got, n)
				}
			}
			full := time.Since(start) / iters

			s := ospf.NewSPF(root)
			s.Recompute(db, true) // warm the shortest-path tree
			start = time.Now()
			for i := 0; i < iters; i++ {
				if !db.MutatePrefix(root, uint16(2+i%7)) {
					return fmt.Errorf("spf: mutation was not prefix-only")
				}
				if got := len(s.Recompute(db, false)); got != n {
					return fmt.Errorf("spf: %d routes at n=%d (incremental)", got, n)
				}
			}
			incr := time.Since(start) / iters
			fmt.Printf("%-8d %12.1fµs %12.1fµs %8.1fx\n", n,
				float64(full.Nanoseconds())/1e3, float64(incr.Nanoseconds())/1e3,
				float64(full)/float64(incr))
		}
		return nil
	})

	run("tableload", func() error {
		if !*trace {
			fmt.Println("the load alone is the repo benchmark's bulk workload (bash benchmark/run.sh --workload bulk); -trace runs it through the traced pipeline")
			return nil
		}
		n := preload
		fmt.Printf("Traced pipeline table load (%d routes, 1 in %d sampled)\n", n, 1<<*traceShift)
		res, err := bench.RunTableLoadTraced(n, *traceShift)
		if err != nil {
			return err
		}
		fmt.Print(bench.FormatTableLoadTraced(res))
		if *traceCSV != "" {
			if err := os.WriteFile(*traceCSV, []byte(telemetry.WriteCSV(res.Traces)), 0o644); err != nil {
				return err
			}
			fmt.Printf("wrote %s\n", *traceCSV)
		}
		return nil
	})

	run("forward", func() error {
		n := preload
		dur := 2 * time.Second
		if *quick {
			dur = 300 * time.Millisecond
		}
		fmt.Printf("Forwarding-plane lookups/sec, %d routes, %v per cell (zipf dst, 5%% misses)\n", n, dur)
		fmt.Println("churn column runs concurrently with continuous withdraw/re-add RIB transactions")
		var idle, active []bench.ForwardResult
		for _, w := range []int{1, 2, 4, 8} {
			ri, err := bench.RunForward(n, w, false, dur)
			if err != nil {
				return err
			}
			ra, err := bench.RunForward(n, w, true, dur)
			if err != nil {
				return err
			}
			idle = append(idle, ri)
			active = append(active, ra)
		}
		fmt.Print(bench.FormatForward(idle, active))
		fmt.Println(`(recorded baselines: BENCH_fig9.json "forward")`)
		return nil
	})

	run("memory", func() error {
		n := preload
		res, err := bench.RunMemory(n)
		if err != nil {
			return err
		}
		fmt.Printf("Memory footprint with %d routes (paper §5.1: ~120 MB BGP + ~60 MB RIB in 2005 C++)\n", n)
		fmt.Printf("BGP process heap:        %8.1f MB\n", res.BGPHeapMB)
		fmt.Printf("BGP + RIB process heap:  %8.1f MB\n", res.BGPAndRIBHeapMB)
		return nil
	})
}

// runGrid executes the named experiment grid and emits the summary CSV
// (stdout, plus -grid-out when set).
func runGrid(spec, name, out string, repeats int) error {
	cells, err := bench.LoadGrid(spec, name)
	if err != nil {
		return err
	}
	if repeats > 0 {
		for i := range cells {
			cells[i].Repeats = repeats
		}
	}
	fmt.Printf("grid %q: %d cells from %s\n", name, len(cells), spec)
	start := time.Now()
	rows, err := bench.RunGrid(cells, func(s string) {
		fmt.Fprintf(os.Stderr, "  %s\n", s)
	})
	if err != nil {
		return err
	}
	csv := bench.WriteGridCSV(rows)
	fmt.Print(csv)
	fmt.Printf("grid %q: %d rows in %v\n", name, len(rows), time.Since(start).Round(time.Millisecond))
	if out != "" {
		if err := os.WriteFile(out, []byte(csv), 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", out)
	}
	return nil
}
