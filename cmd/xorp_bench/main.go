// Command xorp_bench regenerates the paper's evaluation (§8): every
// figure and table, printed in the paper's format (costs: benchmark/run.sh).
//
// Usage:
//
//	xorp_bench -experiment all          # everything (full sizes: slow)
//	xorp_bench -experiment fig9         # XRL throughput vs #args
//	xorp_bench -experiment fig9 -fig9json BENCH_fig9.json  # ... and write the recorded file
//	xorp_bench -experiment fig10        # latency, empty table
//	xorp_bench -experiment fig11        # latency, full table, same peering
//	xorp_bench -experiment fig12        # latency, full table, diff peering
//	xorp_bench -experiment fig13        # event-driven vs scanner
//	xorp_bench -experiment memory       # §5.1 memory footprint
//	xorp_bench -experiment spf          # OSPF SPF full vs incremental
//	xorp_bench -quick                   # scaled-down table sizes
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"xorp/internal/bench"
	"xorp/internal/workload"
)

func main() {
	experiment := flag.String("experiment", "all", "which experiment to run")
	quick := flag.Bool("quick", false, "scale the full-table experiments down (20k routes)")
	points := flag.Bool("points", false, "also dump per-route data points (gnuplot style)")
	fig9json := flag.String("fig9json", "", "write the fig9 rows and the machine they ran on as JSON to this file (BENCH_fig9.json)")
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
			// The whole file is this run: the rows and what measured them.
			out, err := json.MarshalIndent(map[string]any{
				"recorded": time.Now().UTC().Format("2006-01-02"),
				"go":       runtime.Version(),
				"platform": runtime.GOOS + "/" + runtime.GOARCH,
				"num_cpu":  runtime.NumCPU(),
				"rows":     all,
			}, "", "  ")
			if err != nil {
				return err
			}
			if err := os.WriteFile(*fig9json, append(out, '\n'), 0o644); err != nil {
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
		fmt.Println("OSPF SPF recompute cost on grid topologies")
		fmt.Println("full = Dijkstra re-run (link change); incremental = prefix-table only (route churn)")
		fmt.Printf("%-8s %14s %14s %9s\n", "routers", "full", "incremental", "speedup")
		for _, n := range []int{100, 1000} {
			res, err := bench.RunSPF(n, 100)
			if err != nil {
				return err
			}
			fmt.Printf("%-8d %12.1fµs %12.1fµs %8.1fx\n", n,
				float64(res.Full.Nanoseconds())/1e3, float64(res.Incremental.Nanoseconds())/1e3,
				float64(res.Full)/float64(res.Incremental))
		}
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
