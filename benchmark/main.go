// Command benchmark is the repository's performance ruler: five
// closed-loop, fixed-work workloads that drive the router only through
// its layers' public functions, eight end-to-end cost metrics reported on
// every workload, and a traced run that adds per-layer numbers and a
// layer budget table. See README.md in this directory.
//
//	bash benchmark/run.sh --workload bulk --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"time"
)

// processStart approximates the moment the process started; setup_s of
// the first set-up is measured from it.
var processStart = time.Now()

// sizes are the fixed dimensions of the generated inputs.
type sizes struct {
	tableRoutes int // routes preloaded by bulk, trickle and forward
	attrSets    int // attribute sets the full-table feed draws from
	tricklePool int // prefixes peer "test" cycles through
	rsPeers     int // route-server clients
	rsSlots     int // UPDATEs of rsNLRI prefixes per client
	streamLen   int // destination addresses in the forward ring
}

var (
	fullSizes  = sizes{tableRoutes: 146515, attrSets: 16384, tricklePool: 4096, rsPeers: 32, rsSlots: 100, streamLen: 2 * lookupBurst}
	quickSizes = sizes{tableRoutes: 4096, attrSets: 512, tricklePool: 256, rsPeers: 8, rsSlots: 10, streamLen: 2 * lookupBurst}
)

// A -quick run times 20 transactions in 4 segments.
const (
	quickSegments       = 4
	quickTxnsPerSegment = 5
)

// config is one run's parameters.
type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	quick    bool
	outDir   string
	sizes    sizes
	// corruptExpected flips one next hop the generators expect, so that a
	// test can see a wrong output fail the run.
	corruptExpected bool
}

var workloads = []workload{
	{name: "bulk", txnsPerSegment: 38, warmShare: 0.05, setups: 1, setup: setupBulk},
	{name: "trickle", txnsPerSegment: 7500, warmShare: 0.05, setups: 1, setup: setupTrickle},
	{name: "routeserver", txnsPerSegment: 12, warmShare: 0.05, setups: 1, setup: setupRouteServer},
	{name: "xrl", txnsPerSegment: 170, warmShare: 0.2, setups: 3, setup: setupXRL},
	{name: "forward", txnsPerSegment: 21, warmShare: 0.05, setups: 1, setup: setupForward},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// txnCounts returns the fixed work of a run: the number of segments of
// the timed section (two per second of --seconds), the transactions in
// each, and the warm-up transactions (at least 5 % of the timed ones).
func (cfg *config) txnCounts(w workload) (segs, perSeg, warm int) {
	segs, perSeg = 2*cfg.seconds, w.txnsPerSegment
	if cfg.quick {
		segs, perSeg = quickSegments, quickTxnsPerSegment
	}
	return segs, perSeg, int(math.Ceil(w.warmShare * float64(segs*perSeg)))
}

// result is what a run reports.
type result struct {
	attempted int
	failed    int
	metrics   []metric
}

func (r *result) exitCode() int {
	if r.failed > 0 {
		return 1
	}
	return 0
}

// setUp assembles the workload and warms it up, w.setups times over, and
// returns the last instance with the median set-up time. A set-up covers
// input generation, assembly, preload, warm-up and a final collection.
func setUp(cfg *config, w workload, out io.Writer) (instance, time.Duration, error) {
	_, _, warm := cfg.txnCounts(w)
	repeats := w.setups
	if cfg.trace || cfg.quick {
		repeats = 1
	}
	var inst instance
	var times []float64
	for rep := 0; rep < repeats; rep++ {
		start := time.Now()
		if rep == 0 {
			start = processStart
		} else {
			inst.close()
			inst = nil
		}
		d := newDigest()
		var err error
		if inst, err = w.setup(cfg, d); err != nil {
			return nil, 0, fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		for i := 0; i < warm; i++ {
			inst.txn(i, nil)
		}
		runtime.GC()
		times = append(times, time.Since(start).Seconds())
		if rep == repeats-1 {
			fmt.Fprintf(out, "input_digest %s\n", d)
		}
	}
	return inst, time.Duration(median(times) * float64(time.Second)), nil
}

// run executes one benchmark run and prints its human-readable report
// to out.
func run(cfg *config, out io.Writer) (*result, error) {
	w, ok := findWorkload(cfg.workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	segs, perSeg, warm := cfg.txnCounts(w)
	inst, setup, err := setUp(cfg, w, out)
	if err != nil {
		return nil, err
	}
	defer func() {
		if inst != nil {
			inst.close()
		}
	}()
	fmt.Fprintf(out, "workload %s seed %d seconds %d segments %d txns %d warmup %d ops_per_txn %d\n",
		w.name, cfg.seed, cfg.seconds, segs, segs*perSeg, warm, inst.opsPerTxn())

	res := &result{}
	if !cfg.trace {
		pass := runPass(inst, warm, segs, perSeg, nil, true)
		heap := heapMB()
		runtime.KeepAlive(inst)
		res.attempted, res.failed = pass.ops, inst.failures()
		res.metrics = endToEndMetrics(setup, pass, heap)
		fmt.Fprintf(out, "txn_samples %d\ntimed_wall_s %.3f\nsegment_wall_us_per_op %.4g\n",
			len(pass.lat), pass.wallTotal.Seconds(), pass.segWall)
	} else {
		tr, err := runTraced(cfg, inst, warm, segs, perSeg, out)
		if err != nil {
			return nil, err
		}
		res.attempted, res.failed = tr.ops, inst.failures()
		inst.close()
		inst = nil
		runtime.GC()
		layers, err := layerMetrics(cfg)
		if err != nil {
			return nil, err
		}
		res.metrics = append(layers, tr.metrics...)
		printBudget(out, w.name, tr.wallPerOp, res.metrics)
		sort.SliceStable(res.metrics, func(i, j int) bool { return res.metrics[i].name < res.metrics[j].name })
	}
	res.failed = min(res.failed, res.attempted)
	fmt.Fprintf(out, "ops_attempted %d\nops_failed %d\n", res.attempted, res.failed)
	for _, m := range res.metrics {
		if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			return nil, fmt.Errorf("metric %s is not finite", m.name)
		}
		fmt.Fprintf(out, "%s %v %s\n", m.name, m.value, m.unit)
	}
	return res, nil
}

// resultLine renders the last line of standard output: the object the
// driver reads.
func resultLine(r *result) string {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	obj := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.failed == 0, r.attempted, r.failed, make(map[string]value, len(r.metrics))}
	for _, m := range r.metrics {
		obj.Metrics[m.name] = value{m.value, m.unit}
	}
	b, err := json.Marshal(obj)
	if err != nil {
		panic(err) // values were checked to be finite
	}
	return string(b)
}

func main() {
	cfg := &config{}
	var trace, calibrate int
	flag.StringVar(&cfg.workload, "workload", "", "bulk, trickle, routeserver, xrl or forward")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed of every generated input")
	flag.IntVar(&cfg.seconds, "seconds", 10, "nominal length of the timed section; sets the fixed number of transactions")
	flag.IntVar(&trace, "trace", 0, "1: traced run printing the per-layer metrics and the layer budget table")
	flag.BoolVar(&cfg.quick, "quick", false, "small inputs and 20 transactions (smoke test)")
	flag.StringVar(&cfg.outDir, "out", "benchmark/out", "directory the traced run writes its spans to")
	flag.IntVar(&calibrate, "calibrate", 0, "run every workload this many times per set, two interleaved sets, and compare against BENCHMARK.json")
	flag.Parse()
	cfg.trace = trace != 0
	cfg.sizes = fullSizes
	if cfg.quick {
		cfg.sizes = quickSizes
	}
	if calibrate > 0 {
		if err := runCalibrate(cfg, calibrate, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(2)
		}
		return
	}
	if cfg.seconds < 1 {
		fmt.Fprintln(os.Stderr, "benchmark: --seconds must be at least 1")
		os.Exit(2)
	}
	res, err := run(cfg, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(2)
	}
	fmt.Println(resultLine(res))
	os.Exit(res.exitCode())
}
