package main

import (
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// instance is one assembled workload, ready to run transactions. All
// five workloads are closed loops with one client and one transaction
// outstanding.
type instance interface {
	// txn runs transaction i. timed is the wall clock spent in the timed
	// sections of the transaction (its correctness checks run outside
	// them) and lat the part of it reported as the transaction's latency.
	// rec is nil on untraced passes.
	txn(i int, rec *recorder) (timed, lat time.Duration)
	// opsPerTxn is the number of ops one transaction performs.
	opsPerTxn() int
	// failures is the number of ops whose output was wrong so far.
	failures() int
	// snapshotGen is the FEA's published snapshot generation, 0 for the
	// workloads that have no forwarding plane.
	snapshotGen() uint64
	// trace prepares the instance for traced passes (installs the
	// wrappers spans are recorded from).
	trace(rec *recorder)
	// close stops every goroutine the instance started and waits for it.
	close()
}

// workload names one of the five workloads and how to assemble it.
type workload struct {
	name string
	// txnsPerSegment is the fixed amount of work in one segment of the
	// timed section; a run has two segments per second of --seconds.
	// Fixed work, not fixed time: the same seed and --seconds always
	// execute the same transactions. It is chosen so that at the commit
	// that introduced the benchmark a segment takes about half a second
	// on the reference box and allocates less than 40 % of the live heap,
	// which keeps the concurrent collector out of the timed sections.
	txnsPerSegment int
	// warmShare is the warm-up as a share of the timed transactions.
	warmShare float64
	// setups is how many times the whole set-up is repeated; setup_s is
	// the median.
	setups int
	setup  func(cfg *config, d *digest) (instance, error)
}

// passResult is what one pass over the transactions measured. The time
// metrics are the lower quartile over the pass's segments: whatever
// disturbs a segment (a neighbour on the host, an interrupt, a collection
// that did reach a timed section) only ever slows it down, so the quieter
// segments say most about the code.
type passResult struct {
	txns        int
	ops         int
	segWall     []float64 // µs per op, one per segment
	wallPerOp   float64   // µs, lower quartile over segments
	cpuPerOp    float64   // µs, lower quartile over segments
	p50, p90    float64   // µs per txn: lower quartile over segments of the segment's percentile
	wallTotal   time.Duration
	cpuTotal    time.Duration
	allocs      float64   // per op
	allocBytes  float64   // per op
	lat         []float64 // µs per txn, sorted
	gcCycles    uint32
	gcCPUShare  float64
	snapshotGen uint64 // generations published during the pass
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("benchmark: getrusage: %v", err))
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// gcCPUSeconds is the runtime's estimate of CPU time spent collecting
// garbage since the process started.
func gcCPUSeconds() float64 {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(s)
	return s[0].Value.Float64()
}

// runPass executes transactions [first, first+segs*perSeg) in segs
// segments and measures them. With forceGC a collection runs before each
// segment, outside the timed sections: every segment then starts from the
// same heap and, allocating less than the collector's headroom, finishes
// before the next cycle would start, so transaction latency has one mode
// instead of a collector-on and a collector-off mode. The collector's
// cost stays visible in allocs_per_op, alloc_bytes_per_op and heap_mb.
func runPass(inst instance, first, segs, perSeg int, rec *recorder, forceGC bool) passResult {
	n := segs * perSeg
	res := passResult{txns: n, ops: n * inst.opsPerTxn(), lat: make([]float64, 0, n)}
	var segCPU, segP50, segP90 []float64
	var ms0, ms1 runtime.MemStats
	gen0, gc0 := inst.snapshotGen(), gcCPUSeconds()
	runtime.ReadMemStats(&ms0)
	for s := 0; s < segs; s++ {
		if forceGC {
			runtime.GC()
		}
		var wall time.Duration
		cpu0 := cpuTime()
		for i := first + s*perSeg; i < first+(s+1)*perSeg; i++ {
			timed, lat := inst.txn(i, rec)
			wall += timed
			res.lat = append(res.lat, float64(lat.Nanoseconds())/1e3)
		}
		cpu := cpuTime() - cpu0
		ops := float64(perSeg * inst.opsPerTxn())
		res.segWall = append(res.segWall, float64(wall.Nanoseconds())/1e3/ops)
		segCPU = append(segCPU, float64(cpu.Nanoseconds())/1e3/ops)
		seg := res.lat[s*perSeg:]
		sort.Float64s(seg)
		segP50, segP90 = append(segP50, percentile(seg, 0.5)), append(segP90, percentile(seg, 0.9))
		res.wallTotal += wall
		res.cpuTotal += cpu
	}
	runtime.ReadMemStats(&ms1)
	res.snapshotGen = inst.snapshotGen() - gen0
	res.wallPerOp, res.cpuPerOp = lowerQuartile(res.segWall), lowerQuartile(segCPU)
	res.p50, res.p90 = lowerQuartile(segP50), lowerQuartile(segP90)
	res.allocs = float64(ms1.Mallocs-ms0.Mallocs) / float64(res.ops)
	res.allocBytes = float64(ms1.TotalAlloc-ms0.TotalAlloc) / float64(res.ops)
	res.gcCycles = ms1.NumGC - ms0.NumGC
	if res.cpuTotal > 0 {
		res.gcCPUShare = (gcCPUSeconds() - gc0) / res.cpuTotal.Seconds()
	}
	sort.Float64s(res.lat)
	return res
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func lowerQuartile(xs []float64) float64 { return quantile(xs, 0.25) }

func quantile(xs []float64, p float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return percentile(s, p)
}

// percentile interpolates linearly in a sorted sample.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	pos := p * float64(len(sorted)-1)
	lo := int(pos)
	if lo >= len(sorted)-1 {
		return sorted[len(sorted)-1]
	}
	return sorted[lo] + (pos-float64(lo))*(sorted[lo+1]-sorted[lo])
}

// heapMB is HeapAlloc after a forced collection.
func heapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// metric is one named measurement.
type metric struct {
	name  string
	value float64
	unit  string
}

// endToEndUnits and the per-layer list in layers.go are the program's
// own copy of the names in BENCHMARK.json; the smoke test holds the two
// together.
var endToEndUnits = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"wall_us_per_op", "us"},
	{"cpu_us_per_op", "us"},
	{"allocs_per_op", "count"},
	{"alloc_bytes_per_op", "bytes"},
	{"txn_p50_us", "us"},
	{"heap_mb", "MiB"},
}

func endToEndMetrics(setup time.Duration, p passResult, heap float64) []metric {
	vals := []float64{
		setup.Seconds(), p.wallPerOp, p.cpuPerOp, p.allocs, p.allocBytes,
		p.p50, heap,
	}
	out := make([]metric, len(vals))
	for i, u := range endToEndUnits {
		out[i] = metric{u.name, vals[i], u.unit}
	}
	return out
}
