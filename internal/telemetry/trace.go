package telemetry

import (
	"fmt"
	"net/netip"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Stage indexes one timestamp slot of a RouteTrace: the five points of
// a route's life from the peer-in decode to the forwarding snapshot
// publish. The set is deliberately flat — one int64 per stage — so a
// trace record is CSV-friendly and never allocates per stage.
type Stage int

const (
	// StagePeerIn: the UPDATE was decoded and the route entered the BGP
	// peer-in table.
	StagePeerIn Stage = iota
	// StageDecision: the decision process chose the route as a winner
	// and emitted it downstream.
	StageDecision
	// StageRIBIn: the route entered the RIB's stage network (origin
	// table load).
	StageRIBIn
	// StageFIBApply: the FEA applied the route to the forwarding
	// backend (kernel FIB), individually or in a batch.
	StageFIBApply
	// StageSnapPub: the immutable forwarding snapshot containing the
	// route was published (the atomic pointer flip data-plane workers
	// observe). This completes the trace.
	StageSnapPub

	// NumStages is the trace record width.
	NumStages
)

// StageNames are the CSV column / report row names, in pipeline order.
var StageNames = [NumStages]string{"peer_in", "decision", "rib_in", "fib_apply", "snap_pub"}

// RouteTrace is one sampled route's per-stage timestamps: flat, fixed
// width, one unix-nanosecond stamp per stage (0 = the route never
// reached that stage, e.g. a decision loser).
type RouteTrace struct {
	Net netip.Prefix
	T   [NumStages]int64
}

// CSVHeader is the header row for WriteCSV output.
const CSVHeader = "net,peer_in_ns,decision_ns,rib_in_ns,fib_apply_ns,snap_pub_ns"

// AppendCSV appends the trace as one CSV row (no trailing newline).
func (r *RouteTrace) AppendCSV(b []byte) []byte {
	b = append(b, r.Net.String()...)
	for _, t := range r.T {
		b = append(b, ',')
		b = fmt.Appendf(b, "%d", t)
	}
	return b
}

// maxOpen bounds the open-trace map; maxDone bounds retained completed
// traces. Past either bound new samples are dropped (and counted), so
// an unharvested tracer cannot grow without bound.
const (
	maxOpen = 1 << 16
	maxDone = 1 << 17
)

// Tracer collects sampled RouteTraces. The hot-path contract mirrors
// profiler.Point: callers check Enabled() — one nil check plus one
// atomic load, zero allocations — before calling Stamp, so a disabled
// tracer costs nothing. Stamps are safe from any goroutine: the
// pipeline's stages run on different event loops (BGP, RIB, FEA) and
// the snapshot publish on whichever goroutine applies the batch.
type Tracer struct {
	enabled atomic.Bool
	mask    atomic.Uint64 // sample a prefix iff hash&mask == 0

	origin Stage // stage that opens a trace (StagePeerIn by default)
	now    func() int64

	mu      sync.Mutex
	open    map[netip.Prefix]*RouteTrace
	done    []RouteTrace
	dropped uint64 // samples lost to the maxOpen/maxDone bounds
}

// NewTracer returns a disabled tracer sampling 1-in-64 prefixes whose
// traces open at StagePeerIn.
func NewTracer() *Tracer {
	t := &Tracer{
		origin: StagePeerIn,
		now:    func() int64 { return time.Now().UnixNano() },
		open:   make(map[netip.Prefix]*RouteTrace),
	}
	t.mask.Store((1 << 6) - 1)
	return t
}

// SetOrigin sets the stage that opens a trace (stamps for un-opened
// prefixes at other stages are ignored). The chaos harness traces the
// apply→publish tail only, so its traces open at StageFIBApply.
func (t *Tracer) SetOrigin(s Stage) { t.origin = s }

// SetSampleShift samples 1-in-2^k prefixes (k=0 traces every route).
func (t *Tracer) SetSampleShift(k uint) { t.mask.Store((1 << k) - 1) }

// SetNow overrides the timestamp source (tests).
func (t *Tracer) SetNow(now func() int64) { t.now = now }

// Enable starts collecting. Safe from any goroutine.
func (t *Tracer) Enable() { t.enabled.Store(true) }

// Disable stops collecting (records are kept for Take).
func (t *Tracer) Disable() { t.enabled.Store(false) }

// Enabled reports whether the tracer is collecting. Nil-safe: every
// trace point in the pipeline guards with `if tr.Enabled()`, so code
// without a tracer wired pays one nil check.
func (t *Tracer) Enabled() bool { return t != nil && t.enabled.Load() }

// sampled reports whether net falls in the sampled subset (FNV-1a over
// the address bytes and prefix length; no allocation).
func (t *Tracer) sampled(net netip.Prefix) bool {
	mask := t.mask.Load()
	if mask == 0 {
		return true
	}
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	a16 := net.Addr().As16()
	h := uint64(offset64)
	for _, b := range a16 {
		h = (h ^ uint64(b)) * prime64
	}
	h = (h ^ uint64(net.Bits())) * prime64
	return h&mask == 0
}

// Stamp records that net reached stage now. Only the origin stage
// opens a trace; later stages fill their slot (first stamp wins, so a
// re-announced prefix keeps its original trace) and StageSnapPub
// completes the record. Callers MUST guard with Enabled().
func (t *Tracer) Stamp(stage Stage, net netip.Prefix) {
	if !t.sampled(net) {
		return
	}
	ts := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	tr, ok := t.open[net]
	if !ok {
		if stage != t.origin {
			return
		}
		if len(t.open) >= maxOpen {
			t.dropped++
			return
		}
		tr = &RouteTrace{Net: net}
		tr.T[stage] = ts
		t.open[net] = tr
		return
	}
	if tr.T[stage] == 0 {
		tr.T[stage] = ts
	}
	if stage == StageSnapPub {
		delete(t.open, net)
		if len(t.done) >= maxDone {
			t.dropped++
			return
		}
		t.done = append(t.done, *tr)
	}
}

// StampBatch records a whole batch of prefixes reaching stage at one
// timestamp (the FIB-batch apply and snapshot-publish points, where
// the entire batch becomes visible at once). Like Stamp, the origin
// stage opens traces for sampled prefixes.
func (t *Tracer) StampBatch(stage Stage, nets func(yield func(netip.Prefix))) {
	ts := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	nets(func(net netip.Prefix) {
		tr, ok := t.open[net]
		if !ok {
			if stage != t.origin || !t.sampled(net) {
				return
			}
			if len(t.open) >= maxOpen {
				t.dropped++
				return
			}
			tr = &RouteTrace{Net: net}
			tr.T[stage] = ts
			t.open[net] = tr
			return
		}
		if tr.T[stage] == 0 {
			tr.T[stage] = ts
		}
		if stage == StageSnapPub {
			delete(t.open, net)
			if len(t.done) >= maxDone {
				t.dropped++
				return
			}
			t.done = append(t.done, *tr)
		}
	})
}

// Take returns the completed traces collected so far and resets the
// tracer's record store (open traces are kept in flight).
func (t *Tracer) Take() []RouteTrace {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := t.done
	t.done = nil
	return out
}

// Dropped returns how many samples were lost to the retention bounds.
func (t *Tracer) Dropped() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}

// WriteCSV renders traces as CSV (header + one row per trace).
func WriteCSV(traces []RouteTrace) string {
	var sb strings.Builder
	sb.WriteString(CSVHeader)
	sb.WriteByte('\n')
	buf := make([]byte, 0, 128)
	for i := range traces {
		buf = traces[i].AppendCSV(buf[:0])
		sb.Write(buf)
		sb.WriteByte('\n')
	}
	return sb.String()
}

// StageLatency is one row of a trace summary: the latency distribution
// of one stage transition (or the whole route life), in nanoseconds.
type StageLatency struct {
	Label         string
	Samples       int
	P50, P95, P99 float64
	Mean, Max     float64
}

// Summarize reduces traces to per-transition latency distributions:
// one row per adjacent stage pair (skipping traces that missed either
// endpoint) plus a total row from the earliest stamped stage to the
// snapshot publish.
func Summarize(traces []RouteTrace) []StageLatency {
	var rows []StageLatency
	for s := Stage(0); s < NumStages-1; s++ {
		var deltas []float64
		for i := range traces {
			a, b := traces[i].T[s], traces[i].T[s+1]
			if a > 0 && b > 0 {
				deltas = append(deltas, float64(b-a))
			}
		}
		if len(deltas) == 0 {
			continue
		}
		rows = append(rows, summarizeDeltas(StageNames[s]+" -> "+StageNames[s+1], deltas))
	}
	var totals []float64
	for i := range traces {
		end := traces[i].T[StageSnapPub]
		if end == 0 {
			continue
		}
		for _, start := range traces[i].T {
			if start > 0 {
				totals = append(totals, float64(end-start))
				break
			}
		}
	}
	if len(totals) > 0 {
		rows = append(rows, summarizeDeltas("total", totals))
	}
	return rows
}

func summarizeDeltas(label string, deltas []float64) StageLatency {
	sort.Float64s(deltas)
	var sum float64
	for _, d := range deltas {
		sum += d
	}
	return StageLatency{
		Label:   label,
		Samples: len(deltas),
		P50:     Percentile(deltas, 50),
		P95:     Percentile(deltas, 95),
		P99:     Percentile(deltas, 99),
		Mean:    sum / float64(len(deltas)),
		Max:     deltas[len(deltas)-1],
	}
}

// FormatSummary renders Summarize rows as a fixed-width table (µs).
func FormatSummary(rows []StageLatency) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-24s %8s %10s %10s %10s %10s %10s\n",
		"stage", "samples", "p50(µs)", "p95(µs)", "p99(µs)", "mean(µs)", "max(µs)")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-24s %8d %10.1f %10.1f %10.1f %10.1f %10.1f\n",
			r.Label, r.Samples, r.P50/1e3, r.P95/1e3, r.P99/1e3, r.Mean/1e3, r.Max/1e3)
	}
	return sb.String()
}
