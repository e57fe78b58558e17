package telemetry

import (
	"net/netip"
	"runtime"
	"strings"
	"testing"
)

// testTracer returns a tracer with every stage on and a deterministic
// monotonic clock.
func testTracer() (*Tracer, *int64) {
	tr := NewTracer()
	var clock int64
	tr.SetNow(func() int64 { clock++; return clock })
	tr.Enable()
	return tr, &clock
}

func pfx(s string) netip.Prefix { return netip.MustParsePrefix(s) }

// view is the profile/0.1 rendering of tr.
func view(tr *Tracer) ProfileView { return func() *Tracer { return tr } }

// TestTracerLifecycle walks one route through every stage and checks
// ordering and completion; a repeated stage is a new pass of the route.
func TestTracerLifecycle(t *testing.T) {
	tr, _ := testTracer()
	net := pfx("10.1.0.0/16")

	for s := StagePeerIn; s < NumStages; s++ {
		tr.Stamp(s, net)
	}
	// A re-announce after completion opens a fresh trace.
	tr.Stamp(StagePeerIn, net)

	traces := tr.Take()
	if len(traces) != 1 {
		t.Fatalf("got %d closed traces, want 1", len(traces))
	}
	got := traces[0]
	if got.Net != net || got.Del != 0 {
		t.Fatalf("trace net %v del %b", got.Net, got.Del)
	}
	for s := Stage(1); s < NumStages; s++ {
		if got.T[s] <= got.T[s-1] {
			t.Fatalf("stage %s stamp %d not after %s stamp %d", s, got.T[s], s-1, got.T[s-1])
		}
	}

	// A repeated decision stamp closes the first pass and opens a second,
	// which the publish completes.
	tr2, _ := testTracer()
	tr2.Stamp(StagePeerIn, net)
	tr2.Stamp(StageDecision, net)
	tr2.Stamp(StageDecision, net)
	tr2.Stamp(StageSnapPub, net)
	tc := tr2.Take()
	if len(tc) != 2 || tc[0].T[StageDecision] != 2 || tc[0].T[StageSnapPub] != 0 ||
		tc[1].T[StageDecision] != 3 || tc[1].T[StageSnapPub] != 4 {
		t.Fatalf("repeated stage: %+v", tc)
	}
}

// TestTraceNeverSpansTwoAnnouncements: a route that never reaches the
// publish (a decision loser, a withdrawal before publish) leaves its trace
// open; the prefix's next announcement must not complete it.
func TestTraceNeverSpansTwoAnnouncements(t *testing.T) {
	tr := NewTracer()
	clock := []int64{1, 1e9, 1e9 + 4}
	tr.SetNow(func() int64 { ts := clock[0]; clock = clock[1:]; return ts })
	tr.Enable()
	net := pfx("10.7.0.0/16")
	tr.Stamp(StagePeerIn, net)
	tr.Stamp(StagePeerIn, net)
	tr.Stamp(StageSnapPub, net)
	rows := Summarize(tr.Take())
	total := rows[len(rows)-1]
	if total.Label != "total" || total.Samples != 1 || total.Max != 4 {
		t.Fatalf("total %+v, want one sample of 4 ns", total)
	}
}

// TestTracerOrigin pins that a trace opens at whichever stage first sees
// the prefix: a static route traces from the RIB, the FEA of a separate
// process from its arrival.
func TestTracerOrigin(t *testing.T) {
	tr, _ := testTracer()
	static := pfx("10.2.0.0/16")
	tr.Stamp(StageRIBIn, static)
	tr.Stamp(StageFIBApply, static)
	tr.Stamp(StageSnapPub, static)

	fea := NewTracer()
	view(fea).ProfileEnable("route_arrive_fea")
	view(fea).ProfileEnable("route_snap_pub")
	net := pfx("10.3.0.0/16")
	fea.Stamp(StageArriveFEA, net)
	fea.Stamp(StageSnapPub, net)

	for _, c := range []struct {
		tr    *Tracer
		first Stage
	}{{tr, StageRIBIn}, {fea, StageArriveFEA}} {
		traces := c.tr.Take()
		if len(traces) != 1 {
			t.Fatalf("%d traces, want 1", len(traces))
		}
		for s := Stage(0); s < c.first; s++ {
			if traces[0].T[s] != 0 {
				t.Fatalf("stage %s stamped before the first one: %v", s, traces[0].T)
			}
		}
		if traces[0].T[c.first] == 0 || traces[0].T[StageSnapPub] == 0 {
			t.Fatalf("trace from %s stamps %v", c.first, traces[0].T)
		}
	}
}

// TestTracerStampBatch checks batch stamping shares one timestamp per
// batch and keeps each op's verb.
func TestTracerStampBatch(t *testing.T) {
	tr, _ := testTracer()
	nets := []netip.Prefix{pfx("10.4.0.0/16"), pfx("10.5.0.0/16"), pfx("10.6.0.0/16")}
	ops := func(yield func(netip.Prefix, bool)) {
		for i, n := range nets {
			yield(n, i == 2)
		}
	}
	tr.StampBatch(StageFIBApply, ops)
	tr.StampBatch(StageSnapPub, ops)
	traces := tr.Take()
	if len(traces) != len(nets) {
		t.Fatalf("completed %d/%d batch traces", len(traces), len(nets))
	}
	for i, x := range traces {
		if x.T[StageFIBApply] != 1 || x.T[StageSnapPub] != 2 {
			t.Fatalf("batch stamps not shared: %v", x.T)
		}
		if wantDel := i == 2; (x.Del != 0) != wantDel {
			t.Fatalf("%v: del bits %b", x.Net, x.Del)
		}
	}
}

// TestTracerDisabled pins that On and Enabled are nil-safe and that each
// stage switches alone.
func TestTracerDisabled(t *testing.T) {
	var nilTracer *Tracer
	if nilTracer.Enabled() || nilTracer.On(StagePeerIn) {
		t.Fatal("nil tracer enabled")
	}
	tr := NewTracer()
	if tr.Enabled() {
		t.Fatal("fresh tracer enabled")
	}
	view(tr).ProfileEnable("route_arrive_rib")
	if !tr.Enabled() || !tr.On(StageRIBIn) || tr.On(StagePeerIn) {
		t.Fatal("one point switched on did not switch on exactly its stage")
	}
	view(tr).ProfileDisable("route_arrive_rib")
	if tr.Enabled() {
		t.Fatal("disable did not take")
	}
	tr.Enable()
	for s := Stage(0); s < NumStages; s++ {
		if !tr.On(s) {
			t.Fatalf("Enable left %s off", s)
		}
	}
}

// TestDisabledStageIsFree pins the §8.2 contract on the one guard: a
// disabled stage costs no allocation and records nothing.
func TestDisabledStageIsFree(t *testing.T) {
	tr := NewTracer()
	net := pfx("10.0.1.0/24")
	allocs := testing.AllocsPerRun(100, func() {
		if tr.On(StagePeerIn) {
			tr.Stamp(StagePeerIn, net)
		}
	})
	if entries, _ := view(tr).ProfileEntries("route_ribin"); allocs != 0 || len(entries) != 0 {
		t.Fatalf("disabled stage: %.1f allocations, %d records", allocs, len(entries))
	}
}

// TestEnableRecordClear pins the paper's record format and the
// enable/disable/clear cycle of one point.
func TestEnableRecordClear(t *testing.T) {
	tr := NewTracer()
	tr.SetNow(func() int64 { return 1097173928_664085_000 })
	v := view(tr)
	if err := v.ProfileEnable("route_ribin"); err != nil {
		t.Fatal(err)
	}
	tr.Stamp(StagePeerIn, pfx("10.0.1.0/24"))
	recs, _ := v.ProfileEntries("route_ribin")
	if len(recs) != 1 || recs[0] != "route_ribin 1097173928 664085 add 10.0.1.0/24" {
		t.Fatalf("records %q", recs)
	}
	v.ProfileDisable("route_ribin")
	if tr.On(StagePeerIn) {
		tr.Stamp(StagePeerIn, pfx("10.0.2.0/24"))
	}
	if recs, _ := v.ProfileEntries("route_ribin"); len(recs) != 1 {
		t.Fatal("disabled point kept recording")
	}
	v.ProfileClear("route_ribin")
	if recs, _ := v.ProfileEntries("route_ribin"); len(recs) != 0 {
		t.Fatal("clear failed")
	}
	if err := v.ProfileEnable("no_such_point"); err == nil {
		t.Fatal("unknown point accepted")
	}
}

// TestListAndEnableAll: list names every stage in pipeline order, and
// Enable switches them all on.
func TestListAndEnableAll(t *testing.T) {
	names, _ := view(nil).ProfileList()
	got := strings.Fields(names)
	if len(got) != int(NumStages) || got[0] != "route_ribin" || got[StageFIBApply] != "route_enter_kernel" {
		t.Fatalf("list %q", names)
	}
	tr := NewTracer()
	tr.Enable()
	for s := Stage(0); s < NumStages; s++ {
		if !tr.On(s) || s.String() != got[s] {
			t.Fatalf("stage %d: on %v, name %q", s, tr.On(s), s)
		}
	}
}

// TestTracerBounded pushes more routes than the open bound through one
// switched-on point: the heap stays flat, every excess route is counted
// as dropped, and the first routes' records are still served.
func TestTracerBounded(t *testing.T) {
	tr := NewTracer()
	view(tr).ProfileEnable("route_ribin")
	nth := func(i int) netip.Prefix {
		return netip.PrefixFrom(netip.AddrFrom4([4]byte{10, byte(i >> 16), byte(i >> 8), byte(i)}), 32)
	}
	heap := func() uint64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	for i := 0; i < maxOpen; i++ {
		tr.Stamp(StagePeerIn, nth(i))
	}
	full := heap()
	const excess = 3 * maxOpen
	for i := maxOpen; i < maxOpen+excess; i++ {
		tr.Stamp(StagePeerIn, nth(i))
	}
	if grown := int64(heap()) - int64(full); grown > 64<<10 {
		t.Errorf("heap grew %d bytes past the bound", grown)
	}
	if tr.Dropped() != excess {
		t.Errorf("dropped %d, want %d", tr.Dropped(), excess)
	}
	recs, _ := view(tr).ProfileEntries("route_ribin")
	if len(recs) != maxOpen || !strings.HasSuffix(recs[0], " add 10.0.0.0/32") {
		t.Fatalf("%d records, first %q", len(recs), recs[0])
	}
}

// TestSummarize pins the per-transition summary on a hand-built set.
func TestSummarize(t *testing.T) {
	mk := func(stamps ...int64) RouteTrace {
		var r RouteTrace
		r.Net = pfx("10.9.0.0/16")
		copy(r.T[:], stamps)
		return r
	}
	rows := Summarize([]RouteTrace{
		mk(10, 20, 40, 70, 110, 120, 130, 140, 150, 160),  // deltas 10,20,30,40,10×5; total 150
		mk(10, 30, 60, 100, 150, 160, 170, 180, 190, 200), // deltas 20,30,40,50,10×5; total 190
	})
	if len(rows) != int(NumStages) {
		t.Fatalf("%d rows, want %d", len(rows), NumStages)
	}
	if rows[0].Label != "route_ribin -> route_decision" || rows[0].Mean != 15 {
		t.Fatalf("row0 %+v", rows[0])
	}
	total := rows[len(rows)-1]
	if total.Label != "total" || total.Mean != 170 || total.Max != 190 {
		t.Fatalf("total %+v", total)
	}

	// A trace missing an endpoint is skipped for that transition only.
	rows = Summarize([]RouteTrace{mk(10, 0, 40, 70, 110, 120, 130, 140, 150, 160)})
	for _, r := range rows {
		if strings.Contains(r.Label, "route_decision") {
			t.Fatalf("transition with missing endpoint summarized: %+v", r)
		}
	}

	out := FormatSummary(rows)
	if !strings.Contains(out, "total") || !strings.Contains(out, "p95") {
		t.Fatalf("format:\n%s", out)
	}
}
