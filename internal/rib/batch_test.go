package rib

import (
	"fmt"
	"math/rand"
	"net/netip"
	"slices"
	"testing"
	"time"

	"xorp/internal/eventloop"
	"xorp/internal/route"
)

// streamRec records the exact downstream Add/Replace/Delete stream a
// FIBClient sees, flattened across batch boundaries, so streams are
// directly comparable however the input was cut into runs.
type streamRec struct {
	ops []string
}

func (r *streamRec) FIBApplyBatch(b *FIBBatch) { replayBatch(b, r) }

func (r *streamRec) FIBAdd(e route.Entry) {
	r.ops = append(r.ops, fmt.Sprintf("add %v %v %s %d %v", e.Net, e.NextHop, e.IfName, e.Metric, e.Protocol))
}

func (r *streamRec) FIBReplace(old, new route.Entry) {
	r.ops = append(r.ops, fmt.Sprintf("replace %v->%v %v %s %d %v", old.NextHop, new.NextHop, new.Net, new.IfName, new.Metric, new.Protocol))
}

func (r *streamRec) FIBDelete(e route.Entry) {
	r.ops = append(r.ops, fmt.Sprintf("delete %v %v", e.Net, e.Protocol))
}

// batchOp is one scripted operation for the equivalence tests.
type batchOp struct {
	del   bool
	proto route.Protocol
	e     route.Entry
}

// maximalRuns cuts a script into the longest same-proto same-kind runs.
func maximalRuns(max int) int { return max }

// runScript drives ops through a fresh RIB and returns the FIB op stream
// and the final table. cut picks how many of the next max consecutive
// same-proto same-kind ops travel as one list call; a nil cut sends every
// op through the single-route entry points. closed forces every origin's
// batchGate shut.
func runScript(t *testing.T, ops []batchOp, cut func(max int) int, closed bool) (stream, table []string) {
	t.Helper()
	loop := eventloop.New(eventloop.NewSimClock(time.Unix(0, 0)))
	rec := &streamRec{}
	p := NewProcess(loop, rec, nil)
	if closed {
		for _, o := range p.origins {
			o.batchGate = func() bool { return false }
		}
	}
	apply := func(fn func()) {
		loop.Dispatch(fn)
		loop.RunPending()
	}
	for start := 0; start < len(ops); {
		if cut == nil {
			op := ops[start]
			start++
			apply(func() {
				if op.del {
					p.DeleteRoute(op.proto, op.e.Net)
				} else {
					p.AddRoute(op.proto, op.e)
				}
			})
			continue
		}
		end := start + 1
		for end < len(ops) && ops[end].proto == ops[start].proto && ops[end].del == ops[start].del {
			end++
		}
		run := ops[start : start+cut(end-start)]
		start += len(run)
		apply(func() {
			if run[0].del {
				nets := make([]netip.Prefix, len(run))
				for i := range run {
					nets[i] = run[i].e.Net
				}
				p.DeleteRoutes(run[0].proto, nets)
			} else {
				es := make([]route.Entry, len(run))
				for i := range run {
					es[i] = run[i].e
				}
				p.AddRoutes(run[0].proto, es)
			}
		})
	}
	walkFinal(p, func(e route.Entry) bool {
		table = append(table, fmt.Sprint(e))
		return true
	})
	return rec.ops, table
}

// walkFinal visits the RIB's final table in prefix order.
func walkFinal(p *Process, fn func(route.Entry) bool) {
	p.extint.Walk(fn)
}

func diffStreams(t *testing.T, what string, want, got []string) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: lengths differ: want %d, got %d\nwant: %v\ngot: %v", what, len(want), len(got), want, got)
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("%s: diverges at %d:\nwant: %s\ngot:  %s", what, i, want[i], got[i])
		}
	}
}

func checkSameStream(t *testing.T, ops []batchOp) {
	t.Helper()
	single, _ := runScript(t, ops, nil, false)
	batch, _ := runScript(t, ops, maximalRuns, false)
	diffStreams(t, "maximal runs vs single routes", single, batch)
}

// TestBatchMatchesSingleBasic covers the plain load case: many EBGP
// routes resolving through a static cover, plus IGP routes, duplicates
// (replace), metric changes and interleaved deletes.
func TestBatchMatchesSingleBasic(t *testing.T) {
	nh := mustA("172.16.0.9")
	var ops []batchOp
	ops = append(ops, batchOp{proto: route.ProtoStatic, e: route.Entry{
		Net: mustP("172.16.0.0/12"), NextHop: mustA("192.168.1.254"), IfName: "eth0"}})
	for i := 0; i < 40; i++ {
		net := netip.PrefixFrom(netip.AddrFrom4([4]byte{20, byte(i), 0, 0}), 16)
		ops = append(ops, batchOp{proto: route.ProtoEBGP, e: route.Entry{Net: net, NextHop: nh}})
	}
	// Duplicate adds: some identical (no emission), some with new metric
	// (replace).
	for i := 0; i < 40; i += 2 {
		net := netip.PrefixFrom(netip.AddrFrom4([4]byte{20, byte(i), 0, 0}), 16)
		e := route.Entry{Net: net, NextHop: nh}
		if i%4 == 0 {
			e.Metric = 7
		}
		ops = append(ops, batchOp{proto: route.ProtoEBGP, e: e})
	}
	// RIP routes over part of the same space (merge arbitration).
	for i := 0; i < 10; i++ {
		net := netip.PrefixFrom(netip.AddrFrom4([4]byte{20, byte(i), 0, 0}), 16)
		ops = append(ops, batchOp{proto: route.ProtoRIP, e: route.Entry{
			Net: net, NextHop: mustA("10.0.0.2"), IfName: "eth1", Metric: 3}})
	}
	// Delete a stretch of the EBGP routes.
	for i := 5; i < 25; i++ {
		net := netip.PrefixFrom(netip.AddrFrom4([4]byte{20, byte(i), 0, 0}), 16)
		ops = append(ops, batchOp{del: true, proto: route.ProtoEBGP, e: route.Entry{Net: net}})
	}
	checkSameStream(t, ops)
}

// TestBatchMatchesSingleResolution exercises the extint nexthop cache:
// internal routes arriving after external ones re-resolve them, and the
// batch path must emit the identical re-announcement stream.
func TestBatchMatchesSingleResolution(t *testing.T) {
	var ops []batchOp
	// External routes first: unresolvable until an IGP path appears.
	for i := 0; i < 12; i++ {
		net := netip.PrefixFrom(netip.AddrFrom4([4]byte{30, byte(i), 0, 0}), 16)
		ops = append(ops, batchOp{proto: route.ProtoIBGP, e: route.Entry{
			Net: net, NextHop: mustA("10.9.9.9")}})
	}
	// The IGP route that makes them resolvable, then one that changes the
	// resolution (more specific cover).
	ops = append(ops,
		batchOp{proto: route.ProtoRIP, e: route.Entry{
			Net: mustP("10.9.0.0/16"), NextHop: mustA("10.0.0.7"), IfName: "eth2", Metric: 2}},
		batchOp{proto: route.ProtoRIP, e: route.Entry{
			Net: mustP("10.9.9.0/24"), NextHop: mustA("10.0.0.8"), IfName: "eth3", Metric: 1}},
	)
	// Withdraw the specific cover: resolution falls back.
	ops = append(ops, batchOp{del: true, proto: route.ProtoRIP, e: route.Entry{Net: mustP("10.9.9.0/24")}})
	checkSameStream(t, ops)
}

// randomScript generates a script over a small prefix space behind a
// static cover. Protocol and kind are redrawn every op when burst is 1,
// and held for up to burst ops otherwise, which makes the runs longer.
func randomScript(r *rand.Rand, burst int) []batchOp {
	protos := []route.Protocol{route.ProtoStatic, route.ProtoRIP, route.ProtoOSPF, route.ProtoEBGP, route.ProtoIBGP}
	ops := []batchOp{{proto: route.ProtoStatic, e: route.Entry{
		Net: mustP("10.0.0.0/8"), NextHop: mustA("192.168.1.254"), IfName: "eth0"}}}
	var proto route.Protocol
	var del bool
	hold := 0
	for i := 0; i < 150; i++ {
		net := netip.PrefixFrom(netip.AddrFrom4([4]byte{byte(20 + r.Intn(4)), byte(r.Intn(8)), 0, 0}), 16)
		if hold == 0 {
			proto = protos[r.Intn(len(protos))]
			del = r.Intn(4) == 0
			if burst > 1 {
				hold = r.Intn(burst)
			}
		} else {
			hold--
		}
		if del {
			ops = append(ops, batchOp{del: true, proto: proto, e: route.Entry{Net: net}})
			continue
		}
		e := route.Entry{Net: net, Metric: uint32(r.Intn(3))}
		switch r.Intn(3) {
		case 0:
			e.NextHop = mustA("10.0.0.9") // resolvable via the static /8
		case 1:
			e.NextHop = mustA("172.31.0.9") // unresolvable
		default:
			e.IfName = "eth1" // concrete
		}
		ops = append(ops, batchOp{proto: proto, e: e})
	}
	return ops
}

// TestBatchMatchesSingleRandom drives randomized scripts through both
// paths — the property-test version of the oracle.
func TestBatchMatchesSingleRandom(t *testing.T) {
	for trial := 0; trial < 10; trial++ {
		checkSameStream(t, randomScript(rand.New(rand.NewSource(int64(trial))), 1))
	}
}

// TestSegmentationInvariant is the oracle stated as the property it always
// meant: one script, cut into runs at different places — all singletons,
// lists of one, maximal runs, random cuts in between — and with the
// batchGate left to itself or forced shut, yields the identical FIB op
// stream and the identical final table.
func TestSegmentationInvariant(t *testing.T) {
	for trial := 0; trial < 8; trial++ {
		ops := randomScript(rand.New(rand.NewSource(int64(1000+trial))), 1+7*(trial%2))
		wantStream, wantTable := runScript(t, ops, nil, false)
		r := rand.New(rand.NewSource(int64(trial)))
		cuts := []struct {
			name string
			cut  func(max int) int
		}{
			{"singletons", nil},
			{"lists of one", func(int) int { return 1 }},
			{"maximal runs", maximalRuns},
			{"random cuts", func(max int) int { return 1 + r.Intn(max) }},
		}
		for _, c := range cuts {
			for _, closed := range []bool{false, true} {
				what := fmt.Sprintf("trial %d, %s, gate forced shut=%v", trial, c.name, closed)
				stream, table := runScript(t, ops, c.cut, closed)
				diffStreams(t, what+": FIB stream", wantStream, stream)
				diffStreams(t, what+": final table", wantTable, table)
			}
		}
	}
}

// ---------------------------------------------------------------------
// FIBBatch order.
// ---------------------------------------------------------------------

func fe(s string, nh string) route.Entry {
	e := route.Entry{Net: mustP(s)}
	if nh != "" {
		e.NextHop = mustA(nh)
	}
	return e
}

func collectOps(b *FIBBatch) []string {
	var out []string
	b.Ops(func(op FIBOp) {
		switch op.Kind {
		case FIBOpAdd:
			out = append(out, "add "+op.New.Net.String()+" "+op.New.NextHop.String())
		case FIBOpReplace:
			out = append(out, "replace "+op.New.Net.String()+" "+op.Old.NextHop.String()+"->"+op.New.NextHop.String())
		case FIBOpDelete:
			out = append(out, "delete "+op.Old.Net.String()+" "+op.Old.NextHop.String())
		}
	})
	return out
}

// TestFIBBatchKeepsArrivalOrder: a batch is its ops as they arrived. A
// prefix written twice is two ops and a Replace keeps its old side; Len
// counts every op, Ops, Nets and At visit them in order, and Reset empties
// the batch.
func TestFIBBatchKeepsArrivalOrder(t *testing.T) {
	b := NewFIBBatch()
	b.Add(fe("10.0.0.0/8", "1.1.1.1"))
	b.Delete(fe("10.0.0.0/8", "1.1.1.1"))
	b.Delete(fe("20.0.0.0/8", "2.2.2.2"))
	b.Add(fe("20.0.0.0/8", "3.3.3.3"))
	b.Replace(fe("20.0.0.0/8", "3.3.3.3"), fe("20.0.0.0/8", "4.4.4.4"))
	b.Add(fe("30.0.0.0/8", "5.5.5.5"))
	want := []string{
		"add 10.0.0.0/8 1.1.1.1",
		"delete 10.0.0.0/8 1.1.1.1",
		"delete 20.0.0.0/8 2.2.2.2",
		"add 20.0.0.0/8 3.3.3.3",
		"replace 20.0.0.0/8 3.3.3.3->4.4.4.4",
		"add 30.0.0.0/8 5.5.5.5",
	}
	if got := collectOps(b); !slices.Equal(got, want) {
		t.Fatalf("Ops = %v, want %v", got, want)
	}
	if b.Len() != len(want) {
		t.Fatalf("Len = %d, want %d", b.Len(), len(want))
	}
	var nets []string
	b.Nets(func(net netip.Prefix, del bool) { nets = append(nets, fmt.Sprint(net, del)) })
	var at []string
	for i := 0; i < b.Len(); i++ {
		e, del := b.At(i)
		at = append(at, fmt.Sprint(e.Net, del, e.NextHop))
	}
	wantNets := []string{"10.0.0.0/8 false", "10.0.0.0/8 true", "20.0.0.0/8 true", "20.0.0.0/8 false", "20.0.0.0/8 false", "30.0.0.0/8 false"}
	wantAt := []string{"10.0.0.0/8 false 1.1.1.1", "10.0.0.0/8 true 1.1.1.1", "20.0.0.0/8 true 2.2.2.2", "20.0.0.0/8 false 3.3.3.3", "20.0.0.0/8 false 4.4.4.4", "30.0.0.0/8 false 5.5.5.5"}
	if !slices.Equal(nets, wantNets) {
		t.Errorf("Nets = %v, want %v", nets, wantNets)
	}
	if !slices.Equal(at, wantAt) {
		t.Errorf("At = %v, want %v", at, wantAt)
	}
	b.Reset()
	if b.Len() != 0 || collectOps(b) != nil {
		t.Fatal("Reset left ops behind")
	}
}

// ---------------------------------------------------------------------
// Hot-path allocation regression.
// ---------------------------------------------------------------------

// TestAddRouteAllocs pins the allocs per add+delete cycle through the
// full stage network with profiling points disabled. The seed paid ~8
// extra allocations per cycle boxing profiler Logf arguments that were
// then discarded; the Enabled() guards must keep that at zero, and the
// tables' node blocks and free lists keep node allocation amortized.
func TestAddRouteAllocs(t *testing.T) {
	loop := eventloop.New(eventloop.NewSimClock(time.Unix(0, 0)))
	p := NewProcess(loop, nil, nil)
	var setupErr error
	loop.Dispatch(func() {
		for i := 0; i < 10000; i++ {
			net := netip.PrefixFrom(netip.AddrFrom4([4]byte{byte(1 + i%200), byte(i >> 8), byte(i), 0}), 24)
			if err := p.AddRoute(route.ProtoStatic, route.Entry{
				Net: net, NextHop: netip.AddrFrom4([4]byte{10, 0, 0, 1}), IfName: "eth0",
			}); err != nil {
				setupErr = err
			}
		}
	})
	loop.RunPending()
	if setupErr != nil {
		t.Fatal(setupErr)
	}
	net := mustP("10.200.1.0/24")
	e := route.Entry{Net: net, NextHop: netip.AddrFrom4([4]byte{10, 0, 0, 1}), IfName: "eth0"}
	var runErr error
	allocs := testing.AllocsPerRun(200, func() {
		loop.Dispatch(func() {
			if err := p.AddRoute(route.ProtoRIP, e); err != nil {
				runErr = err
			}
			if err := p.DeleteRoute(route.ProtoRIP, net); err != nil {
				runErr = err
			}
		})
		loop.RunPending()
	})
	if runErr != nil {
		t.Fatal(runErr)
	}
	// The cycle's own work (loop dispatch closures, map churn) allows a
	// small constant; the seed's Logf boxing alone added ~8 on top.
	const limit = 6
	if allocs > limit {
		t.Fatalf("add+delete cycle allocates %.1f/op, limit %d", allocs, limit)
	}
}

// TestRunOfOneAllocs pins the trap ROADMAP item 3 warns about: a list of
// one must cost no more than the single-route entry points, and neither
// more than the parent's per-route path did (3, with a nil FIB client and
// one static cover) — the stage scratch is owned by the stages, not
// allocated per call.
func TestRunOfOneAllocs(t *testing.T) {
	loop := eventloop.New(eventloop.NewSimClock(time.Unix(0, 0)))
	p := NewProcess(loop, nil, nil)
	if err := p.AddRoute(route.ProtoStatic, route.Entry{
		Net: mustP("10.0.0.0/8"), NextHop: mustA("192.168.1.254"), IfName: "eth0"}); err != nil {
		t.Fatal(err)
	}
	e := route.Entry{Net: mustP("20.1.0.0/16"), NextHop: mustA("10.0.0.9")}
	es, nets := []route.Entry{e}, []netip.Prefix{e.Net}
	var runErr error
	note := func(err error) {
		if err != nil {
			runErr = err
		}
	}
	single := testing.AllocsPerRun(200, func() {
		note(p.AddRoute(route.ProtoEBGP, e))
		note(p.DeleteRoute(route.ProtoEBGP, e.Net))
	})
	list := testing.AllocsPerRun(200, func() {
		note(p.AddRoutes(route.ProtoEBGP, es))
		note(p.DeleteRoutes(route.ProtoEBGP, nets))
	})
	if runErr != nil {
		t.Fatal(runErr)
	}
	const limit = 3
	if list > single || single > limit {
		t.Fatalf("add+delete of one prefix: single %.1f allocs, list of one %.1f; want list <= single <= %d",
			single, list, limit)
	}
}

// ---------------------------------------------------------------------
// Synchronous re-entry from a client callback.
// ---------------------------------------------------------------------

// reentrant is a FIBClient and a Redistributor that, once, calls back into
// the RIB for another prefix from inside its callback — what an in-process
// client on the same loop can do. The stages' scratch is detached while in
// use, so the run and the batch in flight must come through unharmed.
type reentrant struct {
	streamRec
	t     *testing.T
	p     *Process
	extra route.Entry
	fired bool
}

func (r *reentrant) reenter() {
	if r.fired {
		return
	}
	r.fired = true
	if err := r.p.AddRoute(route.ProtoEBGP, r.extra); err != nil {
		r.t.Error(err)
	}
}

func (r *reentrant) FIBApplyBatch(b *FIBBatch) {
	before := collectOps(b)
	r.reenter()
	if after := collectOps(b); fmt.Sprint(after) != fmt.Sprint(before) {
		r.t.Errorf("batch in flight changed under re-entry:\nbefore: %v\nafter:  %v", before, after)
	}
	r.streamRec.FIBApplyBatch(b)
}

func (r *reentrant) RedistAdd(route.Entry)    { r.reenter() }
func (r *reentrant) RedistDelete(route.Entry) {}

func TestReentrantClients(t *testing.T) {
	run := make([]route.Entry, 5)
	for i := range run {
		run[i] = route.Entry{Net: netip.PrefixFrom(netip.AddrFrom4([4]byte{30, byte(i), 0, 0}), 16), NextHop: mustA("10.0.0.9")}
	}
	extra := route.Entry{Net: mustP("40.0.0.0/16"), NextHop: mustA("10.0.0.9")}
	for _, via := range []string{"fib client", "redistributor"} {
		t.Run(via, func(t *testing.T) {
			loop := eventloop.New(eventloop.NewSimClock(time.Unix(0, 0)))
			r := &reentrant{t: t, extra: extra, fired: true} // armed once set up
			p := NewProcess(loop, r, nil)
			if err := p.AddRoute(route.ProtoStatic, route.Entry{
				Net: mustP("10.0.0.0/8"), NextHop: mustA("192.168.1.254"), IfName: "eth0"}); err != nil {
				t.Fatal(err)
			}
			if via == "redistributor" {
				// The redist stage sits ahead of the FIB sink, so its
				// callback is the one that fires.
				if _, err := p.AddRedist("re", "", nil, r); err != nil {
					t.Fatal(err)
				}
			}
			// Warm the stages' scratch past the run's length: a buffer that
			// still had to grow would hide a shared one.
			warm := make([]route.Entry, 8)
			nets := make([]netip.Prefix, len(warm))
			for i := range warm {
				nets[i] = netip.PrefixFrom(netip.AddrFrom4([4]byte{50, byte(i), 0, 0}), 16)
				warm[i] = route.Entry{Net: nets[i], NextHop: mustA("10.0.0.9")}
			}
			if err := p.AddRoutes(route.ProtoEBGP, warm); err != nil {
				t.Fatal(err)
			}
			if err := p.DeleteRoutes(route.ProtoEBGP, nets); err != nil {
				t.Fatal(err)
			}
			r.ops, r.fired, r.p = nil, false, p
			if err := p.AddRoutes(route.ProtoEBGP, run); err != nil {
				t.Fatal(err)
			}
			// The FIB saw each of the six routes added exactly once, resolved.
			seen := map[string]int{}
			for _, op := range r.ops {
				seen[op]++
			}
			for _, e := range append([]route.Entry{extra}, run...) {
				want := fmt.Sprintf("add %v 192.168.1.254 eth0 0 ebgp", e.Net)
				if seen[want] != 1 {
					t.Errorf("FIB saw %q %d times, want once; stream: %v", want, seen[want], r.ops)
				}
				if got, ok := p.LookupBest(e.Net.Addr()); !ok || got.Net != e.Net {
					t.Errorf("%v not installed (best %v, %v)", e.Net, got, ok)
				}
			}
			if len(r.ops) != len(run)+1 {
				t.Errorf("FIB saw %d ops, want %d: %v", len(r.ops), len(run)+1, r.ops)
			}
		})
	}
}
