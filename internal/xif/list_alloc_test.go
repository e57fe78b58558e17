package xif_test

import (
	"net/netip"
	"reflect"
	"sync"
	"testing"
	"time"

	"xorp/internal/eventloop"
	"xorp/internal/finder"
	"xorp/internal/rib"
	"xorp/internal/route"
	"xorp/internal/xif"
	"xorp/internal/xipc"
	"xorp/internal/xrl"
)

// Tests of the list XRLs (add_routes4, delete_routes4, add_entries4,
// delete_entries4) across the hop, the only form a run of routes takes,
// whatever its length: the stub builds a run's atoms in the call record,
// and the binding decodes them into scratch it reuses. Both ends allocate
// nothing in steady state, and neither lets a run see another's routes.

// stubRig is a sender Router and a sink Router on one Hub and one loop,
// resolved through a real Finder: the intra-process hop a stub call takes
// between the protocols, the RIB and the FEA.
type stubRig struct {
	loop *eventloop.Loop
	rib  *xif.RIBClient
	fti  *xif.FTIClient
	sink *xipc.Router
}

// The sink's targets.
var sinkTargets = []string{"rib", "fea"}

// newHubRig builds the rig; bind gives sink target st (an index into
// sinkTargets) its methods, served on loop.
func newHubRig(tb testing.TB, bind func(loop *eventloop.Loop, st int, t *xipc.Target)) *stubRig {
	tb.Helper()
	g := &stubRig{loop: eventloop.New(eventloop.NewSimClock(time.Unix(0, 0)))}
	hub := xipc.NewHub()
	f := finder.New(g.loop)
	f.AttachHub(hub)
	g.sink = xipc.NewRouter("sink_process", g.loop)
	g.sink.AttachHub(hub)
	for i, name := range sinkTargets {
		t := xipc.NewTarget(name, name)
		bind(g.loop, i, t)
		g.sink.AddTarget(t)
		var regErr error
		finder.RegisterTarget(g.sink, t, true, func(err error) { regErr = err })
		g.loop.RunPending()
		if regErr != nil {
			tb.Fatalf("register %s: %v", name, regErr)
		}
	}
	send := xipc.NewRouter("sender_process", g.loop)
	send.AttachHub(hub)
	g.rib, g.fti = xif.NewRIBClient(send, "rib"), xif.NewFTIClient(send, "fea")
	return g
}

// copyServer is the RIB and the FEA as the list bindings see them: it
// keeps what a call hands it by copying it into tables of its own.
type copyServer struct {
	confServer
	rib, fib map[netip.Prefix]route.Entry
	calls    int
}

func newCopyServer() *copyServer {
	return &copyServer{rib: make(map[netip.Prefix]route.Entry), fib: make(map[netip.Prefix]route.Entry)}
}

func (s *copyServer) AddRoutes4(_ route.Protocol, es []route.Entry) error {
	s.calls++
	for _, e := range es {
		s.rib[e.Net] = e
	}
	return nil
}

func (s *copyServer) DeleteRoutes4(_ route.Protocol, nets []netip.Prefix) error {
	s.calls++
	for _, n := range nets {
		delete(s.rib, n)
	}
	return nil
}

func (s *copyServer) AddEntries4(es []route.Entry) error {
	s.calls++
	for _, e := range es {
		s.fib[e.Net] = e
	}
	return nil
}

func (s *copyServer) DeleteEntries4(nets []netip.Prefix) error {
	s.calls++
	for _, n := range nets {
		delete(s.fib, n)
	}
	return nil
}

// newListRig is the hub rig with the real bindings serving srv.
func newListRig(tb testing.TB, srv *copyServer) *stubRig {
	return newHubRig(tb, func(_ *eventloop.Loop, st int, t *xipc.Target) {
		if st == 0 {
			xif.BindRIB(t, srv)
		} else {
			xif.BindFTI(t, srv)
		}
	})
}

// batch is n routes for batch k, each with a next hop, every other one
// with an interface name.
func batch(k, n int) []route.Entry {
	es := make([]route.Entry, n)
	for i := range es {
		es[i] = route.Entry{
			Net:     netip.PrefixFrom(netip.AddrFrom4([4]byte{10, byte(k), byte(i), 0}), 24),
			NextHop: netip.AddrFrom4([4]byte{192, 0, 2, byte(k + i)}),
			Metric:  uint32(k*1000 + i),
		}
		if i%2 == 0 {
			es[i].IfName = "eth0"
		}
	}
	return es
}

func netsOf(es []route.Entry) []netip.Prefix {
	nets := make([]netip.Prefix, len(es))
	for i := range es {
		nets[i] = es[i].Net
	}
	return nets
}

// listCall is one list stub call: the run it adds to the server's RIB or
// FIB table, or (del) withdraws from it.
type listCall struct {
	name string
	send func()
	fib  bool
	del  bool
	run  []route.Entry
}

// listCalls are the four list stub calls with a 256-route batch, then
// the runs of one.
func (g *stubRig) listCalls() []listCall {
	return append(g.batchCalls(), g.oneCalls()...)
}

// batchCalls are the four list stub calls with a 256-route batch.
func (g *stubRig) batchCalls() []listCall {
	es := batch(1, 256)
	nets := netsOf(es)
	return []listCall{
		{"RIBClient.AddRoutes4 256", func() { g.rib.AddRoutes4("ebgp", es, nil) }, false, false, es},
		{"RIBClient.DeleteRoutes4 256", func() { g.rib.DeleteRoutes4("ebgp", nets, nil) }, false, true, es},
		{"FTIClient.AddEntries4 256", func() { g.fti.AddEntries4(es, nil) }, true, false, es},
		{"FTIClient.DeleteEntries4 256", func() { g.fti.DeleteEntries4(nets, nil) }, true, true, es},
	}
}

// oneCalls are the list stub calls with runs of one: the route with and
// without its optional next hop, interface name, metric and tags.
func (g *stubRig) oneCalls() []listCall {
	var calls []listCall
	net := netip.MustParsePrefix("20.1.0.0/16")
	nh := netip.MustParseAddr("10.0.0.1")
	runs := map[string][]route.Entry{
		"bare":      {{Net: net, Metric: 5}},
		"nexthop":   {{Net: net, NextHop: nh, Metric: 5}},
		"full":      {{Net: net, NextHop: nh, Metric: 5, IfName: "eth0"}},
		"tagged":    {{Net: net, NextHop: nh, Metric: 5, IfName: "eth0", PolicyTags: []uint32{7, 9}}},
		"no metric": {{Net: net, NextHop: nh, IfName: "eth0"}},
	}
	for _, k := range []string{"bare", "nexthop", "full", "tagged"} {
		run := runs[k]
		calls = append(calls, listCall{"RIBClient.AddRoutes4 1 " + k, func() { g.rib.AddRoutes4("ebgp", run, nil) }, false, false, run})
	}
	one := runs["bare"]
	oneNet := netsOf(one)
	calls = append(calls, listCall{"RIBClient.DeleteRoutes4 1", func() { g.rib.DeleteRoutes4("ebgp", oneNet, nil) }, false, true, one})
	for _, k := range []string{"full", "no metric"} {
		run := runs[k]
		calls = append(calls, listCall{"FTIClient.AddEntries4 1 " + k, func() { g.fti.AddEntries4(run, nil) }, true, false, run})
	}
	calls = append(calls, listCall{"FTIClient.DeleteEntries4 1", func() { g.fti.DeleteEntries4(oneNet, nil) }, true, true, one})
	return calls
}

// A list call allocates nothing in steady state, from the stub through
// the binding and the server to the reply: the stub builds the atoms in
// the call record's item buffer, which the Router keeps, and the binding
// decodes them into scratch of its own.
func TestListStubsAllocateNothing(t *testing.T) {
	srv := newCopyServer()
	g := newListRig(t, srv)
	checkNoAllocs(t, g, srv, g.batchCalls())
}

// A run of one is a list of one and costs what a batch does: nothing in
// steady state, through the same real bindings. A tagged route's
// policytags list is built in the record's item buffer too, and the
// binding hands the server the list the previous call carried when the
// tags are the same.
func TestSingleRouteStubsAllocateNothing(t *testing.T) {
	srv := newCopyServer()
	g := newListRig(t, srv)
	checkNoAllocs(t, g, srv, g.oneCalls())
}

// checkNoAllocs sends each call until it is cached, then asserts it
// allocates nothing per round and leaves the server holding (or no
// longer holding) exactly the run it sent.
func checkNoAllocs(t *testing.T, g *stubRig, srv *copyServer, calls []listCall) {
	t.Helper()
	for _, c := range calls {
		round := func() {
			c.send()
			g.loop.RunPending()
		}
		round() // resolves through the Finder and caches
		if got := testing.AllocsPerRun(100, round); got != 0 {
			t.Errorf("%s: %.2f allocations per call, want 0", c.name, got)
		}
		table := srv.rib
		if c.fib {
			table = srv.fib
		}
		for _, e := range c.run {
			if got, ok := table[e.Net]; ok == c.del || ok && !got.Equal(e) {
				t.Fatalf("%s: sent %+v, the server holds %+v (held %v)", c.name, e, got, ok)
			}
		}
	}
	if srv.calls != len(calls)*102 || len(srv.rib) != 0 || len(srv.fib) != 0 {
		t.Fatalf("the server had %d calls and holds %d routes and %d entries, want %d, 0 and 0",
			srv.calls, len(srv.rib), len(srv.fib), len(calls)*102)
	}
}

// BenchmarkListStubSend prices one list stub call over the hub, a
// 256-route batch or a run of one, from the stub to its reply, through
// the real bindings.
func BenchmarkListStubSend(b *testing.B) {
	g := newListRig(b, newCopyServer())
	for _, c := range g.listCalls() {
		b.Run(c.name, func(b *testing.B) {
			c.send()
			g.loop.RunPending()
			b.ReportAllocs()
			for b.Loop() {
				c.send()
				g.loop.RunPending()
			}
		})
	}
}

// The caller overwrites its run as soon as the stub returns, before the
// call is handled: the server is handed the routes as they were sent.
func TestListCallerMayOverwriteRun(t *testing.T) {
	srv := newCopyServer()
	g := newListRig(t, srv)
	es := batch(1, 256)
	g.rib.AddRoutes4("ebgp", es, nil)
	g.fti.AddEntries4(es, nil)
	sent := append([]route.Entry(nil), es...)
	copy(es, batch(2, 256))
	g.loop.RunPending()
	for _, table := range []map[netip.Prefix]route.Entry{srv.rib, srv.fib} {
		if len(table) != len(sent) {
			t.Fatalf("the server holds %d routes, want %d", len(table), len(sent))
		}
		for _, e := range sent {
			if got := table[e.Net]; !reflect.DeepEqual(got, e) {
				t.Fatalf("sent %+v, the server holds %+v", e, got)
			}
		}
	}
}

// Two batches sent back to back, both in flight before either is
// handled, each in its own item buffer: after both, the first batch's
// routes are intact in a real RIB.
func TestBackToBackBatchesIntactInRIB(t *testing.T) {
	var proc *rib.Process
	g := newHubRig(t, func(loop *eventloop.Loop, st int, t *xipc.Target) {
		if st == 0 {
			proc = rib.NewProcess(loop, nil, nil)
			proc.RegisterXRLs(t)
		} else {
			xif.BindFTI(t, newCopyServer())
		}
	})
	first, second := batch(1, 256), batch(2, 200)
	g.rib.AddRoutes4("static", first, nil)
	g.rib.AddRoutes4("static", second, nil)
	g.loop.RunPending()
	if proc.Len() != len(first)+len(second) {
		t.Fatalf("the RIB holds %d routes, want %d", proc.Len(), len(first)+len(second))
	}
	for _, e := range append(first, second...) {
		got, ok := proc.LookupBest(e.Net.Addr())
		if !ok || got.Net != e.Net || got.NextHop != e.NextHop || got.Metric != e.Metric || got.IfName != e.IfName {
			t.Fatalf("sent %+v, the RIB holds %+v (found %v)", e, got, ok)
		}
	}
}

// reentrantServer's AddRoutes4, handed the outer batch, sends the same
// target an inner add_routes4 from the loop, which the binding handles
// before the outer call returns.
type reentrantServer struct {
	confServer
	r            *xipc.Router
	outer, inner []route.Entry
	depth        int
	seenInner    []route.Entry
	t            *testing.T
}

func (s *reentrantServer) AddRoutes4(_ route.Protocol, es []route.Entry) error {
	s.depth++
	defer func() { s.depth-- }()
	if s.depth > 1 {
		s.seenInner = append(s.seenInner, es...)
		return nil
	}
	s.r.SendFromLoop(xif.RIBSpec.NewXRL("rib", "add_routes4", xrl.Text("protocol", "ebgp"),
		xrl.List("routes", xif.EncodeRouteAtoms(s.inner)...)), func(_ xrl.Args, err *xrl.Error) {
		if err != nil {
			s.t.Errorf("inner add_routes4: %v", err)
		}
	})
	if !reflect.DeepEqual(es, s.outer) {
		s.t.Errorf("after the inner call the outer handler's batch reads %v..., want %v...", es[:2], s.outer[:2])
	}
	return nil
}

// A binding's handler entered again while its scratch is in use decodes
// into storage of its own: the outer call still reads its own batch.
func TestReenteredBindingSeesItsOwnBatch(t *testing.T) {
	loop := eventloop.New(nil)
	r := xipc.NewRouter("self_process", loop)
	srv := &reentrantServer{r: r, outer: batch(1, 256), inner: batch(2, 100), t: t}
	target := xif.NewTarget("rib", "rib")
	xif.BindRIB(target, srv)
	r.AddTarget(target)
	for i := 0; i < 2; i++ { // the second round reuses the scratch the first kept
		srv.seenInner = nil
		xif.NewRIBClient(r, "rib").AddRoutes4("ebgp", srv.outer, nil)
		loop.RunPending()
		if !reflect.DeepEqual(srv.seenInner, srv.inner) {
			t.Fatalf("the inner call was handed %d routes, want its %d", len(srv.seenInner), len(srv.inner))
		}
	}
}

// batchServer records each add_entries4 batch it is handed, copied.
type batchServer struct {
	confServer
	mu      sync.Mutex
	batches [][]route.Entry
}

func (s *batchServer) AddEntries4(es []route.Entry) error {
	s.mu.Lock()
	s.batches = append(s.batches, append([]route.Entry{}, es...))
	s.mu.Unlock()
	return nil
}

// Over TCP a connection decodes each frame's list over the items the
// previous frame's list held. Batches that shrink, empty and grow again,
// pipelined on one connection, each reach the server as they were sent.
func TestListBatchesOverTCP(t *testing.T) {
	start := func(r *xipc.Router, loop *eventloop.Loop) {
		go loop.Run()
		t.Cleanup(func() { r.Close(); loop.Stop() })
	}
	floop := eventloop.New(nil)
	f := finder.New(floop)
	if err := f.ListenTCP("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	go floop.Run()
	defer floop.Stop()

	sinkLoop := eventloop.New(nil)
	sink := xipc.NewRouter("sink_process", sinkLoop)
	if err := sink.ListenTCP("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	sink.SetFinderTCP(f.TCPAddr())
	srv := &batchServer{}
	target := xif.NewTarget("fea", "fea")
	xif.BindFTI(target, srv)
	sink.AddTarget(target)
	start(sink, sinkLoop)
	if err := finder.RegisterTargetSync(sink, target, true); err != nil {
		t.Fatal(err)
	}

	sendLoop := eventloop.New(nil)
	send := xipc.NewRouter("send_process", sendLoop)
	send.SetFinderTCP(f.TCPAddr())
	start(send, sendLoop)
	stub := xif.NewFTIClient(send, "fea")

	var sent [][]route.Entry
	var wg sync.WaitGroup
	for k, n := range []int{256, 3, 0, 100, 256, 2} {
		es := batch(k+1, n)
		sent = append(sent, es)
		wg.Add(1)
		stub.AddEntries4(es, func(err error) {
			if err != nil {
				t.Errorf("add_entries4 of %d: %v", n, err)
			}
			wg.Done()
		})
	}
	wg.Wait()
	srv.mu.Lock()
	defer srv.mu.Unlock()
	if !reflect.DeepEqual(srv.batches, sent) {
		t.Fatalf("the server was handed %d batches that differ from the %d sent", len(srv.batches), len(sent))
	}
}
