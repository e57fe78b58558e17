package xif_test

import (
	"net/netip"
	"reflect"
	"sync"
	"testing"

	"xorp/internal/eventloop"
	"xorp/internal/finder"
	"xorp/internal/rib"
	"xorp/internal/route"
	"xorp/internal/xif"
	"xorp/internal/xipc"
	"xorp/internal/xrl"
)

// Tests of the list XRLs (add_routes4, delete_routes4, add_entries4,
// delete_entries4) across the hop: the stub builds a batch's atoms in the
// call record, and the binding decodes them into scratch it reuses. Both
// ends allocate nothing in steady state, and neither lets a batch see
// another's routes.

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

func (s *copyServer) DeleteRoutes4(_ route.Protocol, nets []netip.Prefix) (int, error) {
	s.calls++
	had := 0
	for _, n := range nets {
		if _, ok := s.rib[n]; ok {
			delete(s.rib, n)
			had++
		}
	}
	return had, nil
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

// listCalls are the four list stub calls, each a 256-route batch.
func (g *stubRig) listCalls() []struct {
	name string
	send func()
} {
	es := batch(1, 256)
	nets := netsOf(es)
	return []struct {
		name string
		send func()
	}{
		{"RIBClient.AddRoutes4", func() { g.rib.AddRoutes4("ebgp", es, nil) }},
		{"RIBClient.DeleteRoutes4", func() { g.rib.DeleteRoutes4("ebgp", nets, nil) }},
		{"FTIClient.AddEntries4", func() { g.fti.AddEntries4(es, nil) }},
		{"FTIClient.DeleteEntries4", func() { g.fti.DeleteEntries4(nets, nil) }},
	}
}

// A 256-route list call allocates nothing in steady state, from the stub
// through the binding and the server to the reply: the stub builds the
// atoms in the call record's item buffer, which the Router keeps, and the
// binding decodes them into scratch of its own.
func TestListStubsAllocateNothing(t *testing.T) {
	srv := newCopyServer()
	g := newListRig(t, srv)
	for _, c := range g.listCalls() {
		round := func() {
			c.send()
			g.loop.RunPending()
		}
		round() // resolves through the Finder and caches
		if got := testing.AllocsPerRun(100, round); got != 0 {
			t.Errorf("%s: %.2f allocations per call, want 0", c.name, got)
		}
		switch c.name {
		case "RIBClient.AddRoutes4":
			if len(srv.rib) != 256 {
				t.Fatalf("%s: the server holds %d routes, want 256", c.name, len(srv.rib))
			}
		case "FTIClient.AddEntries4":
			if len(srv.fib) != 256 {
				t.Fatalf("%s: the server holds %d entries, want 256", c.name, len(srv.fib))
			}
		}
	}
	if srv.calls != 4*102 || len(srv.rib) != 0 || len(srv.fib) != 0 {
		t.Fatalf("the server had %d calls and holds %d routes and %d entries, want 408, 0 and 0",
			srv.calls, len(srv.rib), len(srv.fib))
	}
}

// BenchmarkListStubSend prices one 256-route list stub call over the hub,
// from the stub to its reply, through the real bindings.
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
