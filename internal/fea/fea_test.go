package fea

import (
	"math/rand"
	"net/netip"
	"runtime"
	"runtime/metrics"
	"slices"
	"strings"
	"testing"
	"time"

	"xorp/internal/eventloop"
	"xorp/internal/kernel"
	"xorp/internal/rib"
	"xorp/internal/route"
	"xorp/internal/xif"
	"xorp/internal/xipc"
	"xorp/internal/xrl"
)

func mustP(s string) netip.Prefix { return netip.MustParsePrefix(s) }
func mustA(s string) netip.Addr   { return netip.MustParseAddr(s) }

func newFEA(t *testing.T) (*Process, *kernel.FIB, *eventloop.Loop) {
	t.Helper()
	loop := eventloop.New(eventloop.NewSimClock(time.Unix(0, 0)))
	fib := kernel.NewFIB()
	return New(loop, fib, nil, nil), fib, loop
}

func TestAddDeleteEntry(t *testing.T) {
	p, fib, _ := newFEA(t)
	e := route.Entry{Net: mustP("10.0.0.0/8"), NextHop: mustA("192.168.1.254"), IfName: "eth0"}
	srv := feaServer{p}
	if err := srv.AddEntries4([]route.Entry{e}); err != nil {
		t.Fatal(err)
	}
	if fib.Len() != 1 {
		t.Fatal("entry not installed")
	}
	if err := srv.DeleteEntries4([]netip.Prefix{e.Net}); err != nil {
		t.Fatal(err)
	}
	if err := srv.DeleteEntries4([]netip.Prefix{e.Net}); err == nil {
		t.Fatal("double delete accepted")
	}
}

// TestProfilePointsFire switches one FEA point on over profile/0.1: an add
// and a delete each leave one record there, and the point beside it, left
// off, records nothing.
func TestProfilePointsFire(t *testing.T) {
	loop := eventloop.New(nil)
	router := xipc.NewRouter("fea_process", loop)
	p := New(loop, kernel.NewFIB(), nil, router)
	target := xipc.NewTarget("fea", "fea")
	p.RegisterXRLs(target)
	router.AddTarget(target)
	go loop.Run()
	defer loop.Stop()

	profile := xif.NewProfileClient(router, "fea")
	entries := func(point string) []string {
		t.Helper()
		var out []string
		done := make(chan struct{})
		profile.GetEntries(point, func(es []string, err *xrl.Error) {
			if err != nil {
				t.Error(err)
			}
			out = es
			close(done)
		})
		<-done
		return out
	}
	enabled := make(chan error, 1)
	profile.Enable("route_enter_kernel", func(err error) { enabled <- err })
	if err := <-enabled; err != nil {
		t.Fatal(err)
	}
	loop.DispatchAndWait(func() {
		feaServer{p}.AddEntries4([]route.Entry{{Net: mustP("10.0.0.0/8"), IfName: "eth0"}})
		feaServer{p}.DeleteEntries4([]netip.Prefix{mustP("10.0.0.0/8")})
	})
	recs := entries("route_enter_kernel")
	if len(recs) != 2 || !strings.HasSuffix(recs[0], " add 10.0.0.0/8") || !strings.HasSuffix(recs[1], " delete 10.0.0.0/8") {
		t.Fatalf("records %q", recs)
	}
	if recs := entries("route_arrive_fea"); len(recs) != 0 {
		t.Fatalf("a point left off recorded %q", recs)
	}
}

func TestXRLInterface(t *testing.T) {
	loop := eventloop.New(nil)
	fib := kernel.NewFIB()
	fib.AddInterface("eth0", mustP("192.168.1.1/24"), 1500)
	router := xipc.NewRouter("fea_process", loop)
	p := New(loop, fib, nil, router)
	target := xipc.NewTarget("fea", "fea")
	p.RegisterXRLs(target)
	router.AddTarget(target)
	go loop.Run()
	defer loop.Stop()

	call := func(s string) (xrl.Args, *xrl.Error) {
		x, err := xrl.Parse(s)
		if err != nil {
			t.Fatal(err)
		}
		return router.Call(x)
	}
	if _, err := call("finder://fea/fti/0.2/add_entries4?entries:list=10.0.0.0/8 192.168.1.254 0 eth0"); err != nil {
		t.Fatalf("add_entries4: %v", err)
	}
	args, err := call("finder://fea/fti/0.2/lookup_entry4?addr:ipv4=10.1.2.3")
	if err != nil {
		t.Fatalf("lookup_entry4: %v", err)
	}
	if found, _ := args.BoolArg("found"); !found {
		t.Fatal("entry not found via XRL")
	}
	if net, _ := args.NetArg("network"); net != mustP("10.0.0.0/8") {
		t.Fatalf("network %v", net)
	}
	args, err = call("finder://fea/ifmgr/0.1/get_interfaces")
	if err != nil {
		t.Fatal(err)
	}
	ifs, _ := args.ListArg("interfaces")
	if len(ifs) != 1 {
		t.Fatalf("interfaces %v", ifs)
	}
	if _, err := call("finder://fea/fti/0.2/delete_entries4?networks:list=10.0.0.0/8"); err != nil {
		t.Fatalf("delete_entries4: %v", err)
	}
	if _, err := call("finder://fea/fti/0.2/delete_entries4?networks:list=10.0.0.0/8"); err == nil {
		t.Fatal("double delete via XRL accepted")
	}
}

func TestUDPRelayWithoutNetworkFails(t *testing.T) {
	p, _, _ := newFEA(t)
	if err := p.UDPBind(520, "rip"); err == nil {
		t.Fatal("bind without network accepted")
	}
	if err := p.UDPJoinGroup(mustA("224.0.0.5")); err == nil {
		t.Fatal("join without network accepted")
	}
	if err := p.UDPSend(520, netip.AddrPortFrom(mustA("10.0.0.2"), 520), nil); err == nil {
		t.Fatal("send without network accepted")
	}
	if err := p.UDPBroadcast(520, 520, nil); err == nil {
		t.Fatal("broadcast without network accepted")
	}
}

// relayTo returns an FEA on host whose router also hosts client, a target
// recording the datagrams the FEA pushes to its fea_udp_client/0.1.
func relayTo(loop *eventloop.Loop, host *kernel.Host, client string) (*Process, *[]string) {
	router := xipc.NewRouter("fea_process", loop)
	p := New(loop, kernel.NewFIB(), host, router)
	var got []string
	target := xipc.NewTarget(client, client)
	xif.BindFEAUDPRecv(target, xif.FEAUDPRecvFunc(func(_ netip.AddrPort, payload []byte) error {
		got = append(got, string(payload))
		return nil
	}))
	router.AddTarget(target)
	return p, &got
}

func TestUDPRelayRoundTrip(t *testing.T) {
	netw := kernel.NewNetwork()
	loop := eventloop.New(eventloop.NewSimClock(time.Unix(0, 0)))
	hostA, _ := netw.Attach(mustA("10.0.0.1"))
	hostB, _ := netw.Attach(mustA("10.0.0.2"))
	feaA := New(loop, kernel.NewFIB(), hostA, nil)
	feaB, got := relayTo(loop, hostB, "rip")

	if err := feaB.UDPBind(520, "rip"); err != nil {
		t.Fatal(err)
	}
	// A port is its client's: a respawned client binds it again, and no
	// other client may.
	if err := feaB.UDPBind(520, "rip"); err != nil {
		t.Fatalf("re-bind by the port's client: %v", err)
	}
	if err := feaB.UDPBind(520, "ospf"); err == nil {
		t.Fatal("another client bound a held port")
	}
	if err := feaA.UDPSend(520, netip.AddrPortFrom(mustA("10.0.0.2"), 520), []byte("rip-pkt")); err != nil {
		t.Fatal(err)
	}
	loop.RunPending()
	if len(*got) != 1 || (*got)[0] != "rip-pkt" {
		t.Fatalf("relay pushed %q, want the one datagram", *got)
	}
}

func TestUDPMulticastRelay(t *testing.T) {
	// The OSPF path: join a group through the FEA, receive a datagram
	// sent to the group address.
	netw := kernel.NewNetwork()
	loop := eventloop.New(eventloop.NewSimClock(time.Unix(0, 0)))
	hostA, _ := netw.Attach(mustA("10.0.0.1"))
	hostB, _ := netw.Attach(mustA("10.0.0.2"))
	feaA := New(loop, kernel.NewFIB(), hostA, nil)
	feaB, got := relayTo(loop, hostB, "ospf")

	group := mustA("224.0.0.5")
	if err := feaB.UDPJoinGroup(group); err != nil {
		t.Fatal(err)
	}
	if err := feaB.UDPBind(89, "ospf"); err != nil {
		t.Fatal(err)
	}
	if err := feaA.UDPSend(89, netip.AddrPortFrom(group, 89), []byte("hello-pkt")); err != nil {
		t.Fatal(err)
	}
	loop.RunPending()
	if len(*got) != 1 || (*got)[0] != "hello-pkt" {
		t.Fatalf("multicast relay pushed %q", *got)
	}
	// After leaving, group traffic stops.
	if err := feaB.UDPLeaveGroup(group); err != nil {
		t.Fatal(err)
	}
	feaA.UDPSend(89, netip.AddrPortFrom(group, 89), []byte("hello-pkt"))
	loop.RunPending()
	if len(*got) != 1 {
		t.Fatal("received multicast after leaving the group")
	}
}

// ftiOverXRL runs an FEA on its own loop with fti/0.2 bound, and returns
// it, its FIB, a typed stub over the FEA's router, and call, which runs
// one stub call on the loop and returns its outcome.
func ftiOverXRL(t *testing.T) (*Process, *kernel.FIB, *xif.FTIClient, func(send func(done func(error))) error) {
	loop := eventloop.New(nil)
	fib := kernel.NewFIB()
	router := xipc.NewRouter("fea_process", loop)
	p := New(loop, fib, nil, router)
	target := xipc.NewTarget("fea", "fea")
	p.RegisterXRLs(target)
	router.AddTarget(target)
	go loop.Run()
	t.Cleanup(loop.Stop)
	call := func(send func(done func(error))) error {
		t.Helper()
		errc := make(chan error, 1)
		loop.Dispatch(func() { send(func(err error) { errc <- err }) })
		select {
		case err := <-errc:
			return err
		case <-time.After(5 * time.Second):
			t.Fatal("XRL did not complete")
			return nil
		}
	}
	return p, fib, xif.NewFTIClient(router, "fea"), call
}

// TestListXRLsPublishOnce drives add_entries4 and delete_entries4 through
// the typed stub: a list of n > 1 entries is one backend transaction and
// one snapshot generation, and a delete list containing an absent prefix
// removes the others and still reports the absent one.
func TestListXRLsPublishOnce(t *testing.T) {
	p, fib, stub, call := ftiOverXRL(t)
	gen := func() uint64 { return p.Snapshots().Current().Gen() } // an atomic load: safe off the loop

	es := make([]route.Entry, 40)
	nets := make([]netip.Prefix, len(es))
	for i := range es {
		nets[i] = netip.PrefixFrom(netip.AddrFrom4([4]byte{10, byte(i), 0, 0}), 16)
		es[i] = route.Entry{Net: nets[i], NextHop: mustA("192.168.1.254"), IfName: "eth0"}
	}
	g0 := gen()
	if err := call(func(done func(error)) { stub.AddEntries4(es, done) }); err != nil {
		t.Fatalf("add_entries4: %v", err)
	}
	if got := gen() - g0; got != 1 {
		t.Fatalf("add_entries4 of %d entries published %d generations, want 1", len(es), got)
	}
	if snap := p.Snapshots().Current(); snap.Len() != len(es) || fib.Len() != len(es) {
		t.Fatalf("after add: snapshot %d, kernel %d entries, want %d", snap.Len(), fib.Len(), len(es))
	}

	// Delete the first ten plus one prefix that was never installed.
	absent := mustP("172.16.0.0/12")
	dels := append(append([]netip.Prefix{}, nets[:5]...), absent)
	dels = append(dels, nets[5:10]...)
	g1 := gen()
	err := call(func(done func(error)) { stub.DeleteEntries4(dels, done) })
	if err == nil || !strings.Contains(err.Error(), "no FIB entry 172.16.0.0/12") {
		t.Fatalf("delete_entries4 with an absent prefix: err = %v, want the no-FIB-entry error", err)
	}
	if got := gen() - g1; got != 1 {
		t.Fatalf("delete_entries4 of %d prefixes published %d generations, want 1", len(dels), got)
	}
	snap := p.Snapshots().Pin() // read off the running loop
	if snap.Len() != len(es)-10 || fib.Len() != len(es)-10 {
		t.Fatalf("after delete: snapshot %d, kernel %d entries, want %d", snap.Len(), fib.Len(), len(es)-10)
	}
	for i, net := range nets {
		if _, ok := snap.Get(net); ok != (i >= 10) {
			t.Fatalf("prefix %v present=%v after delete", net, ok)
		}
	}

	// A list naming only absent prefixes changes nothing and publishes nothing.
	g2 := gen()
	if err := call(func(done func(error)) { stub.DeleteEntries4(dels[:6], done) }); err == nil {
		t.Fatal("delete_entries4 of absent prefixes reported success")
	}
	if gen() != g2 {
		t.Fatal("delete_entries4 of absent prefixes published a generation")
	}
	if n := fib.Len(); n != len(es)-10 {
		t.Fatalf("kernel holds %d entries, want %d", n, len(es)-10)
	}
}

// TestHostileListsAtTheFEA: an fti/0.2 list is applied as it arrived,
// whatever it repeats. An add_entries4 list naming a prefix twice installs
// the later entry; a delete_entries4 list naming a present prefix twice
// removes it once and reports no error. Each list publishes one
// generation, and fea_fib_writes_total counts the list's ops, repeats
// included.
func TestHostileListsAtTheFEA(t *testing.T) {
	p, fib, stub, call := ftiOverXRL(t)
	gen := func() uint64 { return p.Snapshots().Current().Gen() }
	writes := func() float64 { v, _ := p.Metrics().Get("fea_fib_writes_total"); return v }
	a, b := mustP("10.1.0.0/16"), mustP("10.2.0.0/16")
	first := route.Entry{Net: a, NextHop: mustA("192.168.1.1"), IfName: "eth0"}
	last := route.Entry{Net: a, NextHop: mustA("192.168.1.2"), IfName: "eth1"}
	other := route.Entry{Net: b, NextHop: mustA("192.168.1.3"), IfName: "eth0"}

	g0, w0 := gen(), writes()
	if err := call(func(done func(error)) { stub.AddEntries4([]route.Entry{first, other, last}, done) }); err != nil {
		t.Fatalf("add_entries4 repeating %v: %v", a, err)
	}
	if g, w := gen()-g0, writes()-w0; g != 1 || w != 3 {
		t.Fatalf("add_entries4 of 3 entries: %d generations and %v writes counted, want 1 and 3", g, w)
	}
	snap := p.Snapshots().Pin()
	if got, ok := snap.Get(a); !ok || !got.Equal(last) {
		t.Fatalf("%v published as [%v] (present %v), want the list's last entry [%v]", a, got, ok, last)
	}
	if e, ok := fib.Lookup(a.Addr()); !ok || e.NextHop != last.NextHop || e.IfName != last.IfName {
		t.Fatalf("kernel holds %v (present %v), want the list's last entry", e, ok)
	}
	if snap.Len() != 2 || fib.Len() != 2 {
		t.Fatalf("snapshot %d, kernel %d entries, want 2", snap.Len(), fib.Len())
	}

	g1, w1 := gen(), writes()
	if err := call(func(done func(error)) { stub.DeleteEntries4([]netip.Prefix{a, a}, done) }); err != nil {
		t.Fatalf("delete_entries4 repeating a present %v: %v, want no error", a, err)
	}
	if g, w := gen()-g1, writes()-w1; g != 1 || w != 2 {
		t.Fatalf("delete_entries4 of 2 prefixes: %d generations and %v writes counted, want 1 and 2", g, w)
	}
	snap = p.Snapshots().Pin()
	if _, ok := snap.Get(a); ok || snap.Len() != 1 || fib.Len() != 1 {
		t.Fatalf("after the delete: %v present %v, snapshot %d, kernel %d entries; want it gone and 1 left", a, ok, snap.Len(), fib.Len())
	}
	if got, ok := snap.Get(b); !ok || !got.Equal(other) {
		t.Fatalf("%v reads [%v] (present %v) after deleting %v twice, want [%v]", b, got, ok, a, other)
	}
}

// TestSnapshotGenScrapedOffLoop: the fea_snapshot_gen gauge is scraped off
// the FEA's loop, so the live snapshot's generation must be safe to read
// while a commit on the loop advances it. One goroutine scrapes the gauge
// 1,000 times while 1,000 batches land on the loop; the generations it
// reads never go backwards, and the last is one per batch. Meaningful under
// -race (the CI race job runs it).
func TestSnapshotGenScrapedOffLoop(t *testing.T) {
	const n = 1000
	loop := eventloop.New(nil)
	p := New(loop, kernel.NewFIB(), nil, nil)
	go loop.Run()
	defer loop.Stop()

	scraped := make(chan struct{})
	go func() {
		defer close(scraped)
		last := 0.0
		for i := 0; i < n; i++ {
			g, ok := p.Metrics().Get("fea_snapshot_gen")
			if !ok || g < last {
				t.Errorf("scrape %d: generation %v (found %v) after %v", i, g, ok, last)
				return
			}
			last = g
		}
	}()
	e := route.Entry{Net: mustP("10.1.0.0/16"), NextHop: mustA("192.168.1.254"), IfName: "eth0"}
	for i := 0; i < n; i++ {
		b := rib.NewFIBBatch()
		if i%2 == 0 {
			b.Add(e)
		} else {
			b.Delete(e)
		}
		loop.Dispatch(func() {
			if err := p.ApplyBatch(b); err != nil {
				t.Errorf("batch %d: %v", i, err)
			}
		})
	}
	landed := make(chan struct{})
	loop.Dispatch(func() { close(landed) })
	<-landed
	<-scraped
	if g, _ := p.Metrics().Get("fea_snapshot_gen"); g != n {
		t.Fatalf("generation %v after %d batches, want %d", g, n, n)
	}
}

// TestFEABytesPerRoute pins the live heap a route costs the FEA: one
// table, which the kernel FIB commits and the snapshot publishes. It
// measures 52 B, 44 of them scanned by the collector on every cycle
// (/gc/scan/heap:bytes), the snapshot's own (TestSnapshotBytesPerRoute in
// internal/fwd); each bound is 8 % above. The routes go in as the RIB
// sends them, in 256-route batches; the inputs stay live on both sides of
// the measure.
func TestFEABytesPerRoute(t *testing.T) {
	const n, batch, bound, scanBound = 100000, 256, 56, 48
	rng := rand.New(rand.NewSource(11))
	seen := make(map[netip.Prefix]bool, n)
	es := make([]route.Entry, 0, n)
	for len(es) < n {
		a := netip.AddrFrom4([4]byte{byte(1 + rng.Intn(223)), byte(rng.Intn(256)), byte(rng.Intn(256)), 0})
		net := netip.PrefixFrom(a, 16+rng.Intn(9)).Masked()
		if !seen[net] {
			seen[net] = true
			es = append(es, route.Entry{Net: net, NextHop: mustA("192.168.1.1"), IfName: "eth0"})
		}
	}
	b := rib.NewFIBBatch()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&before)
	scanBefore := heapScanBytes()
	p, _, _ := newFEA(t)
	for off := 0; off < n; off += batch {
		b.Reset()
		for _, e := range es[off:min(off+batch, n)] {
			b.Add(e)
		}
		if err := p.ApplyBatch(b); err != nil {
			t.Fatal(err)
		}
	}
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&after)
	perRoute := float64(after.HeapAlloc-before.HeapAlloc) / n
	scanned := (float64(heapScanBytes()) - float64(scanBefore)) / n
	runtime.KeepAlive(es)
	runtime.KeepAlive(b)
	t.Logf("%.0f B of live heap per route, %.0f B of it scanned", perRoute, scanned)
	if perRoute > bound || scanned > scanBound {
		t.Fatalf("%.0f B of live heap per route, bound %d; %.0f B scanned, bound %d", perRoute, bound, scanned, scanBound)
	}
	entries, _ := p.Metrics().Get("fea_fib_entries")
	if snap := p.Snapshots().Current().Len(); snap != n || entries != float64(snap) {
		t.Fatalf("fea_fib_entries reads %v, the snapshot holds %d, want %d", entries, snap, n)
	}
}

// heapScanBytes reads /gc/scan/heap:bytes, the heap the collector scans
// on every cycle, as of the last GC.
func heapScanBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/scan/heap:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// TestGetInterfacesSorted: ifmgr/0.1 get_interfaces answers in name
// order, the same list on every call.
func TestGetInterfacesSorted(t *testing.T) {
	p, fib, _ := newFEA(t)
	for i, name := range []string{"eth2", "lo0", "eth0", "eth1"} {
		fib.AddInterface(name, netip.PrefixFrom(netip.AddrFrom4([4]byte{192, 168, byte(i), 1}), 24), 1500)
	}
	want := []string{"eth0 192.168.2.1/24 1500 true", "eth1 192.168.3.1/24 1500 true", "eth2 192.168.0.1/24 1500 true", "lo0 192.168.1.1/24 1500 true"}
	for i := 0; i < 50; i++ {
		if got, err := (feaServer{p}).GetInterfaces(); err != nil || !slices.Equal(got, want) {
			t.Fatalf("call %d: get_interfaces = %q, %v; want %q", i, got, err, want)
		}
	}
}

// TestFEALookupIsLongest installs nested /8, /16, /24 and /32 routes with
// ApplyBatch, most specific first, and asks for an address inside each and
// outside the next: the answer is the most specific route that covers it,
// through the FEA's lookup_entry4 handler and through the snapshot the
// forwarding workers read.
func TestFEALookupIsLongest(t *testing.T) {
	p, _, _ := newFEA(t)
	nets := []string{"10.1.2.3/32", "10.1.2.0/24", "10.1.0.0/16", "10.0.0.0/8"}
	b := rib.NewFIBBatch()
	for i, s := range nets {
		b.Add(route.Entry{Net: mustP(s), NextHop: netip.AddrFrom4([4]byte{192, 168, 1, byte(1 + i)}), IfName: "eth0"})
	}
	if err := p.ApplyBatch(b); err != nil {
		t.Fatal(err)
	}
	for addr, want := range map[string]string{
		"10.1.2.3":   "10.1.2.3/32",
		"10.1.2.4":   "10.1.2.0/24",
		"10.1.200.1": "10.1.0.0/16",
		"10.200.0.1": "10.0.0.0/8",
		"11.0.0.1":   "",
	} {
		a := mustA(addr)
		got, err := feaServer{p}.LookupEntry4(a)
		if err != nil || got.Found != (want != "") || got.Found && got.Entry.Net != mustP(want) {
			t.Errorf("lookup_entry4(%v) = %v %v, %v; want %q", a, got.Found, got.Entry.Net, err, want)
		}
		e, ok := p.Snapshots().Current().Lookup(a)
		if ok != (want != "") || ok && e.Net != mustP(want) {
			t.Errorf("snapshot Lookup(%v) = %v, %v; want %q", a, e.Net, ok, want)
		}
	}
}
