package fea

import (
	"net/netip"
	"strings"
	"testing"
	"time"

	"xorp/internal/eventloop"
	"xorp/internal/kernel"
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
	if _, err := call("finder://fea/fti/0.2/add_entry4?network:ipv4net=10.0.0.0/8&nexthop:ipv4=192.168.1.254&ifname:txt=eth0"); err != nil {
		t.Fatalf("add_entry4: %v", err)
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
	if _, err := call("finder://fea/fti/0.2/delete_entry4?network:ipv4net=10.0.0.0/8"); err != nil {
		t.Fatalf("delete_entry4: %v", err)
	}
	if _, err := call("finder://fea/fti/0.2/delete_entry4?network:ipv4net=10.0.0.0/8"); err == nil {
		t.Fatal("double delete via XRL accepted")
	}
}

func TestUDPRelayWithoutNetworkFails(t *testing.T) {
	p, _, _ := newFEA(t)
	if err := p.UDPBind(520, "rip", nil); err == nil {
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

func TestUDPRelayRoundTrip(t *testing.T) {
	netw := kernel.NewNetwork()
	loop := eventloop.New(eventloop.NewSimClock(time.Unix(0, 0)))
	hostA, _ := netw.Attach(mustA("10.0.0.1"))
	hostB, _ := netw.Attach(mustA("10.0.0.2"))
	feaA := New(loop, kernel.NewFIB(), hostA, nil)
	feaB := New(loop, kernel.NewFIB(), hostB, nil)

	var got []byte
	if err := feaB.UDPBind(520, "rip", func(src netip.AddrPort, payload []byte) {
		got = payload
	}); err != nil {
		t.Fatal(err)
	}
	if err := feaA.UDPSend(520, netip.AddrPortFrom(mustA("10.0.0.2"), 520), []byte("rip-pkt")); err != nil {
		t.Fatal(err)
	}
	loop.RunPending()
	if string(got) != "rip-pkt" {
		t.Fatalf("relay got %q", got)
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
	feaB := New(loop, kernel.NewFIB(), hostB, nil)

	group := mustA("224.0.0.5")
	if err := feaB.UDPJoinGroup(group); err != nil {
		t.Fatal(err)
	}
	var got []byte
	if err := feaB.UDPBind(89, "ospf", func(src netip.AddrPort, payload []byte) {
		got = payload
	}); err != nil {
		t.Fatal(err)
	}
	if err := feaA.UDPSend(89, netip.AddrPortFrom(group, 89), []byte("hello-pkt")); err != nil {
		t.Fatal(err)
	}
	loop.RunPending()
	if string(got) != "hello-pkt" {
		t.Fatalf("multicast relay got %q", got)
	}
	// After leaving, group traffic stops.
	if err := feaB.UDPLeaveGroup(group); err != nil {
		t.Fatal(err)
	}
	got = nil
	feaA.UDPSend(89, netip.AddrPortFrom(group, 89), []byte("hello-pkt"))
	loop.RunPending()
	if got != nil {
		t.Fatal("received multicast after leaving the group")
	}
}

// TestListXRLsPublishOnce drives add_entries4 and delete_entries4 through
// the typed stub: a list of n > 1 entries is one backend transaction and
// one snapshot generation, and a delete list containing an absent prefix
// removes the others and still reports the absent one.
func TestListXRLsPublishOnce(t *testing.T) {
	loop := eventloop.New(nil)
	fib := kernel.NewFIB()
	router := xipc.NewRouter("fea_process", loop)
	p := New(loop, fib, nil, router)
	target := xipc.NewTarget("fea", "fea")
	p.RegisterXRLs(target)
	router.AddTarget(target)
	go loop.Run()
	defer loop.Stop()
	stub := xif.NewFTIClient(router, "fea")

	// call runs one stub call on the loop and returns its outcome.
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
	gen := func() uint64 { return p.Snapshots().Current().Gen() }

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
	snap := p.Snapshots().Current()
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
	if installs, removals := fib.Stats(); installs != uint64(len(es)) || removals != 10 {
		t.Fatalf("kernel counters installs=%d removals=%d, want %d and 10", installs, removals, len(es))
	}
}
