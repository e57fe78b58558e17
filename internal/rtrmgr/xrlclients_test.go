package rtrmgr

import (
	"fmt"
	"net/netip"
	"testing"
	"time"

	"xorp/internal/bgp"
	"xorp/internal/core"
	"xorp/internal/eventloop"
	"xorp/internal/fea"
	"xorp/internal/finder"
	"xorp/internal/kernel"
	"xorp/internal/ospf"
	"xorp/internal/rib"
	"xorp/internal/rip"
	"xorp/internal/route"
	"xorp/internal/telemetry"
	"xorp/internal/workload"
	"xorp/internal/xif"
	"xorp/internal/xipc"
)

// nopRIB is a rib/1.0 server that answers every call and keeps nothing.
type nopRIB struct{}

func (nopRIB) AddRoutes4(route.Protocol, []route.Entry) error     { return nil }
func (nopRIB) DeleteRoutes4(route.Protocol, []netip.Prefix) error { return nil }
func (nopRIB) RegisterInterest4(string, netip.Addr) (xif.RIBInterest, error) {
	return xif.RIBInterest{}, nil
}
func (nopRIB) DeregisterInterest4(string, netip.Prefix) error       { return nil }
func (nopRIB) LookupRouteByDest4(netip.Addr) (xif.RIBLookup, error) { return xif.RIBLookup{}, nil }
func (nopRIB) ResyncComplete4(route.Protocol) (uint32, error)       { return 0, nil }

// TestWithdrawRunPublishesOnce runs the whole pipeline: one UPDATE
// withdrawing 256 routes reaches the forwarding plane as one snapshot
// generation (delete_routes4 → RIB DeleteRoutes → one FIB batch →
// delete_entries4 → one FIB commit), and so does the UPDATE that
// announced them.
func TestWithdrawRunPublishesOnce(t *testing.T) {
	r, err := NewRouter(baseConfig, Options{
		Clock:      eventloop.NewSimClock(time.Unix(0, 0)),
		SharedLoop: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Stop()
	if err := r.Start(); err != nil {
		t.Fatal(err)
	}
	r.SettleAll()

	nets := make([]netip.Prefix, 256)
	for i := range nets {
		nets[i] = netip.PrefixFrom(netip.AddrFrom4([4]byte{20, 1, byte(i), 0}), 24)
	}
	inject := func(u *bgp.UpdateMsg) (generations uint64) {
		t.Helper()
		g0 := r.FEA.Snapshots().Current().Gen()
		var ierr error
		r.BGP.Loop().Dispatch(func() { ierr = r.BGP.InjectUpdate("p1", u) })
		r.SettleAll()
		if ierr != nil {
			t.Fatal(ierr)
		}
		return r.FEA.Snapshots().Current().Gen() - g0
	}

	// The first announce also resolves the nexthop; warm that up with a
	// route outside the measured set.
	inject(&bgp.UpdateMsg{Attrs: workload.TestAttrs(mustA("10.0.0.1"), 65002), NLRI: []netip.Prefix{mustP("20.9.0.0/16")}})
	base := r.FEA.Snapshots().Current().Len()

	if got := inject(&bgp.UpdateMsg{Attrs: workload.TestAttrs(mustA("10.0.0.1"), 65002), NLRI: nets}); got != 1 {
		t.Errorf("announcing %d routes published %d generations, want 1", len(nets), got)
	}
	if got := r.FEA.Snapshots().Current().Len(); got != base+len(nets) {
		t.Fatalf("snapshot holds %d routes after the announce, want %d", got, base+len(nets))
	}
	if got := inject(&bgp.UpdateMsg{Withdrawn: nets}); got != 1 {
		t.Errorf("withdrawing %d routes published %d generations, want 1", len(nets), got)
	}
	if got := r.FEA.Snapshots().Current().Len(); got != base {
		t.Fatalf("snapshot holds %d routes after the withdraw, want %d", got, base)
	}
	if got := r.FIB.Len(); got != base {
		t.Fatalf("kernel FIB holds %d routes after the withdraw, want %d", got, base)
	}
}

// flakyRIB fails its first register_interest4 and answers the rest, as a
// RIB does that is being respawned when the question arrives.
type flakyRIB struct {
	nopRIB
	asked int
}

func (r *flakyRIB) RegisterInterest4(string, netip.Addr) (xif.RIBInterest, error) {
	if r.asked++; r.asked == 1 {
		return xif.RIBInterest{}, fmt.Errorf("rib: restarting")
	}
	return xif.RIBInterest{Resolves: true, Covering: mustP("10.0.0.0/24"), Route: route.Entry{Metric: 7}}, nil
}

// TestMetricSourceRetriesFailedLookup: a failed nexthop lookup is not cached
// as "unresolvable". The route waits in the resolver, the source asks again
// on the loop clock, and the route goes out resolvable once the RIB answers.
func TestMetricSourceRetriesFailedLookup(t *testing.T) {
	loop := eventloop.New(eventloop.NewSimClock(time.Unix(0, 0)))
	router := xipc.NewRouter("bgp_process", loop)
	target := xif.NewTarget("rib", "rib")
	rib := &flakyRIB{}
	xif.BindRIB(target, rib)
	router.AddTarget(target)

	in := bgp.NewPeerIn(loop, &bgp.PeerHandle{Name: "p1"}, nil)
	resolver := bgp.NewNexthopResolver("nexthop(p1)", &xrlMetricSource{stub: xif.NewRIBClient(router, "rib"), loop: router.Loop(), bgpTarget: "bgp"})
	sink := core.NewCacheStage[bgp.Route]("sink", new(telemetry.Counter))
	bgp.Plumb(in, resolver, sink)

	net := mustP("20.1.0.0/16")
	loop.Dispatch(func() { in.Announce(net, workload.TestAttrs(mustA("10.0.0.1"), 65002)) })
	loop.RunPending()
	var r bgp.Route
	if held := sink.Lookup(net, &r); rib.asked != 1 || resolver.PendingOps() != 1 || held {
		t.Fatalf("after the failed lookup: asked %d times, %d ops pending, sink holds %v; want 1, 1, nothing",
			rib.asked, resolver.PendingOps(), r)
	}
	loop.RunFor(2 * nexthopRetry)
	held := sink.Lookup(net, &r)
	if rib.asked != 2 || !held || !r.Resolvable || r.IGPMetric != 7 {
		t.Fatalf("after the retry: asked %d times, sink holds %+v; want 2 and the route resolvable at metric 7", rib.asked, r)
	}
	if n := resolver.PendingOps(); n != 0 {
		t.Fatalf("%d ops still pending after the answer", n)
	}
}

// TestLoneEntryEqualsListedEntry: a route the RIB publishes alone (a list
// of one) lands in the FEA's snapshot as the same route.Entry, metric
// included, as when it shares a batch.
func TestLoneEntryEqualsListedEntry(t *testing.T) {
	loop := eventloop.New(eventloop.NewSimClock(time.Unix(0, 0)))
	router := xipc.NewRouter("rib_process", loop)
	feaProc := fea.New(loop, kernel.NewFIB(), nil, router)
	target := xif.NewTarget("fea", "fea")
	feaProc.RegisterXRLs(target)
	router.AddTarget(target)
	fib := &xrlFIBClient{stub: xif.NewFTIClient(router, "fea")}

	e := route.Entry{Net: mustP("10.1.0.0/16"), NextHop: mustA("192.168.1.254"), Metric: 7, IfName: "eth0"}
	filler := route.Entry{Net: mustP("10.2.0.0/16"), IfName: "eth0"}
	var got [2]route.Entry
	for i, run := range [][]route.Entry{{e}, {filler, e}} {
		b := rib.NewFIBBatch()
		for _, e := range run {
			b.Add(e)
		}
		fib.FIBApplyBatch(b)
		loop.RunPending()
		got[i], _ = feaProc.Snapshots().Current().Get(e.Net)
		b.Reset()
		b.Delete(e)
		fib.FIBApplyBatch(b)
		loop.RunPending()
	}
	if !got[0].Equal(e) || !got[1].Equal(e) {
		t.Fatalf("published alone the snapshot holds %+v, in a batch %+v; want %+v both times", got[0], got[1], e)
	}
}

// The IGP binaries reach the network only through the FEA's fea_udp
// relay, and what the FEA hears for them comes back as an XRL to their
// own target. Wire a RIP process and an OSPF transport to a real FEA
// through the constructors alone: a RIP response sent to the FEA's host
// is learned, a datagram to AllSPFRouters is delivered. (cmd/xorp_rip
// used to bind the port and drop every datagram.)
func TestXRLTransportsHear(t *testing.T) {
	loop := eventloop.New(eventloop.NewSimClock(time.Unix(0, 0)))
	hub := xipc.NewHub()
	finder.New(loop).AttachHub(hub)
	node := func(name string) (*xipc.Router, *xipc.Target) {
		r := xipc.NewRouter(name+"_process", loop)
		r.AttachHub(hub)
		return r, xif.NewTarget(name, name)
	}
	register := func(r *xipc.Router, tgt *xipc.Target) {
		t.Helper()
		r.AddTarget(tgt)
		err := fmt.Errorf("registration of %s never finished", tgt.Name)
		finder.RegisterTarget(r, tgt, true, func(e error) { err = e })
		loop.RunPending()
		if err != nil {
			t.Fatal(err)
		}
	}

	netw := kernel.NewNetwork()
	host, err := netw.Attach(mustA("192.168.1.1"))
	if err != nil {
		t.Fatal(err)
	}
	nbr, err := netw.Attach(mustA("192.168.1.2"))
	if err != nil {
		t.Fatal(err)
	}
	feaRouter, feaTarget := node("fea")
	fea.New(loop, kernel.NewFIB(), host, feaRouter).RegisterXRLs(feaTarget)
	register(feaRouter, feaTarget)

	ripRouter, ripTarget := node("rip")
	proc := rip.NewProcess(loop, rip.Config{LocalAddr: host.Addr(), IfName: "eth0"},
		newUDPRelay(ripRouter, ripTarget, "fea", rip.Port, netip.Addr{}), nil)
	register(ripRouter, ripTarget)
	if err := proc.Start(); err != nil {
		t.Fatal(err)
	}
	loop.RunPending()
	learned := mustP("172.30.0.0/16")
	pkt, err := (&rip.Packet{Command: rip.CmdResponse, RTEs: []rip.RTE{{Net: learned, Metric: 3}}}).Append(nil)
	if err != nil {
		t.Fatal(err)
	}
	nbr.SendTo(rip.Port, netip.AddrPortFrom(host.Addr(), rip.Port), pkt)
	loop.RunPending()
	if metric, ok := proc.Lookup(learned); !ok || metric != 4 {
		t.Fatalf("RIP behind the XRL relay: route learned %v at metric %d, want metric 4", ok, metric)
	}

	ospfRouter, ospfTarget := node("ospf")
	tr := newUDPRelay(ospfRouter, ospfTarget, "fea", ospf.Port, ospf.AllSPFRouters)
	register(ospfRouter, ospfTarget)
	var heard string
	if err := tr.Bind(func(_ netip.AddrPort, payload []byte) { heard = string(payload) }); err != nil {
		t.Fatal(err)
	}
	loop.RunPending()
	nbr.SendTo(ospf.Port, netip.AddrPortFrom(ospf.AllSPFRouters, ospf.Port), []byte("hello"))
	loop.RunPending()
	if heard != "hello" {
		t.Fatalf("OSPF behind the XRL relay heard %q from AllSPFRouters", heard)
	}
}
