package rtrmgr

import (
	"fmt"
	"net/netip"
	"reflect"
	"strings"
	"testing"
	"time"

	"xorp/internal/bgp"
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

// recRIB is a rib/1.0 server that records the runs it is handed, in
// arrival order: log has one "method proto net…" line per run, ops the
// same stream flattened to one op per route.
type recRIB struct {
	log []string
	ops []ribOp
}

// ribOp is one route's worth of a run: what BGP asked of the RIB.
type ribOp struct {
	del   bool
	proto string
	e     route.Entry // a delete names only e.Net
}

func (r *recRIB) rec(method string, proto route.Protocol, del bool, es ...route.Entry) {
	s := fmt.Sprintf("%s %v", method, proto)
	for _, e := range es {
		s += " " + e.Net.String()
		r.ops = append(r.ops, ribOp{del, proto.String(), e})
	}
	r.log = append(r.log, s)
}

func (r *recRIB) AddRoutes4(p route.Protocol, es []route.Entry) error {
	r.rec("add_routes4", p, false, es...)
	return nil
}
func (r *recRIB) DeleteRoutes4(p route.Protocol, nets []netip.Prefix) (int, error) {
	es := make([]route.Entry, len(nets))
	for i := range nets {
		es[i].Net = nets[i]
	}
	r.rec("delete_routes4", p, true, es...)
	return len(nets), nil
}
func (r *recRIB) RegisterInterest4(string, netip.Addr) (xif.RIBInterest, error) {
	return xif.RIBInterest{}, nil
}
func (r *recRIB) DeregisterInterest4(string, netip.Prefix) error       { return nil }
func (r *recRIB) LookupRouteByDest4(netip.Addr) (xif.RIBLookup, error) { return xif.RIBLookup{}, nil }
func (r *recRIB) ResyncComplete4(route.Protocol) (uint32, error)       { return 0, nil }

// newRecClient wires an xrlRIBClient to a recording RIB over one loop.
func newRecClient() (*xrlRIBClient, *recRIB, *eventloop.Loop) {
	loop := eventloop.New(eventloop.NewSimClock(time.Unix(0, 0)))
	router := xipc.NewRouter("bgp_process", loop)
	target := xif.NewTarget("rib", "rib")
	rec := &recRIB{}
	xif.BindRIB(target, rec)
	router.AddTarget(target)
	return newXRLRIBClient(router, "rib").(*xrlRIBClient), rec, loop
}

func bgpRoute(net string, ibgp bool) *bgp.Route {
	return &bgp.Route{
		Net:   mustP(net),
		Attrs: workload.TestAttrs(mustA("10.0.0.1"), 65002),
		Src:   &bgp.PeerHandle{IBGP: ibgp},
	}
}

// TestRIBClientKeepsOrderAcrossKinds: adds, withdraws and replaces share
// one pending queue, so however a drain is cut into runs, replaying what
// the RIB received route by route is the sequence of calls BGP made — a
// replace being an add, after a withdraw under the old protocol when the
// winner changed protocol — and so leaves every prefix in the state BGP's
// last call gave it.
func TestRIBClientKeepsOrderAcrossKinds(t *testing.T) {
	c, rec, loop := newRecClient()
	// The script's calls also append what they mean to want.
	var want []ribOp
	add := func(r *bgp.Route) {
		c.AddRoute(r)
		want = append(want, ribOp{false, protoName(r), ribEntryOf(r)})
	}
	del := func(r *bgp.Route) {
		c.DeleteRoute(r)
		want = append(want, ribOp{true, protoName(r), route.Entry{Net: r.Net}})
	}
	replace := func(old, new *bgp.Route) {
		c.ReplaceRoute(old, new)
		if protoName(old) != protoName(new) {
			want = append(want, ribOp{true, protoName(old), route.Entry{Net: old.Net}})
		}
		want = append(want, ribOp{false, protoName(new), ribEntryOf(new)})
	}

	r := bgpRoute("20.1.0.0/16", false)
	r2 := bgpRoute("20.1.0.0/16", false)
	r2.IGPMetric = 9
	rIBGP := bgpRoute("20.1.0.0/16", true)
	other := bgpRoute("20.2.0.0/16", false)
	loop.Dispatch(func() {
		add(r)
		del(r)
		add(r)
		add(other)
		replace(r, r2) // behind the add of the same prefix: one run names it twice
		del(other)
		replace(r2, rIBGP) // the winner moves to an IBGP peer: the ebgp entry goes first
	})
	loop.RunPending()
	if !reflect.DeepEqual(rec.ops, want) {
		t.Fatalf("RIB saw, route by route\n  %v\nBGP called\n  %v", rec.ops, want)
	}
	final := make(map[string]route.Entry)
	for _, op := range rec.ops {
		if key := op.proto + " " + op.e.Net.String(); op.del {
			delete(final, key)
		} else {
			final[key] = op.e
		}
	}
	if e, ok := final["ibgp 20.1.0.0/16"]; len(final) != 1 || !ok || !e.Equal(ribEntryOf(rIBGP)) {
		t.Fatalf("replayed, the RIB holds %v, want only the IBGP winner", final)
	}
	if rec.log[2] != "add_routes4 ebgp 20.1.0.0/16 20.2.0.0/16 20.1.0.0/16" {
		t.Fatalf("third run = %q, want the add, the other add and the replace in one list", rec.log[2])
	}
	if len(c.pend) != 0 || cap(c.pend) == 0 {
		t.Fatalf("pending queue len %d cap %d after the drain, want empty and kept", len(c.pend), cap(c.pend))
	}
}

// TestRIBClientBatchesWithdraws: a run of withdraws ships as one
// delete_routes4, capped at ribBatchCap, and splits where the protocol
// changes.
func TestRIBClientBatchesWithdraws(t *testing.T) {
	c, rec, loop := newRecClient()
	loop.Dispatch(func() {
		for i := 0; i < ribBatchCap; i++ {
			c.DeleteRoute(bgpRoute(fmt.Sprintf("20.%d.%d.0/24", i/256, i%256), false))
		}
	})
	loop.RunPending()
	if len(rec.log) != 1 {
		t.Fatalf("%d withdraws reached the RIB as %d XRLs, want 1", ribBatchCap, len(rec.log))
	}
	f := strings.Fields(rec.log[0])
	if f[0] != "delete_routes4" || f[1] != "ebgp" || len(f)-2 != ribBatchCap {
		t.Fatalf("XRL = %s %s with %d prefixes, want delete_routes4 ebgp with %d", f[0], f[1], len(f)-2, ribBatchCap)
	}

	rec.log = nil
	loop.Dispatch(func() {
		c.DeleteRoute(bgpRoute("30.0.1.0/24", false))
		c.DeleteRoute(bgpRoute("30.0.2.0/24", false))
		c.DeleteRoute(bgpRoute("30.0.3.0/24", true))
		c.DeleteRoute(bgpRoute("30.0.4.0/24", true))
		c.AddRoute(bgpRoute("30.0.5.0/24", true))
		c.AddRoute(bgpRoute("30.0.6.0/24", false))
		c.AddRoute(bgpRoute("30.0.7.0/24", false))
	})
	loop.RunPending()
	want := []string{
		"delete_routes4 ebgp 30.0.1.0/24 30.0.2.0/24",
		"delete_routes4 ibgp 30.0.3.0/24 30.0.4.0/24",
		"add_routes4 ibgp 30.0.5.0/24",
		"add_routes4 ebgp 30.0.6.0/24 30.0.7.0/24",
	}
	if !reflect.DeepEqual(rec.log, want) {
		t.Fatalf("RIB saw\n  %q\nwant\n  %q", rec.log, want)
	}
}

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
	recRIB
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
	sink := bgp.NewCacheStage("sink", new(telemetry.Counter))
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

// TestLoneEntryEqualsListedEntry: the wire form is the stub's business —
// a route the RIB publishes alone (it travels as add_entry4) lands in the
// FEA's snapshot as the same route.Entry, metric included, as when it
// shares a batch.
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
