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
	"xorp/internal/route"
	"xorp/internal/workload"
	"xorp/internal/xif"
	"xorp/internal/xipc"
)

// recRIB is a rib/1.0 server that records the XRLs it is handed, in
// arrival order, as "method proto net…".
type recRIB struct{ log []string }

func (r *recRIB) rec(method string, proto route.Protocol, nets ...netip.Prefix) error {
	s := fmt.Sprintf("%s %v", method, proto)
	for _, n := range nets {
		s += " " + n.String()
	}
	r.log = append(r.log, s)
	return nil
}

func (r *recRIB) AddRoute4(p route.Protocol, e route.Entry) error {
	return r.rec("add_route4", p, e.Net)
}
func (r *recRIB) ReplaceRoute4(p route.Protocol, e route.Entry) error {
	return r.rec("replace_route4", p, e.Net)
}
func (r *recRIB) DeleteRoute4(p route.Protocol, net netip.Prefix) error {
	return r.rec("delete_route4", p, net)
}
func (r *recRIB) AddRoutes4(p route.Protocol, es []route.Entry) error {
	nets := make([]netip.Prefix, len(es))
	for i := range es {
		nets[i] = es[i].Net
	}
	return r.rec("add_routes4", p, nets...)
}
func (r *recRIB) DeleteRoutes4(p route.Protocol, nets []netip.Prefix) error {
	return r.rec("delete_routes4", p, nets...)
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
	return newXRLRIBClient(xif.NewRIBClient(router, "rib"), loop), rec, loop
}

func bgpRoute(net string, ibgp bool) *bgp.Route {
	return &bgp.Route{
		Net:   mustP(net),
		Attrs: workload.TestAttrs(mustA("10.0.0.1"), 65002),
		Src:   &bgp.PeerHandle{IBGP: ibgp},
	}
}

// TestRIBClientKeepsOrderAcrossKinds: adds and withdraws share one
// pending queue, so add → withdraw → add of one prefix inside one drain
// reaches the RIB as three XRLs in that order, and a ReplaceRoute flushes
// what was buffered before it.
func TestRIBClientKeepsOrderAcrossKinds(t *testing.T) {
	c, rec, loop := newRecClient()
	r := bgpRoute("20.1.0.0/16", false)
	other := bgpRoute("20.2.0.0/16", false)
	var outcomes []error
	loop.Dispatch(func() {
		c.AddRoute(r, nil)
		c.DeleteRoute(r, func(err error) { outcomes = append(outcomes, err) })
		c.AddRoute(r, nil)
		c.AddRoute(other, nil)
		c.ReplaceRoute(r, r, nil)
		c.DeleteRoute(other, nil)
	})
	loop.RunPending()
	want := []string{
		"add_routes4 ebgp 20.1.0.0/16",
		"delete_route4 ebgp 20.1.0.0/16",
		"add_routes4 ebgp 20.1.0.0/16 20.2.0.0/16",
		"replace_route4 ebgp 20.1.0.0/16",
		"delete_route4 ebgp 20.2.0.0/16",
	}
	if !reflect.DeepEqual(rec.log, want) {
		t.Fatalf("RIB saw\n  %q\nwant\n  %q", rec.log, want)
	}
	if len(outcomes) != 1 || outcomes[0] != nil {
		t.Fatalf("withdraw completion = %v, want one nil", outcomes)
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
			c.DeleteRoute(bgpRoute(fmt.Sprintf("20.%d.%d.0/24", i/256, i%256), false), nil)
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
		c.DeleteRoute(bgpRoute("30.0.1.0/24", false), nil)
		c.DeleteRoute(bgpRoute("30.0.2.0/24", false), nil)
		c.DeleteRoute(bgpRoute("30.0.3.0/24", true), nil)
		c.DeleteRoute(bgpRoute("30.0.4.0/24", true), nil)
		c.AddRoute(bgpRoute("30.0.5.0/24", true), nil)
		c.AddRoute(bgpRoute("30.0.6.0/24", false), nil)
		c.AddRoute(bgpRoute("30.0.7.0/24", false), nil)
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
// delete_entries4 → one edit session), and so does the UPDATE that
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
	resolver := bgp.NewNexthopResolver("nexthop(p1)", NewXRLMetricSource(router, "rib", "bgp"))
	sink := bgp.NewCacheStage("sink")
	bgp.Plumb(in, resolver, sink)

	net := mustP("20.1.0.0/16")
	loop.Dispatch(func() { in.Announce(net, workload.TestAttrs(mustA("10.0.0.1"), 65002)) })
	loop.RunPending()
	if rib.asked != 1 || resolver.PendingOps() != 1 || sink.Lookup(net) != nil {
		t.Fatalf("after the failed lookup: asked %d times, %d ops pending, sink holds %v; want 1, 1, nothing",
			rib.asked, resolver.PendingOps(), sink.Lookup(net))
	}
	loop.RunFor(2 * nexthopRetry)
	r := sink.Lookup(net)
	if rib.asked != 2 || r == nil || !r.Resolvable || r.IGPMetric != 7 {
		t.Fatalf("after the retry: asked %d times, sink holds %+v; want 2 and the route resolvable at metric 7", rib.asked, r)
	}
	if n := resolver.PendingOps(); n != 0 {
		t.Fatalf("%d ops still pending after the answer", n)
	}
}
