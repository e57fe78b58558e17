package rib

import (
	"fmt"
	"net/netip"
	"slices"
	"testing"
	"time"

	"xorp/internal/eventloop"
	"xorp/internal/route"
)

func mustP(s string) netip.Prefix { return netip.MustParsePrefix(s) }
func mustA(s string) netip.Addr   { return netip.MustParseAddr(s) }

// fibRec collects FIB operations.
type fibRec struct {
	tbl  map[netip.Prefix]route.Entry
	adds int
	dels int
}

func newFibRec() *fibRec { return &fibRec{tbl: make(map[netip.Prefix]route.Entry)} }

func (f *fibRec) FIBAdd(e route.Entry) {
	f.tbl[e.Net] = e
	f.adds++
}

func (f *fibRec) FIBReplace(old, new route.Entry) { f.tbl[new.Net] = new }

func (f *fibRec) FIBDelete(e route.Entry) {
	delete(f.tbl, e.Net)
	f.dels++
}

func (f *fibRec) FIBApplyBatch(b *FIBBatch) { replayBatch(b, f) }

// replayBatch delivers a batch's ops one by one to a per-op recorder.
func replayBatch(b *FIBBatch, c interface {
	FIBAdd(e route.Entry)
	FIBReplace(old, new route.Entry)
	FIBDelete(e route.Entry)
}) {
	b.Ops(func(op FIBOp) {
		switch op.Kind {
		case FIBOpAdd:
			c.FIBAdd(op.New)
		case FIBOpReplace:
			c.FIBReplace(op.Old, op.New)
		case FIBOpDelete:
			c.FIBDelete(op.Old)
		}
	})
}

func newRib(t *testing.T) (*Process, *fibRec, *eventloop.Loop) {
	t.Helper()
	loop := eventloop.New(eventloop.NewSimClock(time.Unix(0, 0)))
	fib := newFibRec()
	p := NewProcess(loop, fib, nil)
	return p, fib, loop
}

func connectedRoute(net, ifname string) route.Entry {
	return route.Entry{Net: mustP(net), IfName: ifname}
}

func TestSingleProtocolToFIB(t *testing.T) {
	p, fib, _ := newRib(t)
	if err := p.AddRoute(route.ProtoStatic, route.Entry{
		Net: mustP("10.0.0.0/8"), NextHop: mustA("192.168.1.1"), IfName: "eth0",
	}); err != nil {
		t.Fatal(err)
	}
	e, ok := fib.tbl[mustP("10.0.0.0/8")]
	if !ok {
		t.Fatal("route did not reach FIB")
	}
	if e.Protocol != route.ProtoStatic || e.AdminDistance != 1 {
		t.Fatalf("entry %v", e)
	}
	if err := p.DeleteRoute(route.ProtoStatic, mustP("10.0.0.0/8")); err != nil {
		t.Fatal(err)
	}
	if len(fib.tbl) != 0 {
		t.Fatal("delete did not reach FIB")
	}
	if err := p.DeleteRoute(route.ProtoStatic, mustP("10.0.0.0/8")); err == nil {
		t.Fatal("double delete accepted")
	}
}

func TestAdminDistanceArbitration(t *testing.T) {
	// The same prefix from RIP (120) and static (1): static must win;
	// when static goes away, RIP takes over; when RIP improves nothing
	// changes, per the distributed merge-stage design (§5.2).
	p, fib, _ := newRib(t)
	net := mustP("10.1.0.0/16")
	p.AddRoute(route.ProtoRIP, route.Entry{Net: net, NextHop: mustA("10.0.0.2"), IfName: "eth1", Metric: 5})
	p.AddRoute(route.ProtoStatic, route.Entry{Net: net, NextHop: mustA("10.0.0.1"), IfName: "eth0"})
	if e := fib.tbl[net]; e.Protocol != route.ProtoStatic {
		t.Fatalf("winner %v, want static", e)
	}
	p.DeleteRoute(route.ProtoStatic, net)
	if e := fib.tbl[net]; e.Protocol != route.ProtoRIP {
		t.Fatalf("winner after static removal %v, want rip", e)
	}
	// RIP metric change while winning: FIB must see the update.
	p.AddRoute(route.ProtoRIP, route.Entry{Net: net, NextHop: mustA("10.0.0.2"), IfName: "eth1", Metric: 3})
	if e := fib.tbl[net]; e.Metric != 3 {
		t.Fatalf("metric update lost: %v", e)
	}
	p.DeleteRoute(route.ProtoRIP, net)
	if _, ok := fib.tbl[net]; ok {
		t.Fatal("route still in FIB")
	}
}

func TestMergeIGPOSPFArbitration(t *testing.T) {
	// The merge(igp,ospf) stage — plumbed since the seed but fed for the
	// first time by the ospf process — must arbitrate a RIP route vs. an
	// OSPF route for the same prefix by admin distance (110 < 120), and
	// re-promote the loser on withdrawal, in both orders.
	p, fib, _ := newRib(t)
	net := mustP("10.2.0.0/16")
	ripE := route.Entry{Net: net, NextHop: mustA("10.0.0.2"), IfName: "eth0", Metric: 2}
	ospfE := route.Entry{Net: net, NextHop: mustA("10.0.0.3"), IfName: "eth0", Metric: 7}

	// RIP first, OSPF second: OSPF must take over.
	p.AddRoute(route.ProtoRIP, ripE)
	if e := fib.tbl[net]; e.Protocol != route.ProtoRIP {
		t.Fatalf("initial winner %v, want rip", e)
	}
	p.AddRoute(route.ProtoOSPF, ospfE)
	e := fib.tbl[net]
	if e.Protocol != route.ProtoOSPF || e.AdminDistance != 110 || e.NextHop != mustA("10.0.0.3") {
		t.Fatalf("winner with both present %v, want ospf ad 110", e)
	}
	// A higher OSPF metric must not matter: admin distance decides.
	if e.Metric != 7 {
		t.Fatalf("ospf metric lost: %v", e)
	}

	// OSPF withdrawal re-promotes the RIP route.
	p.DeleteRoute(route.ProtoOSPF, net)
	e = fib.tbl[net]
	if e.Protocol != route.ProtoRIP || e.AdminDistance != 120 || e.NextHop != mustA("10.0.0.2") {
		t.Fatalf("winner after ospf withdrawal %v, want rip", e)
	}

	// Reverse order: OSPF installed first keeps winning when RIP
	// appears, and RIP's withdrawal while losing is silent.
	p.AddRoute(route.ProtoOSPF, ospfE)
	adds := fib.adds
	p.DeleteRoute(route.ProtoRIP, net)
	if e := fib.tbl[net]; e.Protocol != route.ProtoOSPF || fib.adds != adds {
		t.Fatalf("losing rip withdrawal disturbed FIB: %v (adds %d -> %d)", e, adds, fib.adds)
	}
	p.DeleteRoute(route.ProtoOSPF, net)
	if _, ok := fib.tbl[net]; ok {
		t.Fatal("route still in FIB after both withdrawn")
	}
}

func TestLoserChurnIsSilent(t *testing.T) {
	p, fib, _ := newRib(t)
	net := mustP("10.1.0.0/16")
	p.AddRoute(route.ProtoStatic, route.Entry{Net: net, NextHop: mustA("10.0.0.1"), IfName: "eth0"})
	adds := fib.adds
	// RIP flapping a losing route must not disturb the FIB.
	for i := 0; i < 5; i++ {
		p.AddRoute(route.ProtoRIP, route.Entry{Net: net, NextHop: mustA("10.0.0.2"), IfName: "eth1", Metric: uint32(i + 1)})
		p.DeleteRoute(route.ProtoRIP, net)
	}
	if fib.adds != adds || fib.tbl[net].Protocol != route.ProtoStatic {
		t.Fatalf("loser churn leaked to FIB (adds %d -> %d)", adds, fib.adds)
	}
}

func TestIBGPRecursiveResolution(t *testing.T) {
	// An IBGP route via a remote nexthop is unusable until an IGP route
	// explains how to reach the nexthop (§3: "IncomingIBGP routes
	// normally indicate a nexthop router, rather than an immediate
	// neighbor").
	p, fib, _ := newRib(t)
	bgpNet := mustP("172.16.0.0/12")
	p.AddRoute(route.ProtoIBGP, route.Entry{Net: bgpNet, NextHop: mustA("10.9.9.9")})
	if _, ok := fib.tbl[bgpNet]; ok {
		t.Fatal("unresolvable IBGP route reached FIB")
	}

	// An IGP route to the nexthop appears: the IBGP route resolves
	// through it.
	p.AddRoute(route.ProtoRIP, route.Entry{Net: mustP("10.9.9.0/24"), NextHop: mustA("10.0.0.7"), IfName: "eth2", Metric: 2})
	e, ok := fib.tbl[bgpNet]
	if !ok {
		t.Fatal("IBGP route did not resolve")
	}
	if e.IfName != "eth2" || e.NextHop != mustA("10.0.0.7") {
		t.Fatalf("resolved entry %v, want via 10.0.0.7 dev eth2", e)
	}

	// The IGP route vanishes: the IBGP route must be withdrawn.
	p.DeleteRoute(route.ProtoRIP, mustP("10.9.9.0/24"))
	if _, ok := fib.tbl[bgpNet]; ok {
		t.Fatal("IBGP route survived loss of its IGP cover")
	}
}

func TestResolutionPrefersMoreSpecificIGP(t *testing.T) {
	p, fib, _ := newRib(t)
	p.AddRoute(route.ProtoConnected, connectedRoute("10.9.0.0/16", "eth0"))
	p.AddRoute(route.ProtoRIP, route.Entry{Net: mustP("10.9.9.0/24"), NextHop: mustA("10.0.0.7"), IfName: "eth2", Metric: 2})
	p.AddRoute(route.ProtoEBGP, route.Entry{Net: mustP("172.16.0.0/12"), NextHop: mustA("10.9.9.9")})
	e, ok := fib.tbl[mustP("172.16.0.0/12")]
	if !ok {
		t.Fatal("EBGP route unresolved")
	}
	// The /24 RIP route is more specific than the /16 connected route.
	if e.IfName != "eth2" {
		t.Fatalf("resolved via %q, want eth2 (more specific cover)", e.IfName)
	}
	// Now the /24 disappears; resolution falls back to the connected /16,
	// where the nexthop is on-link (gateway stays the BGP nexthop).
	p.DeleteRoute(route.ProtoRIP, mustP("10.9.9.0/24"))
	e = fib.tbl[mustP("172.16.0.0/12")]
	if e.IfName != "eth0" || e.NextHop != mustA("10.9.9.9") {
		t.Fatalf("fallback resolution %v, want on-link via eth0", e)
	}
}

func TestEBGPBeatsIGPForSamePrefix(t *testing.T) {
	p, fib, _ := newRib(t)
	net := mustP("10.1.0.0/16")
	p.AddRoute(route.ProtoConnected, connectedRoute("10.0.0.0/8", "eth0"))
	p.AddRoute(route.ProtoRIP, route.Entry{Net: net, NextHop: mustA("10.0.0.2"), IfName: "eth1", Metric: 4})
	p.AddRoute(route.ProtoEBGP, route.Entry{Net: net, NextHop: mustA("10.0.0.3")})
	e := fib.tbl[net]
	if e.Protocol != route.ProtoEBGP {
		t.Fatalf("winner %v, want ebgp (AD 20 < 120)", e)
	}
	// But connected beats EBGP.
	p.AddRoute(route.ProtoConnected, connectedRoute("10.1.0.0/16", "eth3"))
	e = fib.tbl[net]
	if e.Protocol != route.ProtoConnected {
		t.Fatalf("winner %v, want connected", e)
	}
}

func TestRegisterInterestFigure8(t *testing.T) {
	// The exact scenario of Figure 8.
	p, _, _ := newRib(t)
	for _, s := range []string{"128.16.0.0/16", "128.16.0.0/18", "128.16.128.0/17", "128.16.192.0/18"} {
		p.AddRoute(route.ProtoStatic, route.Entry{Net: mustP(s), NextHop: mustA("10.0.0.1"), IfName: "eth0"})
	}
	rs := p.Register()

	ans := rs.RegisterInterest("bgp", mustA("128.16.32.1"))
	if !ans.Resolves || ans.Covering != mustP("128.16.0.0/18") {
		t.Fatalf("128.16.32.1 -> %+v, want covering 128.16.0.0/18", ans)
	}
	if ans.Route.Net != mustP("128.16.0.0/18") {
		t.Fatalf("matched route %v", ans.Route.Net)
	}

	// 128.16.160.1: most specific is 128.16.128.0/17, but it is overlaid
	// by 128.16.192.0/18, so the answer is valid only for
	// 128.16.128.0/18 — "the largest enclosing subnet that is not
	// overlayed by a more specific route".
	ans = rs.RegisterInterest("bgp", mustA("128.16.160.1"))
	if !ans.Resolves || ans.Covering != mustP("128.16.128.0/18") {
		t.Fatalf("128.16.160.1 -> covering %v, want 128.16.128.0/18", ans.Covering)
	}
	if ans.Route.Net != mustP("128.16.128.0/17") {
		t.Fatalf("matched route %v, want the /17", ans.Route.Net)
	}

	// Unrouted address: negative answer with its own covering hole.
	ans = rs.RegisterInterest("bgp", mustA("1.2.3.4"))
	if ans.Resolves {
		t.Fatal("unrouted address resolved")
	}
	if ans.Covering.Contains(mustA("128.16.0.1")) {
		t.Fatalf("negative covering %v overlaps routed space", ans.Covering)
	}
}

func TestRegisterInvalidation(t *testing.T) {
	p, _, _ := newRib(t)
	p.AddRoute(route.ProtoStatic, route.Entry{Net: mustP("128.16.0.0/16"), NextHop: mustA("10.0.0.1"), IfName: "eth0"})
	rs := p.Register()
	var invalidated []netip.Prefix
	rs.notify = func(client string, covering netip.Prefix) {
		invalidated = append(invalidated, covering)
	}
	ans := rs.RegisterInterest("bgp", mustA("128.16.32.1"))
	if rs.Registrations() != 1 {
		t.Fatal("registration not recorded")
	}
	// A more specific route appears inside the covering subnet: the
	// client's cache must be invalidated and the registration dropped.
	p.AddRoute(route.ProtoStatic, route.Entry{Net: mustP("128.16.32.0/24"), NextHop: mustA("10.0.0.2"), IfName: "eth0"})
	if len(invalidated) != 1 || invalidated[0] != ans.Covering {
		t.Fatalf("invalidations %v", invalidated)
	}
	if rs.Registrations() != 0 {
		t.Fatal("registration not dropped after invalidation")
	}
	// Re-query now returns the more specific cover.
	ans2 := rs.RegisterInterest("bgp", mustA("128.16.32.1"))
	if ans2.Route.Net != mustP("128.16.32.0/24") {
		t.Fatalf("re-query matched %v", ans2.Route.Net)
	}
	// Unrelated change: no invalidation.
	invalidated = nil
	p.AddRoute(route.ProtoStatic, route.Entry{Net: mustP("99.0.0.0/8"), NextHop: mustA("10.0.0.3"), IfName: "eth0"})
	if len(invalidated) != 0 {
		t.Fatalf("unrelated change invalidated %v", invalidated)
	}
}

func TestRegisterCoveringsNeverOverlap(t *testing.T) {
	// "No largest enclosing subnet ever overlaps any other in the cached
	// data" — the invariant that lets clients use balanced trees.
	p, _, _ := newRib(t)
	nets := []string{"10.0.0.0/8", "10.128.0.0/9", "10.128.0.0/16", "10.192.0.0/12", "10.255.0.0/24"}
	for _, s := range nets {
		p.AddRoute(route.ProtoStatic, route.Entry{Net: mustP(s), NextHop: mustA("10.0.0.1"), IfName: "eth0"})
	}
	rs := p.Register()
	var coverings []netip.Prefix
	for i := 0; i < 256; i++ {
		addr := netip.AddrFrom4([4]byte{10, byte(i), byte(i * 3), byte(i * 7)})
		ans := rs.RegisterInterest("c", addr)
		if !ans.Covering.Contains(addr) {
			t.Fatalf("covering %v does not contain %v", ans.Covering, addr)
		}
		coverings = append(coverings, ans.Covering)
	}
	distinct := map[netip.Prefix]bool{}
	for i := range coverings {
		distinct[coverings[i]] = true
		for j := i + 1; j < len(coverings); j++ {
			if coverings[i] != coverings[j] && coverings[i].Overlaps(coverings[j]) {
				t.Fatalf("coverings overlap: %v vs %v", coverings[i], coverings[j])
			}
		}
	}
	if rs.Registrations() != len(distinct) {
		t.Fatalf("%d registrations for %d distinct coverings", rs.Registrations(), len(distinct))
	}
}

// A client asking about several addresses under one covering subnet holds
// one registration: one invalidation per change, gone after one deregister.
func TestRegisterInterestOncePerCovering(t *testing.T) {
	p, _, _ := newRib(t)
	p.AddRoute(route.ProtoStatic, route.Entry{Net: mustP("128.16.0.0/16"), NextHop: mustA("10.0.0.1"), IfName: "eth0"})
	rs := p.Register()
	var invalidated []string
	rs.notify = func(client string, covering netip.Prefix) {
		invalidated = append(invalidated, client+" "+covering.String())
	}
	a := rs.RegisterInterest("bgp", mustA("128.16.32.1"))
	b := rs.RegisterInterest("bgp", mustA("128.16.77.1"))
	if a.Covering != b.Covering {
		t.Fatalf("coverings %v and %v, want one subnet", a.Covering, b.Covering)
	}
	rs.RegisterInterest("rip", mustA("128.16.32.1")) // another client is another registration
	if rs.Registrations() != 2 {
		t.Fatalf("%d registrations, want 2 (one per client)", rs.Registrations())
	}
	p.AddRoute(route.ProtoStatic, route.Entry{Net: mustP("128.16.32.0/24"), NextHop: mustA("10.0.0.2"), IfName: "eth0"})
	if want := []string{"bgp 128.16.0.0/16", "rip 128.16.0.0/16"}; !slices.Equal(invalidated, want) {
		t.Fatalf("invalidations %v, want %v", invalidated, want)
	}

	rs.RegisterInterest("bgp", mustA("128.16.99.1"))
	c := rs.RegisterInterest("bgp", mustA("128.16.99.2"))
	rs.DeregisterInterest("bgp", c.Covering)
	if rs.Registrations() != 0 {
		t.Fatalf("%d registrations left after deregistering the only covering", rs.Registrations())
	}
}

// redistRec records redistribution callbacks.
type redistRec struct {
	got  map[netip.Prefix]route.Entry
	adds int
	dels int
}

func newRedistRec() *redistRec { return &redistRec{got: make(map[netip.Prefix]route.Entry)} }

func (r *redistRec) RedistAdd(e route.Entry) {
	r.got[e.Net] = e
	r.adds++
}

func (r *redistRec) RedistDelete(e route.Entry) {
	delete(r.got, e.Net)
	r.dels++
}

func TestRedistFilteredMirror(t *testing.T) {
	p, _, _ := newRib(t)
	p.AddRoute(route.ProtoStatic, route.Entry{Net: mustP("10.1.0.0/16"), NextHop: mustA("10.0.0.1"), IfName: "eth0"})
	p.AddRoute(route.ProtoRIP, route.Entry{Net: mustP("10.2.0.0/16"), NextHop: mustA("10.0.0.2"), IfName: "eth1", Metric: 3})

	rec := newRedistRec()
	// Redistribute only static routes (the classic redistribution policy).
	onlyStatic := func(e route.Entry) *route.Entry {
		if e.Protocol != route.ProtoStatic {
			return nil
		}
		return &e
	}
	if _, err := p.AddRedist("static-to-bgp", "", onlyStatic, rec); err != nil {
		t.Fatal(err)
	}
	// Priming: the existing static route arrives immediately.
	if len(rec.got) != 1 || rec.got[mustP("10.1.0.0/16")].Protocol != route.ProtoStatic {
		t.Fatalf("primed mirror %v", rec.got)
	}
	// New static route flows through; RIP does not.
	p.AddRoute(route.ProtoStatic, route.Entry{Net: mustP("10.3.0.0/16"), NextHop: mustA("10.0.0.1"), IfName: "eth0"})
	p.AddRoute(route.ProtoRIP, route.Entry{Net: mustP("10.4.0.0/16"), NextHop: mustA("10.0.0.2"), IfName: "eth1", Metric: 1})
	if len(rec.got) != 2 {
		t.Fatalf("mirror %v", rec.got)
	}
	// Deletion propagates.
	p.DeleteRoute(route.ProtoStatic, mustP("10.1.0.0/16"))
	if len(rec.got) != 1 {
		t.Fatalf("mirror after delete %v", rec.got)
	}
	// Removing the redist stage withdraws everything.
	if err := p.RemoveRedist("static-to-bgp"); err != nil {
		t.Fatal(err)
	}
	if len(rec.got) != 0 {
		t.Fatalf("mirror after removal %v", rec.got)
	}
	// FIB unaffected throughout: the RIB still holds 3 live routes.
	if p.Len() != 3 {
		t.Fatalf("rib len %d", p.Len())
	}
}

// seqRec records the order of redistribution callbacks.
type seqRec struct{ seq []string }

func (r *seqRec) RedistAdd(e route.Entry) {
	r.seq = append(r.seq, fmt.Sprintf("add %v metric %d", e.Net, e.Metric))
}
func (r *seqRec) RedistDelete(e route.Entry) {
	r.seq = append(r.seq, fmt.Sprintf("delete %v metric %d", e.Net, e.Metric))
}

// TestSetRedistFilterReplay swaps a redistribution's filter back and forth
// over a populated table: the subscriber sees exactly the difference between
// the two filters, in prefix order, the same on every run, and nothing for a
// route both filters treat alike.
func TestSetRedistFilterReplay(t *testing.T) {
	onlyStatic := func(e route.Entry) *route.Entry {
		if e.Protocol != route.ProtoStatic {
			return nil
		}
		return &e
	}
	bumpRIP := func(e route.Entry) *route.Entry {
		if e.Protocol == route.ProtoRIP {
			e.Metric += 10
		}
		return &e
	}
	run := func() []string {
		p, _, _ := newRib(t)
		for i := 0; i < 4; i++ {
			p.AddRoute(route.ProtoStatic, route.Entry{
				Net: netip.PrefixFrom(netip.AddrFrom4([4]byte{10, byte(2 * i), 0, 0}), 16), NextHop: mustA("10.0.0.1"), IfName: "eth0"})
			p.AddRoute(route.ProtoRIP, route.Entry{
				Net: netip.PrefixFrom(netip.AddrFrom4([4]byte{10, byte(2*i + 1), 0, 0}), 16), NextHop: mustA("10.0.0.2"), IfName: "eth1", Metric: 3})
		}
		rec := &seqRec{}
		if _, err := p.AddRedist("r", "", nil, rec); err != nil {
			t.Fatal(err)
		}
		if len(rec.seq) != 8 {
			t.Fatalf("primed with %v", rec.seq)
		}
		var all []string
		for _, step := range []struct {
			filter RedistFilter
			want   []string
		}{
			{onlyStatic, []string{
				"delete 10.1.0.0/16 metric 3", "delete 10.3.0.0/16 metric 3",
				"delete 10.5.0.0/16 metric 3", "delete 10.7.0.0/16 metric 3"}},
			{onlyStatic, nil},
			{bumpRIP, []string{
				"add 10.1.0.0/16 metric 13", "add 10.3.0.0/16 metric 13",
				"add 10.5.0.0/16 metric 13", "add 10.7.0.0/16 metric 13"}},
			{nil, []string{
				"delete 10.1.0.0/16 metric 13", "add 10.1.0.0/16 metric 3",
				"delete 10.3.0.0/16 metric 13", "add 10.3.0.0/16 metric 3",
				"delete 10.5.0.0/16 metric 13", "add 10.5.0.0/16 metric 3",
				"delete 10.7.0.0/16 metric 13", "add 10.7.0.0/16 metric 3"}},
		} {
			rec.seq = nil
			if err := p.SetRedistFilter("r", step.filter); err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(rec.seq, step.want) {
				t.Fatalf("subscriber saw %v, want %v", rec.seq, step.want)
			}
			all = append(all, rec.seq...)
		}
		if p.RedistMirrored("r") != 8 {
			t.Fatalf("mirror holds %d routes, want 8", p.RedistMirrored("r"))
		}
		return all
	}
	if first, second := run(), run(); !slices.Equal(first, second) {
		t.Fatalf("two identical runs differ:\n%v\n%v", first, second)
	}
}

// A filter swap works on the mirror and the final table: it builds nothing
// the size of the table.
func TestSetRedistFilterAllocs(t *testing.T) {
	p, _, _ := newRib(t)
	for i := 0; i < 5000; i++ {
		p.AddRoute(route.ProtoStatic, route.Entry{
			Net: netip.PrefixFrom(netip.AddrFrom4([4]byte{10, byte(i >> 8), byte(i), 0}), 24), NextHop: mustA("10.0.0.1"), IfName: "eth0"})
	}
	none := func(route.Entry) *route.Entry { return nil }
	if _, err := p.AddRedist("r", "", none, newRedistRec()); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(5, func() {
		if err := p.SetRedistFilter("r", none); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 4 {
		t.Fatalf("a filter swap over 5000 routes allocates %.0f times", allocs)
	}
}

func TestOriginDeleteAllBackground(t *testing.T) {
	p, fib, loop := newRib(t)
	for i := 0; i < 300; i++ {
		net := netip.PrefixFrom(netip.AddrFrom4([4]byte{10, byte(i >> 8), byte(i), 0}), 24)
		p.AddRoute(route.ProtoRIP, route.Entry{Net: net, NextHop: mustA("10.0.0.2"), IfName: "eth1", Metric: 1})
	}
	if len(fib.tbl) != 300 {
		t.Fatalf("fib %d", len(fib.tbl))
	}
	p.Origin(route.ProtoRIP).DeleteAll()
	loop.RunPending()
	if len(fib.tbl) != 0 {
		t.Fatalf("fib %d after DeleteAll", len(fib.tbl))
	}
}

func TestLookupBest(t *testing.T) {
	p, _, _ := newRib(t)
	p.AddRoute(route.ProtoStatic, route.Entry{Net: mustP("10.0.0.0/8"), NextHop: mustA("10.0.0.1"), IfName: "eth0"})
	p.AddRoute(route.ProtoStatic, route.Entry{Net: mustP("10.5.0.0/16"), NextHop: mustA("10.0.0.2"), IfName: "eth1"})
	e, ok := p.LookupBest(mustA("10.5.1.1"))
	if !ok || e.Net != mustP("10.5.0.0/16") {
		t.Fatalf("LookupBest %v %v", e, ok)
	}
	e, ok = p.LookupBest(mustA("10.6.1.1"))
	if !ok || e.Net != mustP("10.0.0.0/8") {
		t.Fatalf("LookupBest fallback %v %v", e, ok)
	}
	if _, ok := p.LookupBest(mustA("11.0.0.1")); ok {
		t.Fatal("uncovered address resolved")
	}
}

func TestIPv6Routes(t *testing.T) {
	// The stage network is address-family generic (the paper used C++
	// templates; we use one trie per family behind the same stages).
	p, fib, _ := newRib(t)
	p.AddRoute(route.ProtoStatic, route.Entry{
		Net: mustP("2001:db8::/32"), NextHop: mustA("fe80::1"), IfName: "eth0",
	})
	p.AddRoute(route.ProtoStatic, route.Entry{
		Net: mustP("10.0.0.0/8"), NextHop: mustA("192.168.1.254"), IfName: "eth0",
	})
	if len(fib.tbl) != 2 {
		t.Fatalf("fib holds %d entries", len(fib.tbl))
	}
	if e, ok := fib.tbl[mustP("2001:db8::/32")]; !ok || e.NextHop != mustA("fe80::1") {
		t.Fatalf("v6 entry %+v %v", e, ok)
	}
	if err := p.DeleteRoute(route.ProtoStatic, mustP("2001:db8::/32")); err != nil {
		t.Fatal(err)
	}
	if _, ok := fib.tbl[mustP("2001:db8::/32")]; ok {
		t.Fatal("v6 route not removed")
	}
}

// rib_route_events_total counts what the origin table accepted: every add,
// and only the deletes that found their prefix.
func TestRouteEventsCountAcceptedWork(t *testing.T) {
	have, have2, missing := mustP("10.1.0.0/16"), mustP("10.2.0.0/16"), mustP("10.9.0.0/16")
	cases := []struct {
		name    string
		do      func(p *Process) error
		wantErr bool
		want    float64
	}{
		{"single add", func(p *Process) error {
			return p.AddRoute(route.ProtoStatic, connectedRoute("10.3.0.0/16", "eth0"))
		}, false, 1},
		{"list add", func(p *Process) error {
			return p.AddRoutes(route.ProtoStatic, []route.Entry{
				connectedRoute("10.3.0.0/16", "eth0"), connectedRoute("10.4.0.0/16", "eth0")})
		}, false, 2},
		{"single delete hit", func(p *Process) error { return p.DeleteRoute(route.ProtoStatic, have) }, false, 1},
		{"single delete miss", func(p *Process) error { return p.DeleteRoute(route.ProtoStatic, missing) }, true, 0},
		{"list delete hit", func(p *Process) error {
			return p.DeleteRoutes(route.ProtoStatic, []netip.Prefix{have, have2})
		}, false, 2},
		{"list delete miss", func(p *Process) error {
			return p.DeleteRoutes(route.ProtoStatic, []netip.Prefix{missing})
		}, false, 0},
		{"list delete hit and miss", func(p *Process) error {
			return p.DeleteRoutes(route.ProtoStatic, []netip.Prefix{missing, have})
		}, false, 1},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			p, _, _ := newRib(t)
			for _, net := range []netip.Prefix{have, have2} {
				if err := p.AddRoute(route.ProtoStatic, route.Entry{Net: net, IfName: "eth0"}); err != nil {
					t.Fatal(err)
				}
			}
			before, _ := p.Metrics().Get("rib_route_events_total")
			if err := c.do(p); (err != nil) != c.wantErr {
				t.Fatalf("err = %v, want error %v", err, c.wantErr)
			}
			after, _ := p.Metrics().Get("rib_route_events_total")
			if after-before != c.want {
				t.Fatalf("counted %v events, want %v", after-before, c.want)
			}
		})
	}
}
