package rtrmgr

import (
	"net/netip"
	"testing"
	"time"

	"xorp/internal/bgp"
	"xorp/internal/eventloop"
	"xorp/internal/route"
	"xorp/internal/workload"
)

// tableCopy is a redistribution subscriber that keeps what it is given:
// primed with the RIB's final table, it is that table.
type tableCopy map[netip.Prefix]route.Entry

func (c tableCopy) RedistAdd(e route.Entry)    { c[e.Net] = e }
func (c tableCopy) RedistDelete(e route.Entry) { delete(c, e.Net) }

// longest is the oracle: a linear scan of the whole table for the longest
// prefix holding a.
func (c tableCopy) longest(a netip.Addr) (route.Entry, bool) {
	var best route.Entry
	found := false
	for net, e := range c {
		if net.Contains(a) && (!found || net.Bits() > best.Net.Bits()) {
			best, found = e, true
		}
	}
	return best, found
}

// lastAddr returns the last address of p.
func lastAddr(p netip.Prefix) netip.Addr {
	a := p.Masked().Addr().As4()
	for i := p.Bits(); i < 32; i++ {
		a[i/8] |= 0x80 >> (i % 8)
	}
	return netip.AddrFrom4(a)
}

// TestForwardingMatchesRIBLongestMatch is the assembly's LPM oracle: with a
// static 10.0.0.0/8 cover and BGP routes for 10.1.0.0/16 and 10.1.2.0/24
// nested in it, every probe's forwarding answer (the FEA's live snapshot)
// must be the longest match a linear scan finds in the RIB's final table.
// The probes are the first, middle and last address of each prefix the RIB
// holds and the addresses just outside each, which fall between the nested
// prefixes. A lookup that stops at the first covering prefix answers the /8
// or the /16 for an address of the /24.
func TestForwardingMatchesRIBLongestMatch(t *testing.T) {
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
	var ierr error
	r.BGP.Loop().Dispatch(func() {
		ierr = r.BGP.InjectUpdate("p1", &bgp.UpdateMsg{
			Attrs: workload.TestAttrs(mustA("10.0.0.1"), 65002),
			NLRI:  []netip.Prefix{mustP("10.1.0.0/16"), mustP("10.1.2.0/24")},
		})
	})
	r.SettleAll()
	if ierr != nil {
		t.Fatal(ierr)
	}

	rib := tableCopy{}
	r.RIB.Loop().Dispatch(func() { _, ierr = r.RIB.AddRedist("lpm-oracle", "", nil, rib) })
	r.SettleAll()
	if ierr != nil {
		t.Fatal(ierr)
	}
	for _, net := range []string{"10.0.0.0/8", "10.1.0.0/16", "10.1.2.0/24"} {
		if _, ok := rib[mustP(net)]; !ok {
			t.Fatalf("the RIB's final table has no %s: %v", net, rib)
		}
	}

	var probes []netip.Addr
	for net := range rib {
		first, last := net.Masked().Addr(), lastAddr(net)
		mid := lastAddr(netip.PrefixFrom(first, net.Bits()+1))
		probes = append(probes, first, mid, last, first.Prev(), last.Next())
	}
	snap := r.FEA.Snapshots().Current() // read on no loop: every loop is settled
	for _, a := range probes {
		if !a.IsValid() {
			continue
		}
		want, wantOK := rib.longest(a)
		got, ok := snap.Lookup(a)
		if ok != wantOK || ok && (got.Net != want.Net || got.NextHop != want.NextHop || got.IfName != want.IfName) {
			t.Errorf("%v forwards by %v via %v %q (found %v); the RIB's longest match is %v via %v %q (found %v)",
				a, got.Net, got.NextHop, got.IfName, ok, want.Net, want.NextHop, want.IfName, wantOK)
		}
	}
}
