package bgp

// Shared test builders. Every test and bench constructs attrs through
// these (not ad-hoc literals in helpers), so a representation change —
// like the interned attr pool — propagates to what the benches measure
// instead of leaving them exercising a dead code shape.

import (
	"net/netip"

	"xorp/internal/core"
)

func mustP(s string) netip.Prefix { return netip.MustParsePrefix(s) }
func mustA(s string) netip.Addr   { return netip.MustParseAddr(s) }

// testAttrs returns the canonical two-hop EBGP attr set.
func testAttrs() *PathAttrs {
	return &PathAttrs{
		Origin:  OriginIGP,
		ASPath:  ASPath{{Type: SegSequence, ASes: []uint16{65001, 65002}}},
		NextHop: mustA("192.168.1.1"),
	}
}

// attrsVia builds an attr set learned from nexthop nh over path ases.
func attrsVia(nh string, ases ...uint16) *PathAttrs {
	return &PathAttrs{
		Origin:  OriginIGP,
		ASPath:  ASPath{{Type: SegSequence, ASes: ases}},
		NextHop: mustA(nh),
	}
}

// fullAttrs returns a set carrying every attribute the codec knows, its
// path a sequence followed by a set.
func fullAttrs() *PathAttrs {
	return &PathAttrs{
		Origin:          OriginEGP,
		ASPath:          ASPath{{Type: SegSequence, ASes: []uint16{65001, 65002, 65003}}, {Type: SegSet, ASes: []uint16{64512, 64513}}},
		NextHop:         mustA("10.1.1.1"),
		MED:             50,
		HasMED:          true,
		LocalPref:       200,
		HasLocalPref:    true,
		AtomicAggregate: true,
		AggregatorAS:    65100,
		AggregatorAddr:  mustA("10.9.9.9"),
		HasAggregator:   true,
		Communities:     []uint32{0x00010002, 0xffff0001},
	}
}

// testPeer returns a PeerHandle for tests.
func testPeer(name string, addr string, as uint16, ibgp bool) *PeerHandle {
	return &PeerHandle{Name: name, Addr: mustA(addr), AS: as, IBGP: ibgp}
}

// lookup returns stage s's answer for net as tests like to read it: nil when
// there is none.
func lookup(s core.Table[Route], net netip.Prefix) *Route {
	if r := new(Route); s.Lookup(net, r) {
		return r
	}
	return nil
}
