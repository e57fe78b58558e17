package xif

import (
	"fmt"
	"net/netip"

	"xorp/internal/route"
	"xorp/internal/xrl"
)

// The add_routes4 / delete_routes4 / add_entries4 / delete_entries4 XRLs
// carry a whole run of routes in one message, so a protocol dumping a
// table (or the BGP feed during a full-table load) pays the IPC fixed
// cost once per run instead of once per route. Each route rides in the
// list as one typed atom — a route atom for an add, an ipv4net/ipv6net
// atom for a delete — so it crosses the hop as the values it is made of,
// never as text. This file owns that encoding, shared by the RIB/FEA-side
// handlers and every typed client stub.
//
// Textual XRLs have flat lists (every item is a txt atom), so the
// decoders also accept a txt item holding the atom's textual value,
// "net nexthop metric ifname" with "-" for an absent nexthop or
// interface, or a bare prefix: that is how call_xrl and the spec samples
// spell the same atoms.

// EncodeRouteAtom renders e as an add_routes4 / add_entries4 list item.
func EncodeRouteAtom(e route.Entry) xrl.Atom {
	return xrl.Route("", e.Net, e.NextHop, e.Metric, e.IfName)
}

// DecodeRouteAtom turns an add_routes4 / add_entries4 list item back
// into an Entry.
func DecodeRouteAtom(a xrl.Atom) (route.Entry, error) {
	if a.Type == xrl.TypeText {
		var err error
		if a, err = xrl.ParseAtomValue("", xrl.TypeRoute, a.TextVal); err != nil {
			return route.Entry{}, err
		}
	}
	if a.Type != xrl.TypeRoute || !a.NetVal.IsValid() {
		return route.Entry{}, fmt.Errorf("xif: list item %v is not a route", a)
	}
	return route.Entry{Net: a.NetVal, NextHop: a.AddrVal, Metric: uint32(a.IntVal), IfName: a.TextVal}, nil
}

// putRoutes encodes es as list items, into items.
func putRoutes(items []xrl.Atom, es []route.Entry) {
	for i := range es {
		items[i] = EncodeRouteAtom(es[i])
	}
}

// putNets encodes nets as delete_routes4 / delete_entries4 list items,
// into items.
func putNets(items []xrl.Atom, nets []netip.Prefix) {
	for i := range nets {
		items[i] = xrl.Net("", nets[i])
	}
}

// scratch is what a list binding decodes a call's items into, reused
// call after call: a target runs its handlers one at a time, and a run is
// valid for the call only, so the run one handler decoded is dead once it
// returns. A handler entered again before it returns (its server sent a
// local target the same method from the loop) takes storage of its own.
type scratch[T any] struct {
	buf   []T
	used  int // room the outermost call took
	depth int // calls using the scratch's storage, or nested in one that is
}

// take returns an empty slice with room for n; give must follow once the
// call is done with it.
func (s *scratch[T]) take(n int) []T {
	if s.depth++; s.depth > 1 {
		return make([]T, 0, n)
	}
	if cap(s.buf) < n {
		s.buf = make([]T, 0, n)
	}
	s.used = n
	return s.buf[:0]
}

// give ends the call that took last: the outermost call's storage is
// zeroed, so it pins nothing, and dropped when it is wider than
// xrl.MaxKeptItems.
func (s *scratch[T]) give() {
	if s.depth--; s.depth > 0 {
		return
	}
	clear(s.buf[:s.used])
	if cap(s.buf) > xrl.MaxKeptItems {
		s.buf = nil
	}
}

// decodeRouteList decodes the items of an add_routes4 / add_entries4
// list, appending to es. Everything is decoded before the server sees any
// of it: a malformed item must reject the whole batch, not leave it
// half-applied.
func decodeRouteList(es []route.Entry, items []xrl.Atom) ([]route.Entry, error) {
	for i := range items {
		e, err := DecodeRouteAtom(items[i])
		if err != nil {
			return nil, xrl.Errorf(xrl.CodeBadArgs, "%v", err)
		}
		es = append(es, e)
	}
	return es, nil
}

// decodeNetList decodes the items of a delete_routes4 / delete_entries4
// list, appending to nets.
func decodeNetList(nets []netip.Prefix, items []xrl.Atom) ([]netip.Prefix, error) {
	for i := range items {
		it := &items[i]
		var net netip.Prefix
		switch it.Type {
		case xrl.TypeIPv4Net, xrl.TypeIPv6Net:
			net = it.NetVal
		case xrl.TypeText:
			net, _ = netip.ParsePrefix(it.TextVal)
		}
		if !net.IsValid() {
			return nil, xrl.Errorf(xrl.CodeBadArgs, "xif: list item %v is not a network", *it)
		}
		nets = append(nets, net)
	}
	return nets, nil
}
