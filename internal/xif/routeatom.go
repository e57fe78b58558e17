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

// EncodeRouteAtoms encodes a batch of entries as list items.
func EncodeRouteAtoms(es []route.Entry) []xrl.Atom {
	items := make([]xrl.Atom, len(es))
	for i := range es {
		items[i] = EncodeRouteAtom(es[i])
	}
	return items
}

// EncodeNetAtoms encodes a batch of prefixes as delete_routes4 /
// delete_entries4 list items.
func EncodeNetAtoms(nets []netip.Prefix) []xrl.Atom {
	items := make([]xrl.Atom, len(nets))
	for i := range nets {
		items[i] = xrl.Net("", nets[i])
	}
	return items
}

// decodeRouteList decodes the items of an add_routes4 / add_entries4
// list. Everything is decoded before the server sees any of it: a
// malformed item must reject the whole batch, not leave it half-applied.
func decodeRouteList(items []xrl.Atom) ([]route.Entry, error) {
	es := make([]route.Entry, 0, len(items))
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
// list.
func decodeNetList(items []xrl.Atom) ([]netip.Prefix, error) {
	nets := make([]netip.Prefix, 0, len(items))
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
