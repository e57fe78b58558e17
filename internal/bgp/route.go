package bgp

import (
	"fmt"
	"net/netip"
)

// PeerHandle identifies the peering a route was learned from. It is the
// stable identity used by stages (split horizon, decision tiebreaks);
// the live FSM state lives in Peer, which embeds one of these.
type PeerHandle struct {
	// Name is the configuration name of the peering.
	Name string
	// Addr is the neighbor address.
	Addr netip.Addr
	// AS is the neighbor's AS number.
	AS uint16
	// BGPID is the neighbor's router id (zero until OPEN is seen).
	BGPID netip.Addr
	// IBGP is true when the neighbor AS equals the local AS.
	IBGP bool
}

func (p *PeerHandle) String() string {
	if p == nil {
		return "<local>"
	}
	return fmt.Sprintf("%s(%v AS%d)", p.Name, p.Addr, p.AS)
}

// Route is a BGP route flowing through the staged pipeline, and it is a
// value: every stage message carries its own copy and every Lookup answer
// is written into the asker's own, so nobody reads a route through somebody
// else's object. The PeerIn stores
// one attribute pointer per prefix and builds the Route — its trie key, the
// stored set, its own peer — on the way out; a filter bank that rewrites the
// attributes sends the value on under the new set, which leaves what the
// PeerIn stores pristine (§5.1).
type Route struct {
	// Net is the destination prefix.
	Net netip.Prefix
	// Attrs is the path attribute set.
	Attrs *PathAttrs
	// Src is the peering the route was learned from (nil for routes
	// originated locally, e.g. redistributed into BGP).
	Src *PeerHandle

	// IGPMetric and Resolvable are the nexthop resolver's annotation from
	// RIB data ("hot potato" inputs, §3). They are a function of the nexthop
	// alone: the resolver keeps them per nexthop and stamps them into each
	// value it sends downstream and each Lookup answer it gives, so a route
	// upstream of it carries zeroes, and a holder downstream the annotation
	// of the moment the value was emitted — a change of the nexthop's entry
	// arrives as a Replace.
	IGPMetric  uint32
	Resolvable bool

	// sole is the PeerIn's word on the moment it emitted the route: its
	// peer is the prefix's only holder (an announcement) or none is left (a
	// withdrawal), so the decision process need not look for alternatives
	// (Decision.bestExcluding). It lives in the struct's padding and is
	// false on every route built any other way; a stage that keeps a route
	// to emit later clears it, and Decision clears it on all it emits.
	sole bool
}

// LocalPrefOrDefault returns LOCAL_PREF with the RFC default of 100 when
// absent.
func (r *Route) LocalPrefOrDefault() uint32 {
	if r.Attrs.HasLocalPref {
		return r.Attrs.LocalPref
	}
	return 100
}

// medOrZero treats a missing MED as best (0), the common vendor default.
func (r *Route) medOrZero() uint32 {
	if r.Attrs.HasMED {
		return r.Attrs.MED
	}
	return 0
}

// neighborAS returns the first AS of the AS_PATH (the advertising
// neighbor's AS), or 0 for a local/empty path.
func (r *Route) neighborAS() uint16 {
	for _, seg := range r.Attrs.ASPath {
		if len(seg.ASes) > 0 {
			return seg.ASes[0]
		}
	}
	return 0
}

// Better implements the BGP decision process ordering (§5.1.1; RFC 4271
// §9.1.2): it reports whether r should be preferred over o. Either may be
// nil (a real route beats no route).
func (r *Route) Better(o *Route) bool {
	if o == nil {
		return r != nil
	}
	if r == nil {
		return false
	}
	// 0. Unresolvable routes are not usable.
	if r.Resolvable != o.Resolvable {
		return r.Resolvable
	}
	// 1. Highest LOCAL_PREF.
	if lp, lo := r.LocalPrefOrDefault(), o.LocalPrefOrDefault(); lp != lo {
		return lp > lo
	}
	// 2. Shortest AS_PATH.
	if lr, lo := r.Attrs.ASPath.Length(), o.Attrs.ASPath.Length(); lr != lo {
		return lr < lo
	}
	// 3. Lowest ORIGIN.
	if r.Attrs.Origin != o.Attrs.Origin {
		return r.Attrs.Origin < o.Attrs.Origin
	}
	// 4. Lowest MED among routes from the same neighbor AS.
	if r.neighborAS() == o.neighborAS() {
		if mr, mo := r.medOrZero(), o.medOrZero(); mr != mo {
			return mr < mo
		}
	}
	// 5. EBGP over IBGP.
	rEBGP := r.Src == nil || !r.Src.IBGP
	oEBGP := o.Src == nil || !o.Src.IBGP
	if rEBGP != oEBGP {
		return rEBGP
	}
	// 6. Lowest IGP metric to the NEXT_HOP ("hot potato").
	if r.IGPMetric != o.IGPMetric {
		return r.IGPMetric < o.IGPMetric
	}
	// 7. Lowest neighbor BGP ID, then lowest neighbor address.
	rid, oid := routeID(r), routeID(o)
	if rid != oid {
		return rid.Less(oid)
	}
	raddr, oaddr := routeAddr(r), routeAddr(o)
	if raddr != oaddr {
		return raddr.Less(oaddr)
	}
	return false
}

func routeID(r *Route) netip.Addr {
	if r.Src != nil && r.Src.BGPID.IsValid() {
		return r.Src.BGPID
	}
	return netip.AddrFrom4([4]byte{})
}

func routeAddr(r *Route) netip.Addr {
	if r.Src != nil && r.Src.Addr.IsValid() {
		return r.Src.Addr
	}
	return netip.AddrFrom4([4]byte{})
}

// SameRoute reports whether two routes are equivalent for announcement
// purposes (same prefix, source and attributes).
func SameRoute(a, b *Route) bool {
	if a == nil || b == nil {
		return a == b
	}
	return a.Net == b.Net && a.Src == b.Src && a.Attrs.Equal(b.Attrs)
}
