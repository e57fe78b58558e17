// Package route defines the route representations shared by the RIB, the
// routing protocols and the FEA: protocol identities, administrative
// distances, and the RIB-level route in its two forms. Entry is the message:
// what a run, a FIB batch, an XRL atom and every exported signature carry.
// Stored is what a table keeps under the prefix: the route less its key.
package route

import (
	"encoding/binary"
	"fmt"
	"net/netip"
	"sync/atomic"
	"unique"
	"unsafe"
)

// Protocol identifies the origin protocol of a route.
type Protocol uint8

// The routing protocols of the paper's Figure 1.
const (
	ProtoUnknown Protocol = iota
	ProtoConnected
	ProtoStatic
	ProtoEBGP
	ProtoOSPF
	ProtoISIS
	ProtoRIP
	ProtoIBGP
	// ProtoExperimental is reserved for extension protocols (§8.3's
	// "Adding a New Routing Protocol").
	ProtoExperimental
)

var protoNames = map[Protocol]string{
	ProtoConnected:    "connected",
	ProtoStatic:       "static",
	ProtoEBGP:         "ebgp",
	ProtoOSPF:         "ospf",
	ProtoISIS:         "is-is",
	ProtoRIP:          "rip",
	ProtoIBGP:         "ibgp",
	ProtoExperimental: "experimental",
}

// String returns the configuration name of the protocol.
func (p Protocol) String() string {
	if n, ok := protoNames[p]; ok {
		return n
	}
	return fmt.Sprintf("protocol(%d)", uint8(p))
}

// ParseProtocol maps a configuration name to a Protocol.
func ParseProtocol(s string) (Protocol, error) {
	for p, n := range protoNames {
		if n == s {
			return p, nil
		}
	}
	return ProtoUnknown, fmt.Errorf("route: unknown protocol %q", s)
}

// AdminDistance returns the default administrative distance used by the
// RIB's merge stages to arbitrate between protocols (§5.2): lower wins.
func AdminDistance(p Protocol) uint8 {
	switch p {
	case ProtoConnected:
		return 0
	case ProtoStatic:
		return 1
	case ProtoEBGP:
		return 20
	case ProtoOSPF:
		return 110
	case ProtoISIS:
		return 115
	case ProtoRIP:
		return 120
	case ProtoIBGP:
		return 200
	case ProtoExperimental:
		return 230
	}
	return 255
}

// Entry is a RIB-level route: what protocols contribute to origin tables
// and what (after resolution) is installed into the forwarding engine.
type Entry struct {
	// Net is the destination prefix.
	Net netip.Prefix
	// NextHop is the gateway, which may require recursive resolution
	// (IBGP) or be zero for directly connected networks.
	NextHop netip.Addr
	// IfName is the outgoing interface, when known.
	IfName string
	// Metric is the protocol-internal metric.
	Metric uint32
	// Protocol is the origin protocol.
	Protocol Protocol
	// AdminDistance arbitrates between protocols; normally
	// AdminDistance(Protocol) but configurable per origin table.
	AdminDistance uint8
	// PolicyTags carries the tag list used by the policy framework when
	// routes are redistributed between protocols (§8.3). The list
	// Stored.Entry hands out is shared by every route stored with it and
	// read-only: its cap is its len, so an append copies it, and its
	// elements are never written.
	PolicyTags []uint32
}

// Prefix names the entry's prefix (core.Prefixed), for cache stages.
func (e Entry) Prefix() netip.Prefix { return e.Net }

// Equal reports whether two entries are identical (including tags).
func (e Entry) Equal(o Entry) bool {
	if e.Net != o.Net || e.NextHop != o.NextHop || e.IfName != o.IfName ||
		e.Metric != o.Metric || e.Protocol != o.Protocol || e.AdminDistance != o.AdminDistance ||
		len(e.PolicyTags) != len(o.PolicyTags) {
		return false
	}
	for i, tag := range e.PolicyTags {
		if o.PolicyTags[i] != tag {
			return false
		}
	}
	return true
}

// Stored is the value a table files under Entry.Net: 16 bytes against the
// Entry's 104. The prefix is the table's key; the next hop, interface name
// and tag list — one of a handful of combinations per router — are
// interned together by the standard library (process-wide, safe from any
// goroutine, collected with the last route that names them unless hops
// caches the pair), so a route pays one handle for all three.
type Stored struct {
	hop           unique.Handle[hop] // zero for no next hop, no name and no tags: Value on a zero handle panics
	Metric        uint32
	Protocol      Protocol
	AdminDistance uint8
}

// hop is what a Stored interns: where a route sends its packets, and the
// policy tags it carries as their words' bytes in native order — a string,
// so that the pair stays comparable and is canonical by content.
type hop struct {
	nextHop netip.Addr
	ifName  string
	tags    string // empty for no tags
}

// hops caches the handles of the first untagged pairs interned, one to a
// slot, so that Stored() on one of a router's handful of pairs costs a hash
// and a compare where unique.Make looks it up in the process-wide
// interner. A filled slot is never rewritten and keeps its pair interned,
// so a hit returns what unique.Make would; the cache costs at most
// len(hops) allocations in the life of the process, and a pair whose four
// probes are all taken by others is interned by unique.Make each time.
var hops [64]atomic.Pointer[cachedHop]

type cachedHop struct {
	hop    hop
	handle unique.Handle[hop]
}

// intern returns h's handle, from hops when it can.
func intern(h hop) unique.Handle[hop] {
	a := h.nextHop.As16()
	x := binary.LittleEndian.Uint64(a[:8]) ^ binary.LittleEndian.Uint64(a[8:]) ^ uint64(len(h.ifName))
	if n := len(h.ifName); n > 0 {
		x ^= uint64(h.ifName[n-1]) << 8
	}
	i := x * 0x9e3779b97f4a7c15 >> 58
	for probe := range uint64(4) {
		slot := &hops[(i+probe)%uint64(len(hops))]
		c := slot.Load()
		if c == nil {
			handle := unique.Make(h)
			slot.CompareAndSwap(nil, &cachedHop{handle.Value(), handle})
			return handle
		}
		if c.hop == h {
			return c.handle
		}
	}
	return unique.Make(h)
}

// Stored returns the form of e a table keeps under e.Net. Past the first
// use of its next hop, name and tags, it allocates nothing. A tagged pair
// goes to unique.Make, never to hops: tags are rare, and a list that fills
// a slot would keep it for the life of the process.
func (e Entry) Stored() Stored {
	s := Stored{Metric: e.Metric, Protocol: e.Protocol, AdminDistance: e.AdminDistance}
	switch {
	case len(e.PolicyTags) > 0:
		// A view of the caller's list: unique.Make copies it on a miss,
		// so what is stored never aliases it.
		tags := unsafe.String((*byte)(unsafe.Pointer(&e.PolicyTags[0])), 4*len(e.PolicyTags))
		s.hop = unique.Make(hop{e.NextHop, e.IfName, tags})
	case e.NextHop.IsValid() || e.IfName != "":
		s.hop = intern(hop{nextHop: e.NextHop, ifName: e.IfName})
	}
	return s
}

// Entry rebuilds the message from the stored value and the key it was
// filed under, without allocating.
func (s Stored) Entry(net netip.Prefix) Entry {
	e := Entry{Net: net, Metric: s.Metric, Protocol: s.Protocol, AdminDistance: s.AdminDistance}
	if s.hop != (unique.Handle[hop]{}) {
		h := s.hop.Value()
		e.NextHop, e.IfName = h.nextHop, h.ifName
		if h.tags != "" {
			e.PolicyTags = unsafe.Slice((*uint32)(unsafe.Pointer(unsafe.StringData(h.tags))), len(h.tags)/4)
		}
	}
	return e
}

// String renders the entry for diagnostics.
func (e Entry) String() string {
	return fmt.Sprintf("%v via %v dev %q metric %d proto %v ad %d",
		e.Net, e.NextHop, e.IfName, e.Metric, e.Protocol, e.AdminDistance)
}
