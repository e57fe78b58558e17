package bgp

import (
	"encoding/binary"
	"fmt"
	"net/netip"
	"slices"
	"strings"
)

// Path attribute type codes (RFC 4271 §4.3, RFC 1997).
const (
	attrOrigin          = 1
	attrASPath          = 2
	attrNextHop         = 3
	attrMED             = 4
	attrLocalPref       = 5
	attrAtomicAggregate = 6
	attrAggregator      = 7
	attrCommunity       = 8

	// Multiprotocol extensions (RFC 4760); this reproduction implements
	// the IPv6-unicast subset so the family-generic pipeline can speak
	// v6 on the wire.
	attrMPReachNLRI   = 14
	attrMPUnreachNLRI = 15
)

// MP-BGP address/subsequent-address family identifiers.
const (
	afiIPv6     = 2
	safiUnicast = 1
)

// Attribute flag bits.
const (
	flagOptional   = 0x80
	flagTransitive = 0x40
	flagExtLen     = 0x10
)

// ORIGIN values.
const (
	OriginIGP        = 0
	OriginEGP        = 1
	OriginIncomplete = 2
)

// AS_PATH segment types.
const (
	SegSet      = 1
	SegSequence = 2
)

// ASSegment is one AS_PATH segment.
type ASSegment struct {
	Type uint8 // SegSet or SegSequence
	ASes []uint16
}

// ASPath is an ordered list of segments.
type ASPath []ASSegment

// Length returns the AS_PATH length used by the decision process: the
// number of ASes in sequences plus one per set (RFC 4271 §9.1.2.2).
func (p ASPath) Length() int {
	n := 0
	for _, s := range p {
		if s.Type == SegSet {
			n++
		} else {
			n += len(s.ASes)
		}
	}
	return n
}

// Contains reports whether as appears anywhere in the path (loop check).
func (p ASPath) Contains(as uint16) bool {
	for _, s := range p {
		for _, a := range s.ASes {
			if a == as {
				return true
			}
		}
	}
	return false
}

// Prepend returns a new path with as prepended to the leading sequence, or
// in a new leading segment when the path starts with a set or a sequence
// already at the 255 ASes a segment can carry (RFC 4271 §5.1.2). Only the
// leading segment is built; those after it are p's own, which stay as they
// were.
func (p ASPath) Prepend(as uint16) ASPath {
	var lead []uint16
	rest := p
	if len(p) > 0 && p[0].Type == SegSequence && len(p[0].ASes) < 255 {
		lead, rest = p[0].ASes, p[1:]
	}
	ases := make([]uint16, 1+len(lead))
	ases[0] = as
	copy(ases[1:], lead)
	out := make(ASPath, 1+len(rest))
	out[0] = ASSegment{Type: SegSequence, ASes: ases}
	copy(out[1:], rest)
	return out
}

// String renders the path like "1 2 {3,4}".
func (p ASPath) String() string {
	var sb strings.Builder
	for i, s := range p {
		if i > 0 {
			sb.WriteByte(' ')
		}
		if s.Type == SegSet {
			sb.WriteByte('{')
		}
		for j, a := range s.ASes {
			if j > 0 {
				if s.Type == SegSet {
					sb.WriteByte(',')
				} else {
					sb.WriteByte(' ')
				}
			}
			fmt.Fprintf(&sb, "%d", a)
		}
		if s.Type == SegSet {
			sb.WriteByte('}')
		}
	}
	return sb.String()
}

// Equal reports deep path equality.
func (p ASPath) Equal(o ASPath) bool {
	if len(p) != len(o) {
		return false
	}
	for i := range p {
		if p[i].Type != o[i].Type || len(p[i].ASes) != len(o[i].ASes) {
			return false
		}
		for j := range p[i].ASes {
			if p[i].ASes[j] != o[i].ASes[j] {
				return false
			}
		}
	}
	return true
}

// PathAttrs is the decoded attribute set of a BGP route. Optional
// attributes carry a presence flag.
type PathAttrs struct {
	Origin  uint8
	ASPath  ASPath
	NextHop netip.Addr

	MED          uint32
	HasMED       bool
	LocalPref    uint32
	HasLocalPref bool

	AtomicAggregate bool
	AggregatorAS    uint16
	AggregatorAddr  netip.Addr
	HasAggregator   bool

	Communities []uint32
}

// WellFormed verifies the mandatory attributes are present.
func (a *PathAttrs) WellFormed() error {
	if !a.NextHop.IsValid() {
		return fmt.Errorf("bgp: missing mandatory NEXT_HOP")
	}
	if a.Origin > OriginIncomplete {
		return fmt.Errorf("bgp: bad ORIGIN %d", a.Origin)
	}
	return nil
}

// Clone returns a deep copy, for a rewrite that edits the path or the
// communities in place; the stored originals stay pristine (§5.1).
func (a *PathAttrs) Clone() *PathAttrs {
	c := *a
	c.ASPath = make(ASPath, len(a.ASPath))
	for i, s := range a.ASPath {
		c.ASPath[i] = ASSegment{Type: s.Type, ASes: append([]uint16(nil), s.ASes...)}
	}
	c.Communities = append([]uint32(nil), a.Communities...)
	return &c
}

// Equal reports deep equality.
func (a *PathAttrs) Equal(o *PathAttrs) bool {
	if a == o || a == nil || o == nil {
		return a == o
	}
	if a.Origin != o.Origin || a.NextHop != o.NextHop ||
		a.MED != o.MED || a.HasMED != o.HasMED ||
		a.LocalPref != o.LocalPref || a.HasLocalPref != o.HasLocalPref ||
		a.AtomicAggregate != o.AtomicAggregate ||
		a.HasAggregator != o.HasAggregator ||
		a.AggregatorAS != o.AggregatorAS || a.AggregatorAddr != o.AggregatorAddr ||
		len(a.Communities) != len(o.Communities) {
		return false
	}
	for i := range a.Communities {
		if a.Communities[i] != o.Communities[i] {
			return false
		}
	}
	return a.ASPath.Equal(o.ASPath)
}

// appendTo encodes the attribute set in canonical (ascending type) order.
func (a *PathAttrs) appendTo(dst []byte) ([]byte, error) {
	if err := a.WellFormed(); err != nil {
		return dst, err
	}
	// ORIGIN
	dst = append(dst, flagTransitive, attrOrigin, 1, a.Origin)
	// AS_PATH
	body := make([]byte, 0, 16)
	for _, s := range a.ASPath {
		if len(s.ASes) > 255 {
			return dst, fmt.Errorf("bgp: AS segment too long")
		}
		body = append(body, s.Type, byte(len(s.ASes)))
		for _, as := range s.ASes {
			body = binary.BigEndian.AppendUint16(body, as)
		}
	}
	dst, err := appendAttr(dst, flagTransitive, attrASPath, body)
	if err != nil {
		return dst, err
	}
	// NEXT_HOP — classic form is IPv4-only; an IPv6 next hop rides in
	// MP_REACH_NLRI instead (AppendUpdate enforces that IPv4 NLRI always
	// have an IPv4 next hop).
	if a.NextHop.Is4() {
		nh := a.NextHop.As4()
		dst = append(dst, flagTransitive, attrNextHop, 4)
		dst = append(dst, nh[:]...)
	}
	// MED
	if a.HasMED {
		dst = append(dst, flagOptional, attrMED, 4)
		dst = binary.BigEndian.AppendUint32(dst, a.MED)
	}
	// LOCAL_PREF
	if a.HasLocalPref {
		dst = append(dst, flagTransitive, attrLocalPref, 4)
		dst = binary.BigEndian.AppendUint32(dst, a.LocalPref)
	}
	// ATOMIC_AGGREGATE
	if a.AtomicAggregate {
		dst = append(dst, flagTransitive, attrAtomicAggregate, 0)
	}
	// AGGREGATOR
	if a.HasAggregator {
		if !a.AggregatorAddr.Is4() {
			return dst, fmt.Errorf("bgp: AGGREGATOR address not IPv4")
		}
		ag := a.AggregatorAddr.As4()
		dst = append(dst, flagOptional|flagTransitive, attrAggregator, 6)
		dst = binary.BigEndian.AppendUint16(dst, a.AggregatorAS)
		dst = append(dst, ag[:]...)
	}
	// COMMUNITY
	if len(a.Communities) > 0 {
		body = body[:0]
		for _, c := range a.Communities {
			body = binary.BigEndian.AppendUint32(body, c)
		}
		if dst, err = appendAttr(dst, flagOptional|flagTransitive, attrCommunity, body); err != nil {
			return dst, err
		}
	}
	return dst, nil
}

// appendAttr emits one attribute, choosing extended length as needed.
func appendAttr(dst []byte, flags, typ uint8, body []byte) ([]byte, error) {
	if len(body) > 0xffff {
		return dst, fmt.Errorf("bgp: attribute %d too long (%d)", typ, len(body))
	}
	if len(body) > 0xff {
		dst = append(dst, flags|flagExtLen, typ)
		dst = binary.BigEndian.AppendUint16(dst, uint16(len(body)))
	} else {
		dst = append(dst, flags, typ, byte(len(body)))
	}
	return append(dst, body...), nil
}

// decodePathAttrs parses attributes up to end. MP_REACH_NLRI and
// MP_UNREACH_NLRI carry NLRI, which belongs to the message rather than the
// attribute set, so the IPv6 announcements/withdrawals are returned
// alongside. seen reports whether anything other than MP_UNREACH_NLRI was
// decoded (a withdraw-only message has no attribute set).
func decodePathAttrs(d *wireDecoder, end int) (a *PathAttrs, nlri6, wdr6 []netip.Prefix, seen bool, err error) {
	a = &PathAttrs{}
	for d.off < end && d.err == nil {
		flags := d.u8()
		typ := d.u8()
		var alen int
		if flags&flagExtLen != 0 {
			alen = int(d.u16())
		} else {
			alen = int(d.u8())
		}
		if d.err != nil {
			break
		}
		if d.off+alen > end {
			return nil, nil, nil, false, fmt.Errorf("bgp: attribute %d overruns attribute block", typ)
		}
		body := d.take(alen)
		if body == nil {
			break
		}
		switch typ {
		case attrOrigin:
			if alen != 1 {
				return nil, nil, nil, false, fmt.Errorf("bgp: ORIGIN length %d", alen)
			}
			a.Origin = body[0]
			seen = true
		case attrASPath:
			path, err := decodeASPath(body)
			if err != nil {
				return nil, nil, nil, false, err
			}
			a.ASPath = path
			seen = true
		case attrNextHop:
			if alen != 4 {
				return nil, nil, nil, false, fmt.Errorf("bgp: NEXT_HOP length %d", alen)
			}
			a.NextHop = netip.AddrFrom4([4]byte(body))
			seen = true
		case attrMED:
			if alen != 4 {
				return nil, nil, nil, false, fmt.Errorf("bgp: MED length %d", alen)
			}
			a.MED = binary.BigEndian.Uint32(body)
			a.HasMED = true
			seen = true
		case attrLocalPref:
			if alen != 4 {
				return nil, nil, nil, false, fmt.Errorf("bgp: LOCAL_PREF length %d", alen)
			}
			a.LocalPref = binary.BigEndian.Uint32(body)
			a.HasLocalPref = true
			seen = true
		case attrAtomicAggregate:
			if alen != 0 {
				return nil, nil, nil, false, fmt.Errorf("bgp: ATOMIC_AGGREGATE length %d", alen)
			}
			a.AtomicAggregate = true
			seen = true
		case attrAggregator:
			if alen != 6 {
				return nil, nil, nil, false, fmt.Errorf("bgp: AGGREGATOR length %d", alen)
			}
			a.AggregatorAS = binary.BigEndian.Uint16(body)
			a.AggregatorAddr = netip.AddrFrom4([4]byte(body[2:6]))
			a.HasAggregator = true
			seen = true
		case attrCommunity:
			if alen%4 != 0 {
				return nil, nil, nil, false, fmt.Errorf("bgp: COMMUNITY length %d", alen)
			}
			a.Communities = slices.Grow(a.Communities, alen/4)
			for i := 0; i < alen; i += 4 {
				a.Communities = append(a.Communities, binary.BigEndian.Uint32(body[i:]))
			}
			seen = true
		case attrMPReachNLRI:
			sub := &wireDecoder{buf: body}
			afi := sub.u16()
			safi := sub.u8()
			if sub.err != nil {
				return nil, nil, nil, false, fmt.Errorf("bgp: truncated MP_REACH_NLRI")
			}
			if afi != afiIPv6 || safi != safiUnicast {
				continue // unimplemented family: ignore (optional attr)
			}
			nhLen := int(sub.u8())
			if sub.err == nil && nhLen != 16 {
				return nil, nil, nil, false, fmt.Errorf("bgp: MP_REACH_NLRI next-hop length %d", nhLen)
			}
			nh := sub.take(nhLen)
			sub.u8() // reserved
			for sub.off < len(body) && sub.err == nil {
				nlri6 = append(nlri6, decodePrefix6(sub))
			}
			if sub.err != nil {
				return nil, nil, nil, false, sub.err
			}
			a.NextHop = netip.AddrFrom16([16]byte(nh)).Unmap()
			seen = true
		case attrMPUnreachNLRI:
			sub := &wireDecoder{buf: body}
			afi := sub.u16()
			safi := sub.u8()
			if sub.err != nil {
				return nil, nil, nil, false, fmt.Errorf("bgp: truncated MP_UNREACH_NLRI")
			}
			if afi != afiIPv6 || safi != safiUnicast {
				continue
			}
			for sub.off < len(body) && sub.err == nil {
				wdr6 = append(wdr6, decodePrefix6(sub))
			}
			if sub.err != nil {
				return nil, nil, nil, false, sub.err
			}
		default:
			if flags&flagOptional == 0 {
				return nil, nil, nil, false, fmt.Errorf("bgp: unrecognized well-known attribute %d", typ)
			}
			// Unrecognized optional attributes are ignored (transitive
			// ones would be forwarded by a full implementation).
		}
	}
	if d.err != nil {
		return nil, nil, nil, false, d.err
	}
	return a, nlri6, wdr6, seen, nil
}

func decodeASPath(body []byte) (ASPath, error) {
	var path ASPath
	for len(body) > 0 {
		if len(body) < 2 {
			return nil, fmt.Errorf("bgp: truncated AS_PATH segment header")
		}
		seg := ASSegment{Type: body[0]}
		if seg.Type != SegSet && seg.Type != SegSequence {
			return nil, fmt.Errorf("bgp: AS_PATH segment type %d", seg.Type)
		}
		n := int(body[1])
		body = body[2:]
		if len(body) < 2*n {
			return nil, fmt.Errorf("bgp: truncated AS_PATH segment")
		}
		seg.ASes = make([]uint16, n)
		for i := range seg.ASes {
			seg.ASes[i] = binary.BigEndian.Uint16(body[2*i:])
		}
		body = body[2*n:]
		path = append(path, seg)
	}
	return path, nil
}
