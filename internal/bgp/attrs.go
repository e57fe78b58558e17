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
// attributes carry a presence flag. The fields are ordered widest first so
// the set packs into 112 bytes, and an attrBlock into the 160-byte size
// class.
type PathAttrs struct {
	ASPath         ASPath
	Communities    []uint32
	NextHop        netip.Addr
	AggregatorAddr netip.Addr

	MED          uint32
	LocalPref    uint32
	AggregatorAS uint16
	Origin       uint8

	HasMED          bool
	HasLocalPref    bool
	AtomicAggregate bool
	HasAggregator   bool
}

// attrBlock is an attribute set with room beside it for the path most
// routes carry: one segment of up to len(ases) ASes. Decode and the EBGP
// export rewrite each build a set as one block; a longer path spills what
// does not fit to allocations of its own, a fixed number of them however
// many segments it has.
type attrBlock struct {
	attrs PathAttrs
	seg   [1]ASSegment
	ases  [8]uint16
}

// segs returns room for a path of n segments: the block's own when n is 1.
func (b *attrBlock) segs(n int) ASPath {
	if n == 1 {
		return b.seg[:]
	}
	return make(ASPath, n)
}

// leadASes returns room for the n ASes of a path's first segment: the
// block's own when they fit. No other segment may use it.
func (b *attrBlock) leadASes(n int) []uint16 {
	if n <= len(b.ases) {
		return b.ases[:n:n]
	}
	return make([]uint16, n)
}

// prepend returns p with as prepended to its leading sequence, or in a new
// leading segment when p starts with a set or a sequence already at the 255
// ASes a segment can carry (RFC 4271 §5.1.2), built in b. Only the leading
// segment is new; those after it are p's own, which stay as they were.
func (b *attrBlock) prepend(p ASPath, as uint16) ASPath {
	var lead []uint16
	rest := p
	if len(p) > 0 && p[0].Type == SegSequence && len(p[0].ASes) < 255 {
		lead, rest = p[0].ASes, p[1:]
	}
	ases := b.leadASes(1 + len(lead))
	ases[0] = as
	copy(ases[1:], lead)
	out := b.segs(1 + len(rest))
	out[0] = ASSegment{Type: SegSequence, ASes: ases}
	copy(out[1:], rest)
	return out
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

// appendTo encodes the attribute set in canonical (ascending type) order,
// straight into dst.
func (a *PathAttrs) appendTo(dst []byte) ([]byte, error) {
	if err := a.WellFormed(); err != nil {
		return dst, err
	}
	// ORIGIN
	dst = append(dst, flagTransitive, attrOrigin, 1, a.Origin)
	// AS_PATH
	n := 0
	for _, s := range a.ASPath {
		if len(s.ASes) > 255 {
			return dst, fmt.Errorf("bgp: AS segment too long")
		}
		n += 2 + 2*len(s.ASes)
	}
	dst, err := appendAttrHeader(dst, flagTransitive, attrASPath, n)
	if err != nil {
		return dst, err
	}
	for _, s := range a.ASPath {
		dst = append(dst, s.Type, byte(len(s.ASes)))
		for _, as := range s.ASes {
			dst = binary.BigEndian.AppendUint16(dst, as)
		}
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
		if dst, err = appendAttrHeader(dst, flagOptional|flagTransitive, attrCommunity, 4*len(a.Communities)); err != nil {
			return dst, err
		}
		for _, c := range a.Communities {
			dst = binary.BigEndian.AppendUint32(dst, c)
		}
	}
	return dst, nil
}

// appendAttrHeader appends an attribute's flags, type and the length of a
// body of n bytes, the extended form when n needs it, and grows dst once
// for the header and the body the caller appends next.
func appendAttrHeader(dst []byte, flags, typ uint8, n int) ([]byte, error) {
	if n > 0xffff {
		return dst, fmt.Errorf("bgp: attribute %d too long (%d)", typ, n)
	}
	dst = slices.Grow(dst, 4+n)
	if n > 0xff {
		return binary.BigEndian.AppendUint16(append(dst, flags|flagExtLen, typ), uint16(n)), nil
	}
	return append(dst, flags, typ, byte(n)), nil
}

// decodePathAttrs parses an attribute block in one pass. MP_REACH_NLRI and
// MP_UNREACH_NLRI carry NLRI, which belongs to the message rather than the
// attribute set, so their IPv6 prefix blocks are handed back undecoded. The
// set is nil when nothing but MP_UNREACH_NLRI (or attributes it ignores)
// was seen: a withdraw-only message has none, and builds none. An attribute
// may appear once (RFC 4271 §6.3, Malformed Attribute List).
func decodePathAttrs(b []byte) (attrs *PathAttrs, reach, unreach []byte, err error) {
	var (
		a         PathAttrs
		set       bool // an attribute of the set was decoded
		path      []byte
		nseg, nas int
		seen      [256 / 64]uint64
	)
	for len(b) > 0 {
		if len(b) < 3 || b[0]&flagExtLen != 0 && len(b) < 4 {
			return nil, nil, nil, fmt.Errorf("bgp: truncated attribute header")
		}
		flags, typ := b[0], b[1]
		alen, hdr := int(b[2]), 3
		if flags&flagExtLen != 0 {
			alen, hdr = int(binary.BigEndian.Uint16(b[2:])), 4
		}
		if hdr+alen > len(b) {
			return nil, nil, nil, fmt.Errorf("bgp: attribute %d overruns attribute block", typ)
		}
		body := b[hdr : hdr+alen]
		b = b[hdr+alen:]
		if seen[typ/64]&(1<<(typ%64)) != 0 {
			return nil, nil, nil, fmt.Errorf("bgp: attribute %d repeated", typ)
		}
		seen[typ/64] |= 1 << (typ % 64)
		switch typ {
		case attrOrigin:
			if alen != 1 {
				return nil, nil, nil, fmt.Errorf("bgp: ORIGIN length %d", alen)
			}
			a.Origin = body[0]
		case attrASPath:
			if nseg, nas, err = checkASPath(body); err != nil {
				return nil, nil, nil, err
			}
			path = body
		case attrNextHop:
			if alen != 4 {
				return nil, nil, nil, fmt.Errorf("bgp: NEXT_HOP length %d", alen)
			}
			a.NextHop = netip.AddrFrom4([4]byte(body))
		case attrMED:
			if alen != 4 {
				return nil, nil, nil, fmt.Errorf("bgp: MED length %d", alen)
			}
			a.MED = binary.BigEndian.Uint32(body)
			a.HasMED = true
		case attrLocalPref:
			if alen != 4 {
				return nil, nil, nil, fmt.Errorf("bgp: LOCAL_PREF length %d", alen)
			}
			a.LocalPref = binary.BigEndian.Uint32(body)
			a.HasLocalPref = true
		case attrAtomicAggregate:
			if alen != 0 {
				return nil, nil, nil, fmt.Errorf("bgp: ATOMIC_AGGREGATE length %d", alen)
			}
			a.AtomicAggregate = true
		case attrAggregator:
			if alen != 6 {
				return nil, nil, nil, fmt.Errorf("bgp: AGGREGATOR length %d", alen)
			}
			a.AggregatorAS = binary.BigEndian.Uint16(body)
			a.AggregatorAddr = netip.AddrFrom4([4]byte(body[2:6]))
			a.HasAggregator = true
		case attrCommunity:
			if alen%4 != 0 {
				return nil, nil, nil, fmt.Errorf("bgp: COMMUNITY length %d", alen)
			}
			a.Communities = make([]uint32, alen/4)
			for i := range a.Communities {
				a.Communities[i] = binary.BigEndian.Uint32(body[4*i:])
			}
		case attrMPReachNLRI:
			if alen < 3 {
				return nil, nil, nil, fmt.Errorf("bgp: truncated MP_REACH_NLRI")
			}
			if binary.BigEndian.Uint16(body) != afiIPv6 || body[2] != safiUnicast {
				continue // unimplemented family: ignore (optional attr)
			}
			if alen > 3 && body[3] != 16 {
				return nil, nil, nil, fmt.Errorf("bgp: MP_REACH_NLRI next-hop length %d", body[3])
			}
			if alen < 21 { // AFI, SAFI, next-hop length, next hop, reserved
				return nil, nil, nil, fmt.Errorf("bgp: truncated MP_REACH_NLRI")
			}
			a.NextHop = netip.AddrFrom16([16]byte(body[4:20])).Unmap()
			reach = body[21:]
		case attrMPUnreachNLRI:
			if alen < 3 {
				return nil, nil, nil, fmt.Errorf("bgp: truncated MP_UNREACH_NLRI")
			}
			if binary.BigEndian.Uint16(body) == afiIPv6 && body[2] == safiUnicast {
				unreach = body[3:]
			}
			continue // not part of the set
		default:
			if flags&flagOptional == 0 {
				return nil, nil, nil, fmt.Errorf("bgp: unrecognized well-known attribute %d", typ)
			}
			// Unrecognized optional attributes are ignored (transitive
			// ones would be forwarded by a full implementation).
			continue
		}
		set = true
	}
	if !set {
		return nil, reach, unreach, nil
	}
	blk := &attrBlock{attrs: a}
	if nseg > 0 {
		blk.setPath(path, nseg, nas)
	}
	return &blk.attrs, reach, unreach, nil
}

// checkASPath validates an AS_PATH body and counts its segments and ASes.
func checkASPath(body []byte) (nseg, nas int, err error) {
	for ; len(body) > 0; nseg++ {
		if len(body) < 2 {
			return 0, 0, fmt.Errorf("bgp: truncated AS_PATH segment header")
		}
		if t := body[0]; t != SegSet && t != SegSequence {
			return 0, 0, fmt.Errorf("bgp: AS_PATH segment type %d", t)
		}
		n := int(body[1])
		if len(body) < 2+2*n {
			return 0, 0, fmt.Errorf("bgp: truncated AS_PATH segment")
		}
		nas += n
		body = body[2+2*n:]
	}
	return nseg, nas, nil
}

// setPath builds the path of a checked AS_PATH body of nseg segments and
// nas ASes in b: a first segment that fits takes the block's own room, and
// every segment after it shares one spill array.
func (b *attrBlock) setPath(body []byte, nseg, nas int) {
	path := b.segs(nseg)
	var more []uint16 // the ASes of the segments after the first
	if nseg > 1 {
		more = make([]uint16, nas-int(body[1]))
	}
	for i := range path {
		n := int(body[1])
		var ases []uint16
		if i == 0 {
			ases = b.leadASes(n)
		} else {
			ases, more = more[:n:n], more[n:]
		}
		for j := range ases {
			ases[j] = binary.BigEndian.Uint16(body[2+2*j:])
		}
		path[i] = ASSegment{Type: body[0], ASes: ases}
		body = body[2+2*n:]
	}
	b.attrs.ASPath = path
}
