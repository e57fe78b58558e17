// Package bgp implements the XORP BGP process (paper §5.1): the RFC 4271
// wire protocol, the per-peer state machine, and — the paper's central
// contribution — the staged routing-table pipeline: PeerIn stages storing
// original routes, pluggable filter banks, nexthop resolvers, a decision
// process, a fanout queue with one reader per output branch, and per
// branch an output filter bank and a GroupOut stage shared by a peer
// group's members (a lone peer is a group of one), plus dynamic background
// deletion stages for failed peerings and an optional consistency-checking
// cache stage.
package bgp

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"net/netip"
)

// BGP message types (RFC 4271 §4.1).
const (
	MsgOpen         = 1
	MsgUpdate       = 2
	MsgNotification = 3
	MsgKeepalive    = 4
)

// Wire limits.
const (
	headerLen  = 19
	maxMsgLen  = 4096
	markerByte = 0xff
)

// Version is the implemented BGP version.
const Version = 4

// OpenMsg is a BGP OPEN message.
type OpenMsg struct {
	Version  uint8
	AS       uint16
	HoldTime uint16
	BGPID    netip.Addr // 4-byte router id
}

// UpdateMsg is a BGP UPDATE message: withdrawn prefixes, path attributes,
// and the NLRI the attributes apply to.
type UpdateMsg struct {
	Withdrawn []netip.Prefix
	Attrs     *PathAttrs
	NLRI      []netip.Prefix
}

// NotificationMsg is a BGP NOTIFICATION message.
type NotificationMsg struct {
	Code    uint8
	Subcode uint8
	Data    []byte
}

// Notification error codes (RFC 4271 §4.5).
const (
	NotifMsgHeaderErr    = 1
	NotifOpenErr         = 2
	NotifUpdateErr       = 3
	NotifHoldTimerExpire = 4
	NotifFSMErr          = 5
	NotifCease           = 6
)

func (n *NotificationMsg) Error() string {
	return fmt.Sprintf("bgp: NOTIFICATION code %d subcode %d", n.Code, n.Subcode)
}

// appendHeader appends the 19-byte message header with a placeholder
// length, returning the offset of the length field.
func appendHeader(dst []byte, msgType uint8) ([]byte, int) {
	for i := 0; i < 16; i++ {
		dst = append(dst, markerByte)
	}
	lenOff := len(dst)
	dst = append(dst, 0, 0, msgType)
	return dst, lenOff
}

func patchLen(buf []byte, lenOff, start int) {
	binary.BigEndian.PutUint16(buf[lenOff:], uint16(len(buf)-start))
}

// AppendOpen appends an encoded OPEN message to dst.
func AppendOpen(dst []byte, m *OpenMsg) []byte {
	start := len(dst)
	dst, lenOff := appendHeader(dst, MsgOpen)
	dst = append(dst, m.Version)
	dst = binary.BigEndian.AppendUint16(dst, m.AS)
	dst = binary.BigEndian.AppendUint16(dst, m.HoldTime)
	id := m.BGPID.As4()
	dst = append(dst, id[:]...)
	dst = append(dst, 0) // no optional parameters
	patchLen(dst, lenOff, start)
	return dst
}

// AppendKeepalive appends an encoded KEEPALIVE message to dst.
func AppendKeepalive(dst []byte) []byte {
	start := len(dst)
	dst, lenOff := appendHeader(dst, MsgKeepalive)
	patchLen(dst, lenOff, start)
	return dst
}

// AppendNotification appends an encoded NOTIFICATION message to dst.
func AppendNotification(dst []byte, m *NotificationMsg) []byte {
	start := len(dst)
	dst, lenOff := appendHeader(dst, MsgNotification)
	dst = append(dst, m.Code, m.Subcode)
	dst = append(dst, m.Data...)
	patchLen(dst, lenOff, start)
	return dst
}

// AppendUpdate appends an encoded UPDATE message to dst. IPv4 prefixes use
// the classic RFC 4271 fields; IPv6 prefixes ride in MP_REACH_NLRI /
// MP_UNREACH_NLRI attributes (RFC 4760, IPv6-unicast subset), so the
// family-generic pipeline can speak v6 on the wire.
func AppendUpdate(dst []byte, m *UpdateMsg) ([]byte, error) {
	start := len(dst)
	dst, lenOff := appendHeader(dst, MsgUpdate)

	// Classic withdrawn routes (IPv4 only).
	wOff := len(dst)
	dst = append(dst, 0, 0)
	var err error
	n4, w6 := 0, 0
	for _, p := range m.NLRI {
		if p.Addr().Is4() {
			n4++
		}
	}
	for _, p := range m.Withdrawn {
		if !p.Addr().Is4() {
			w6++
			continue
		}
		if dst, err = appendPrefix(dst, p); err != nil {
			return dst, err
		}
	}
	binary.BigEndian.PutUint16(dst[wOff:], uint16(len(dst)-wOff-2))

	// Path attributes (ascending type order; MP attrs are 14/15, so they
	// follow the classic set).
	aOff := len(dst)
	dst = append(dst, 0, 0)
	if m.Attrs == nil && len(m.NLRI) > 0 {
		return dst, fmt.Errorf("bgp: NLRI without path attributes")
	}
	if m.Attrs != nil {
		if dst, err = m.Attrs.appendTo(dst); err != nil {
			return dst, err
		}
		if n4 > 0 && !m.Attrs.NextHop.Is4() {
			return dst, fmt.Errorf("bgp: IPv4 NLRI with non-IPv4 NEXT_HOP %v", m.Attrs.NextHop)
		}
		if len(m.NLRI) > n4 {
			if dst, err = appendMPReach(dst, m.Attrs.NextHop, m.NLRI); err != nil {
				return dst, err
			}
		}
	}
	if w6 > 0 {
		if dst, err = appendMPUnreach(dst, m.Withdrawn); err != nil {
			return dst, err
		}
	}
	binary.BigEndian.PutUint16(dst[aOff:], uint16(len(dst)-aOff-2))

	for _, p := range m.NLRI {
		if !p.Addr().Is4() {
			continue
		}
		if dst, err = appendPrefix(dst, p); err != nil {
			return dst, err
		}
	}
	if len(dst)-start > maxMsgLen {
		return dst, fmt.Errorf("bgp: UPDATE of %d bytes exceeds %d", len(dst)-start, maxMsgLen)
	}
	patchLen(dst, lenOff, start)
	return dst, nil
}

// AppendUpdateRun encodes the announcement of a run of prefixes sharing
// one attribute set — or, with attrs nil, the run's withdrawal — as the
// minimum number of UPDATE messages, packing prefixes up to the 4096-byte
// limit. This is the group shared-encode primitive: the result is encoded
// once and the bytes fanned out to every member of a peer group. Prefix
// order is preserved (chunks split at family boundaries), so the emitted
// per-prefix stream matches the per-route path's order.
func AppendUpdateRun(dst []byte, attrs *PathAttrs, nets []netip.Prefix) ([]byte, error) {
	m := UpdateMsg{Attrs: attrs}
	part := &m.NLRI // where each message's share of nets goes
	if attrs == nil {
		part = &m.Withdrawn
	}
	if len(nets) <= 1 { // nothing to pack: skip sizing the attributes
		if len(nets) == 0 {
			return dst, nil
		}
		*part = nets
		return AppendUpdate(dst, &m)
	}
	// Per-message fixed overhead: header (19) + withdrawn-length (2) +
	// attribute-length (2) + classic attributes, sized by encoding them
	// where the first message will put them, then dropping them again;
	// IPv6 chunks add the MP_REACH_NLRI header and fixed body (exactly 25
	// bytes with the extended-length form appendAttrHeader may choose), or
	// the MP_UNREACH_NLRI one (at most 7).
	fixed, mpOverhead := headerLen+4, 7
	if attrs != nil {
		sized, err := attrs.appendTo(dst)
		if err != nil {
			return dst, err
		}
		fixed += len(sized) - len(dst)
		dst, mpOverhead = sized[:len(dst)], 25
	}
	var err error
	for start := 0; start < len(nets); {
		is6 := !nets[start].Addr().Is4()
		size := fixed
		if is6 {
			size += mpOverhead
		}
		end := start
		for end < len(nets) {
			p := nets[end]
			if (!p.Addr().Is4()) != is6 {
				break
			}
			cost := prefixLen(p)
			if size+cost > maxMsgLen {
				break
			}
			size += cost
			end++
		}
		if end == start {
			end++ // oversized single prefix: let AppendUpdate report it
		}
		*part = nets[start:end]
		if dst, err = AppendUpdate(dst, &m); err != nil {
			return dst, err
		}
		start = end
	}
	return dst, nil
}

// appendMPReach emits an MP_REACH_NLRI attribute carrying the IPv6
// prefixes of nlri. An IPv4 next hop is carried v4-mapped (decode unmaps),
// so a v4-nexthop attribute set can still announce v6 prefixes losslessly.
func appendMPReach(dst []byte, nh netip.Addr, nlri []netip.Prefix) ([]byte, error) {
	if !nh.IsValid() {
		return dst, fmt.Errorf("bgp: MP_REACH_NLRI without next hop")
	}
	dst, err := appendAttrHeader(dst, flagOptional, attrMPReachNLRI, 21+prefixLen6(nlri))
	if err != nil {
		return dst, err
	}
	nh16 := nh.As16()
	dst = append(binary.BigEndian.AppendUint16(dst, afiIPv6), safiUnicast, 16)
	dst = append(dst, nh16[:]...)
	dst = append(dst, 0) // reserved
	return appendPrefixes6(dst, nlri), nil
}

// appendMPUnreach emits an MP_UNREACH_NLRI attribute carrying the IPv6
// prefixes of withdrawn.
func appendMPUnreach(dst []byte, withdrawn []netip.Prefix) ([]byte, error) {
	dst, err := appendAttrHeader(dst, flagOptional, attrMPUnreachNLRI, 3+prefixLen6(withdrawn))
	if err != nil {
		return dst, err
	}
	dst = append(binary.BigEndian.AppendUint16(dst, afiIPv6), safiUnicast)
	return appendPrefixes6(dst, withdrawn), nil
}

// prefixLen is the size of p's encoding: a length byte and the octets the
// length covers.
func prefixLen(p netip.Prefix) int { return 1 + (p.Bits()+7)/8 }

// prefixLen6 is the size of the encoding of the IPv6 prefixes of ps.
func prefixLen6(ps []netip.Prefix) (n int) {
	for _, p := range ps {
		if !p.Addr().Is4() {
			n += prefixLen(p)
		}
	}
	return n
}

// appendPrefix appends RFC 4271 prefix encoding: length byte + minimal
// prefix octets.
func appendPrefix(dst []byte, p netip.Prefix) ([]byte, error) {
	if !p.Addr().Is4() {
		return dst, fmt.Errorf("bgp: non-IPv4 prefix %v in wire message", p)
	}
	p = p.Masked()
	bits := p.Bits()
	dst = append(dst, byte(bits))
	b := p.Addr().As4()
	dst = append(dst, b[:(bits+7)/8]...)
	return dst, nil
}

// appendPrefixes6 appends the RFC 4760 encoding of the IPv6 prefixes of ps.
func appendPrefixes6(dst []byte, ps []netip.Prefix) []byte {
	for _, p := range ps {
		if p.Addr().Is4() {
			continue
		}
		p = p.Masked()
		bits := p.Bits()
		b := p.Addr().As16()
		dst = append(append(dst, byte(bits)), b[:(bits+7)/8]...)
	}
	return dst
}

// countPrefixes counts the length bytes of a block of encoded prefixes, to
// size the slice they decode into: one per prefix the block can hold, never
// more than it has bytes.
func countPrefixes(block []byte) (n int) {
	for i := 0; i < len(block); i += 1 + (int(block[i])+7)/8 {
		n++
	}
	return n
}

// decodePrefixes fills dst, sized by countPrefixes(block), with block's
// prefixes of at most maxBits bits: 32 for the classic fields, 128 for the
// RFC 4760 ones, which decode as IPv6 whatever their length.
func decodePrefixes(dst []netip.Prefix, block []byte, maxBits int) error {
	for i := range dst {
		bits := int(block[0])
		if bits > maxBits {
			return fmt.Errorf("bgp: decode: prefix length %d of at most %d", bits, maxBits)
		}
		n := 1 + (bits+7)/8
		if n > len(block) {
			return fmt.Errorf("bgp: decode: truncated prefix")
		}
		var addr netip.Addr
		if maxBits == 32 {
			var b [4]byte
			copy(b[:], block[1:n])
			addr = netip.AddrFrom4(b)
		} else {
			var b [16]byte
			copy(b[:], block[1:n])
			addr = netip.AddrFrom16(b)
		}
		dst[i] = netip.PrefixFrom(addr, bits).Masked()
		block = block[n:]
	}
	return nil
}

// Message is a decoded BGP message: exactly one field is non-nil.
type Message struct {
	Open         *OpenMsg
	Update       *UpdateMsg
	Notification *NotificationMsg
	Keepalive    bool
}

// HeaderInfo reports the total message length and type from a wire header,
// so a reader can frame messages. buf must hold at least headerLen bytes.
func HeaderInfo(buf []byte) (msgLen int, msgType uint8, err error) {
	if len(buf) < headerLen {
		return 0, 0, fmt.Errorf("bgp: short header")
	}
	for i := 0; i < 16; i++ {
		if buf[i] != markerByte {
			return 0, 0, fmt.Errorf("bgp: bad marker")
		}
	}
	msgLen = int(binary.BigEndian.Uint16(buf[16:]))
	msgType = buf[18]
	if msgLen < headerLen || msgLen > maxMsgLen {
		return 0, 0, fmt.Errorf("bgp: bad message length %d", msgLen)
	}
	return msgLen, msgType, nil
}

// DecodeMessage decodes one complete wire message (header included). What
// it returns is the caller's and holds nothing of buf.
func DecodeMessage(buf []byte) (*Message, error) {
	msgLen, msgType, err := HeaderInfo(buf)
	if err != nil {
		return nil, err
	}
	if msgLen != len(buf) {
		return nil, fmt.Errorf("bgp: message length %d != buffer %d", msgLen, len(buf))
	}
	body := buf[headerLen:]
	switch msgType {
	case MsgOpen:
		// Version, AS, hold time, BGP identifier, optional parameters
		// (ignored) after their length.
		if len(body) < 10 || len(body) < 10+int(body[9]) {
			return nil, fmt.Errorf("bgp: truncated OPEN")
		}
		return &Message{Open: &OpenMsg{
			Version:  body[0],
			AS:       binary.BigEndian.Uint16(body[1:]),
			HoldTime: binary.BigEndian.Uint16(body[3:]),
			BGPID:    netip.AddrFrom4([4]byte(body[5:9])),
		}}, nil
	case MsgKeepalive:
		if msgLen != headerLen {
			return nil, fmt.Errorf("bgp: KEEPALIVE with body")
		}
		return &Message{Keepalive: true}, nil
	case MsgNotification:
		if len(body) < 2 {
			return nil, fmt.Errorf("bgp: truncated NOTIFICATION")
		}
		return &Message{Notification: &NotificationMsg{Code: body[0], Subcode: body[1], Data: append([]byte(nil), body[2:]...)}}, nil
	case MsgUpdate:
		return decodeUpdate(body)
	default:
		return nil, fmt.Errorf("bgp: unknown message type %d", msgType)
	}
}

// updateBlock is a decoded UPDATE in one allocation: the message and the
// update.
type updateBlock struct {
	msg Message
	upd UpdateMsg
}

// updateBlockOne is an updateBlock with room for the one prefix most
// UPDATEs carry; one with more takes the plain block and an array, so the
// room it would not use costs nothing.
type updateBlockOne struct {
	updateBlock
	one [1]netip.Prefix
}

// decodeUpdate decodes an UPDATE's body at a fixed cost: the message block
// (holding the prefix when there is just one), else the block and one
// prefix array, and the attribute block of an announcement. The four prefix
// blocks (classic and MP_UNREACH withdrawals, classic and MP_REACH
// announcements) are counted before anything is built; Withdrawn and NLRI
// share the array, each capped at its own end.
func decodeUpdate(body []byte) (*Message, error) {
	wdr, body, ok := lengthBlock(body)
	if !ok {
		return nil, fmt.Errorf("bgp: withdrawn length overruns message")
	}
	attrBytes, nlri, ok := lengthBlock(body)
	if !ok {
		return nil, fmt.Errorf("bgp: attribute length overruns message")
	}
	attrs, reach, unreach, err := decodePathAttrs(attrBytes)
	if err != nil {
		return nil, err
	}
	nw, nu, n4 := countPrefixes(wdr), countPrefixes(unreach), countPrefixes(nlri)
	w := nw + nu
	total := w + n4 + countPrefixes(reach)
	var blk *updateBlock
	var pfx []netip.Prefix
	if total <= 1 {
		b := &updateBlockOne{}
		blk, pfx = &b.updateBlock, b.one[:total:total]
	} else {
		blk, pfx = &updateBlock{}, make([]netip.Prefix, total)
	}
	blk.msg.Update = &blk.upd
	m := &blk.upd
	if err := cmp.Or(
		decodePrefixes(pfx[:nw], wdr, 32),
		decodePrefixes(pfx[nw:w], unreach, 128),
		decodePrefixes(pfx[w:w+n4], nlri, 32),
		decodePrefixes(pfx[w+n4:], reach, 128),
	); err != nil {
		return nil, err
	}
	m.Withdrawn, m.NLRI = pfx[:w:w], pfx[w:]
	if len(m.NLRI) == 0 {
		// Attributes without NLRI describe no route: RFC 4271 §6.3 asks
		// for the mandatory ones only beside NLRI, and none is kept.
		return &blk.msg, nil
	}
	if m.Attrs = attrs; m.Attrs == nil {
		return nil, fmt.Errorf("bgp: NLRI without path attributes")
	}
	if err := m.Attrs.WellFormed(); err != nil {
		return nil, err
	}
	if n4 > 0 && !m.Attrs.NextHop.Is4() {
		return nil, fmt.Errorf("bgp: IPv4 NLRI with non-IPv4 NEXT_HOP %v", m.Attrs.NextHop)
	}
	return &blk.msg, nil
}

// lengthBlock splits b after the block its leading 2-byte length covers.
func lengthBlock(b []byte) (block, rest []byte, ok bool) {
	if len(b) < 2 {
		return nil, nil, false
	}
	n := 2 + int(binary.BigEndian.Uint16(b))
	if n > len(b) {
		return nil, nil, false
	}
	return b[2:n], b[n:], true
}
