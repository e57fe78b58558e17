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
// one attribute set as the minimum number of UPDATE messages, packing NLRI
// up to the 4096-byte limit. This is the group shared-encode primitive:
// the result is encoded once and the bytes fanned out to every member of
// a peer group. Prefix order is preserved (chunks split at family
// boundaries), so the emitted per-prefix stream matches the per-route
// path's order.
func AppendUpdateRun(dst []byte, attrs *PathAttrs, nlri []netip.Prefix) ([]byte, error) {
	if len(nlri) == 0 {
		return dst, nil
	}
	if attrs == nil {
		return dst, fmt.Errorf("bgp: NLRI without path attributes")
	}
	if len(nlri) == 1 { // nothing to pack: skip sizing the attributes
		return AppendUpdate(dst, &UpdateMsg{Attrs: attrs, NLRI: nlri})
	}
	classic, err := attrs.appendTo(nil)
	if err != nil {
		return dst, err
	}
	// Per-message fixed overhead: header (19) + withdrawn-length (2) +
	// attribute-length (2) + classic attributes; IPv6 chunks add the
	// MP_REACH_NLRI header and fixed body (exactly 25 bytes with the
	// extended-length form appendAttr may choose).
	const mpOverhead = 25
	for start := 0; start < len(nlri); {
		is6 := !nlri[start].Addr().Is4()
		size := headerLen + 4 + len(classic)
		if is6 {
			size += mpOverhead
		}
		end := start
		for end < len(nlri) {
			p := nlri[end]
			if (!p.Addr().Is4()) != is6 {
				break
			}
			cost := 1 + (p.Bits()+7)/8
			if size+cost > maxMsgLen {
				break
			}
			size += cost
			end++
		}
		if end == start {
			end++ // oversized single prefix: let AppendUpdate report it
		}
		if dst, err = AppendUpdate(dst, &UpdateMsg{Attrs: attrs, NLRI: nlri[start:end]}); err != nil {
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
	body := make([]byte, 0, 64)
	body = binary.BigEndian.AppendUint16(body, afiIPv6)
	body = append(body, safiUnicast)
	nh16 := nh.As16()
	body = append(body, 16)
	body = append(body, nh16[:]...)
	body = append(body, 0) // reserved
	for _, p := range nlri {
		if p.Addr().Is4() {
			continue
		}
		body = appendPrefix6(body, p)
	}
	return appendAttr(dst, flagOptional, attrMPReachNLRI, body)
}

// appendMPUnreach emits an MP_UNREACH_NLRI attribute carrying the IPv6
// prefixes of withdrawn.
func appendMPUnreach(dst []byte, withdrawn []netip.Prefix) ([]byte, error) {
	body := make([]byte, 0, 32)
	body = binary.BigEndian.AppendUint16(body, afiIPv6)
	body = append(body, safiUnicast)
	for _, p := range withdrawn {
		if p.Addr().Is4() {
			continue
		}
		body = appendPrefix6(body, p)
	}
	return appendAttr(dst, flagOptional, attrMPUnreachNLRI, body)
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

func decodePrefix(d *wireDecoder) netip.Prefix {
	bits := int(d.u8())
	if bits > 32 {
		d.fail("prefix length %d", bits)
		return netip.Prefix{}
	}
	n := (bits + 7) / 8
	raw := d.take(n)
	if raw == nil {
		return netip.Prefix{}
	}
	var b [4]byte
	copy(b[:], raw)
	return netip.PrefixFrom(netip.AddrFrom4(b), bits).Masked()
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

// appendPrefix6 appends the RFC 4760 IPv6 prefix encoding.
func appendPrefix6(dst []byte, p netip.Prefix) []byte {
	p = p.Masked()
	bits := p.Bits()
	dst = append(dst, byte(bits))
	b := p.Addr().As16()
	return append(dst, b[:(bits+7)/8]...)
}

func decodePrefix6(d *wireDecoder) netip.Prefix {
	bits := int(d.u8())
	if bits > 128 {
		d.fail("v6 prefix length %d", bits)
		return netip.Prefix{}
	}
	n := (bits + 7) / 8
	raw := d.take(n)
	if raw == nil {
		return netip.Prefix{}
	}
	var b [16]byte
	copy(b[:], raw)
	return netip.PrefixFrom(netip.AddrFrom16(b), bits).Masked()
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

// DecodeMessage decodes one complete wire message (header included).
func DecodeMessage(buf []byte) (*Message, error) {
	msgLen, msgType, err := HeaderInfo(buf)
	if err != nil {
		return nil, err
	}
	if msgLen != len(buf) {
		return nil, fmt.Errorf("bgp: message length %d != buffer %d", msgLen, len(buf))
	}
	d := &wireDecoder{buf: buf, off: headerLen}
	switch msgType {
	case MsgOpen:
		m := &OpenMsg{}
		m.Version = d.u8()
		m.AS = d.u16()
		m.HoldTime = d.u16()
		b := d.take(4)
		if b != nil {
			m.BGPID = netip.AddrFrom4([4]byte(b))
		}
		optLen := int(d.u8())
		d.take(optLen) // optional parameters ignored
		if d.err != nil {
			return nil, d.err
		}
		return &Message{Open: m}, nil
	case MsgKeepalive:
		if msgLen != headerLen {
			return nil, fmt.Errorf("bgp: KEEPALIVE with body")
		}
		return &Message{Keepalive: true}, nil
	case MsgNotification:
		m := &NotificationMsg{}
		m.Code = d.u8()
		m.Subcode = d.u8()
		m.Data = append([]byte(nil), d.rest()...)
		if d.err != nil {
			return nil, d.err
		}
		return &Message{Notification: m}, nil
	case MsgUpdate:
		both := &struct {
			msg Message
			upd UpdateMsg
		}{}
		m := &both.upd
		both.msg.Update = m
		wLen := int(d.u16())
		wEnd := d.off + wLen
		if wEnd > len(buf) {
			return nil, fmt.Errorf("bgp: withdrawn length overruns message")
		}
		m.Withdrawn = make([]netip.Prefix, 0, countPrefixes(buf[d.off:wEnd]))
		for d.off < wEnd && d.err == nil {
			m.Withdrawn = append(m.Withdrawn, decodePrefix(d))
		}
		aLen := int(d.u16())
		aEnd := d.off + aLen
		if aEnd > len(buf) {
			return nil, fmt.Errorf("bgp: attribute length overruns message")
		}
		var nlri6 []netip.Prefix
		if aLen > 0 {
			attrs, n6, w6, seen, err := decodePathAttrs(d, aEnd)
			if err != nil {
				return nil, err
			}
			if seen {
				m.Attrs = attrs
			}
			nlri6 = n6
			m.Withdrawn = append(m.Withdrawn, w6...)
		}
		n4 := countPrefixes(buf[d.off:])
		m.NLRI = make([]netip.Prefix, 0, n4+len(nlri6))
		for d.off < len(buf) && d.err == nil {
			m.NLRI = append(m.NLRI, decodePrefix(d))
		}
		m.NLRI = append(m.NLRI, nlri6...)
		if d.err != nil {
			return nil, d.err
		}
		if len(m.NLRI) > 0 {
			if m.Attrs == nil {
				return nil, fmt.Errorf("bgp: NLRI without path attributes")
			}
			if err := m.Attrs.WellFormed(); err != nil {
				return nil, err
			}
			if n4 > 0 && !m.Attrs.NextHop.Is4() {
				return nil, fmt.Errorf("bgp: IPv4 NLRI with non-IPv4 NEXT_HOP %v", m.Attrs.NextHop)
			}
		}
		return &both.msg, nil
	default:
		return nil, fmt.Errorf("bgp: unknown message type %d", msgType)
	}
}

// wireDecoder is a bounds-checked cursor with sticky errors.
type wireDecoder struct {
	buf []byte
	off int
	err error
}

func (d *wireDecoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("bgp: decode: "+format, args...)
	}
}

func (d *wireDecoder) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if n < 0 || d.off+n > len(d.buf) {
		d.fail("truncated at %d (+%d of %d)", d.off, n, len(d.buf))
		return nil
	}
	b := d.buf[d.off : d.off+n]
	d.off += n
	return b
}

func (d *wireDecoder) rest() []byte {
	b := d.buf[d.off:]
	d.off = len(d.buf)
	return b
}

func (d *wireDecoder) u8() byte {
	b := d.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (d *wireDecoder) u16() uint16 {
	b := d.take(2)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint16(b)
}
