package bgp

import (
	"bytes"
	"encoding/binary"
	"net/netip"
	"slices"
	"testing"
)

// sameUpdate reports whether two decoded UPDATEs say the same thing.
func sameUpdate(a, b *UpdateMsg) bool {
	if (a.Attrs == nil) != (b.Attrs == nil) || a.Attrs != nil && !a.Attrs.Equal(b.Attrs) {
		return false
	}
	return slices.Equal(a.Withdrawn, b.Withdrawn) && slices.Equal(a.NLRI, b.NLRI)
}

// updateParts splits an UPDATE's wire form into its withdrawn, attribute
// and NLRI blocks.
func updateParts(wire []byte) (wdr, attrs, nlri []byte, ok bool) {
	if wdr, rest, ok := lengthBlock(wire[headerLen:]); ok {
		attrs, nlri, ok = lengthBlock(rest)
		return wdr, attrs, nlri, ok
	}
	return nil, nil, nil, false
}

// splitAttrs cuts an attribute block into its attributes, each whole.
func splitAttrs(b []byte) (out [][]byte) {
	for len(b) >= 3 {
		n := 3 + int(b[2])
		if b[0]&flagExtLen != 0 && len(b) >= 4 {
			n = 4 + int(binary.BigEndian.Uint16(b[2:]))
		}
		n = min(n, len(b))
		out, b = append(out, b[:n]), b[n:]
	}
	return out
}

// attrBody returns the body of the first attribute of type typ in an
// attribute block, nil when there is none.
func attrBody(b []byte, typ uint8) []byte {
	for _, a := range splitAttrs(b) {
		if a[1] != typ {
			continue
		}
		if a[0]&flagExtLen != 0 {
			return a[4:]
		}
		return a[3:]
	}
	return nil
}

// rawUpdate builds an UPDATE from its three blocks.
func rawUpdate(wdr, attrs, nlri []byte) []byte {
	b, lenOff := appendHeader(nil, MsgUpdate)
	b = append(binary.BigEndian.AppendUint16(b, uint16(len(wdr))), wdr...)
	b = append(binary.BigEndian.AppendUint16(b, uint16(len(attrs))), attrs...)
	b = append(b, nlri...)
	patchLen(b, lenOff, 0)
	return b
}

// FuzzDecodeMessage throws arbitrary bytes at the first decoder a peer's
// socket reaches: header framing and all four message types. It must never
// panic, and whatever it accepts must survive encode → decode unchanged —
// what the session FSM acts on is what the peer would be told we heard.
// What it returns aliases nothing: not the buffer it read (a reader reuses
// it), and not Withdrawn and NLRI each other. An AS_PATH or COMMUNITY it
// accepts re-encodes to the very bytes it came as.
// The corpus under testdata/fuzz is the wire form of the four *RoundTrip
// tests, the framing errors a reader meets first, and the UPDATE shapes the
// decoder builds differently: IPv6 announce and withdraw in one message, a
// 9-AS first segment, a two-segment path, a repeated attribute, and a
// one-prefix announce and withdraw.
func FuzzDecodeMessage(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		in := bytes.Clone(data)
		m, err := DecodeMessage(in)
		if err != nil {
			return
		}
		encode := func() []byte {
			switch {
			case m.Open != nil:
				return AppendOpen(nil, m.Open)
			case m.Notification != nil:
				return AppendNotification(nil, m.Notification)
			case m.Keepalive:
				return AppendKeepalive(nil)
			case m.Update != nil:
				buf, err := AppendUpdate(nil, m.Update)
				if err != nil {
					t.Fatalf("decoded UPDATE does not re-encode: %v\nupdate: %+v", err, m.Update)
				}
				return buf
			}
			t.Fatalf("decoded to an empty message: % x", data)
			return nil
		}
		buf := encode()
		m2, err := DecodeMessage(buf)
		if err != nil {
			t.Fatalf("re-encoded message does not decode: %v\n in  % x\n out % x", err, data, buf)
		}
		switch {
		case m.Open != nil:
			if m2.Open == nil || *m2.Open != *m.Open {
				t.Fatalf("OPEN %+v -> %+v", m.Open, m2.Open)
			}
		case m.Notification != nil:
			// No field of a NOTIFICATION is dropped, so the bytes repeat too.
			n, n2 := m.Notification, m2.Notification
			if n2 == nil || n.Code != n2.Code || n.Subcode != n2.Subcode || !bytes.Equal(n.Data, n2.Data) || !bytes.Equal(buf, data) {
				t.Fatalf("NOTIFICATION %+v -> %+v\n in  % x\n out % x", n, n2, data, buf)
			}
		case m.Keepalive:
			if !m2.Keepalive || !bytes.Equal(buf, data) {
				t.Fatalf("KEEPALIVE % x -> % x", data, buf)
			}
		case m.Update != nil:
			u := m.Update
			if m2.Update == nil || !sameUpdate(u, m2.Update) {
				t.Fatalf("UPDATE %+v -> %+v", u, m2.Update)
			}
			if u.Attrs != nil {
				_, was, _, _ := updateParts(data)
				_, is, _, _ := updateParts(buf)
				for _, typ := range []uint8{attrASPath, attrCommunity} {
					if w, i := attrBody(was, typ), attrBody(is, typ); !bytes.Equal(w, i) {
						t.Fatalf("attribute %d decoded from % x re-encodes as % x", typ, w, i)
					}
				}
			}
			nlri, wdr := slices.Clone(u.NLRI), slices.Clone(u.Withdrawn)
			_ = append(u.Withdrawn, netip.Prefix{})
			_ = append(u.NLRI, netip.Prefix{})
			if !slices.Equal(u.NLRI, nlri) || !slices.Equal(u.Withdrawn, wdr) {
				t.Fatalf("an append to Withdrawn or NLRI wrote into the other: %v / %v", u.Withdrawn, u.NLRI)
			}
		}
		for i := range in {
			in[i] = 0xff
		}
		if again := encode(); !bytes.Equal(again, buf) {
			t.Fatalf("the decoded message changed with the buffer it was read from:\n was % x\n now % x", buf, again)
		}
	})
}
