package bgp

import (
	"bytes"
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

// FuzzDecodeMessage throws arbitrary bytes at the first decoder a peer's
// socket reaches: header framing and all four message types. It must never
// panic, and whatever it accepts must survive encode → decode unchanged —
// what the session FSM acts on is what the peer would be told we heard.
// The corpus under testdata/fuzz is the wire form of the four *RoundTrip
// tests plus the framing errors a reader meets first.
func FuzzDecodeMessage(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := DecodeMessage(data)
		if err != nil {
			return
		}
		var buf []byte
		switch {
		case m.Open != nil:
			buf = AppendOpen(nil, m.Open)
		case m.Notification != nil:
			buf = AppendNotification(nil, m.Notification)
		case m.Keepalive:
			buf = AppendKeepalive(nil)
		case m.Update != nil:
			if buf, err = AppendUpdate(nil, m.Update); err != nil {
				t.Fatalf("decoded UPDATE does not re-encode: %v\nupdate: %+v", err, m.Update)
			}
		default:
			t.Fatalf("decoded to an empty message: % x", data)
		}
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
			if m2.Update == nil || !sameUpdate(m.Update, m2.Update) {
				t.Fatalf("UPDATE %+v -> %+v", m.Update, m2.Update)
			}
		}
	})
}
