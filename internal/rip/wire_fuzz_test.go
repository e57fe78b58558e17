package rip

import (
	"reflect"
	"testing"
)

// FuzzRIPDecode throws arbitrary bytes at the decoder a neighbour's
// datagram reaches. It must never panic, and whatever it accepts must
// re-encode and decode to the same packet. The corpus under testdata/fuzz
// is a response, a whole-table request, an authentication entry ahead of a
// route, a route with host bits set, and the packets Decode must reject.
func FuzzRIPDecode(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := Decode(data)
		if err != nil {
			return
		}
		buf, err := p.Append(nil)
		if err != nil {
			t.Fatalf("decoded packet does not re-encode: %v\npacket: %+v", err, p)
		}
		q, err := Decode(buf)
		if err != nil {
			t.Fatalf("re-encoded packet does not decode: %v\n in  % x\n out % x", err, data, buf)
		}
		if !reflect.DeepEqual(p, q) {
			t.Fatalf("decode → append → decode changed the packet:\n %+v\n %+v", p, q)
		}
	})
}
