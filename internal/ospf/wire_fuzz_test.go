package ospf

import (
	"reflect"
	"testing"
)

// FuzzOSPFDecode throws arbitrary bytes at the decoder a neighbour's
// packet reaches, LSAs included. It must never panic, and whatever it
// accepts must re-encode and decode to the same packet. The corpus under
// testdata/fuzz is one packet of each type, an LSA prefix with host bits
// set, and the packets Decode must reject: truncated, over-claimed counts,
// a /33, trailing bytes, an unknown type and a bad version.
func FuzzOSPFDecode(f *testing.F) {
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
