package bgp

import (
	"bytes"
	"fmt"
	"math/rand"
	"net/netip"
	"slices"
	"strings"
	"testing"
	"testing/quick"
	"unsafe"
)

func TestOpenRoundTrip(t *testing.T) {
	m := &OpenMsg{Version: 4, AS: 65001, HoldTime: 90, BGPID: mustA("10.0.0.1")}
	buf := AppendOpen(nil, m)
	got, err := DecodeMessage(buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Open == nil || *got.Open != *m {
		t.Fatalf("round trip: %+v", got.Open)
	}
}

func TestKeepaliveRoundTrip(t *testing.T) {
	buf := AppendKeepalive(nil)
	if len(buf) != headerLen {
		t.Fatalf("keepalive length %d", len(buf))
	}
	got, err := DecodeMessage(buf)
	if err != nil || !got.Keepalive {
		t.Fatalf("decode: %v %+v", err, got)
	}
}

func TestNotificationRoundTrip(t *testing.T) {
	m := &NotificationMsg{Code: NotifCease, Subcode: 2, Data: []byte{1, 2, 3}}
	buf := AppendNotification(nil, m)
	got, err := DecodeMessage(buf)
	if err != nil || got.Notification == nil {
		t.Fatal(err)
	}
	n := got.Notification
	if n.Code != NotifCease || n.Subcode != 2 || len(n.Data) != 3 {
		t.Fatalf("notification %+v", n)
	}
	if n.Error() == "" {
		t.Fatal("empty notification error text")
	}
}

func TestUpdateRoundTrip(t *testing.T) {
	attrs := &PathAttrs{
		Origin:          OriginEGP,
		ASPath:          ASPath{{Type: SegSequence, ASes: []uint16{1, 2, 3}}, {Type: SegSet, ASes: []uint16{9, 10}}},
		NextHop:         mustA("10.1.1.1"),
		MED:             50,
		HasMED:          true,
		LocalPref:       200,
		HasLocalPref:    true,
		AtomicAggregate: true,
		AggregatorAS:    65100,
		AggregatorAddr:  mustA("10.9.9.9"),
		HasAggregator:   true,
		Communities:     []uint32{0x00010002, 0xFFFF0001},
	}
	m := &UpdateMsg{
		Withdrawn: []netip.Prefix{mustP("10.5.0.0/16"), mustP("192.168.0.0/24")},
		Attrs:     attrs,
		NLRI:      []netip.Prefix{mustP("10.0.0.0/8"), mustP("172.16.0.0/12"), mustP("0.0.0.0/0")},
	}
	buf, err := AppendUpdate(nil, m)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeMessage(buf)
	if err != nil || got.Update == nil {
		t.Fatal(err)
	}
	u := got.Update
	if len(u.Withdrawn) != 2 || u.Withdrawn[0] != mustP("10.5.0.0/16") {
		t.Fatalf("withdrawn %v", u.Withdrawn)
	}
	if len(u.NLRI) != 3 || u.NLRI[2] != mustP("0.0.0.0/0") {
		t.Fatalf("nlri %v", u.NLRI)
	}
	if !u.Attrs.Equal(attrs) {
		t.Fatalf("attrs %+v != %+v", u.Attrs, attrs)
	}
}

func TestUpdateWithdrawOnly(t *testing.T) {
	m := &UpdateMsg{Withdrawn: []netip.Prefix{mustP("10.0.0.0/8")}}
	buf, err := AppendUpdate(nil, m)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeMessage(buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Update.Attrs != nil || len(got.Update.NLRI) != 0 {
		t.Fatalf("withdraw-only decoded %+v", got.Update)
	}
}

// TestDecodeUpdateAllocs: an UPDATE decodes at a fixed cost, whatever its
// family or prefix count: the message block (holding the prefix when there
// is one), one prefix array when there are more, and the attribute block of
// an announcement.
func TestDecodeUpdateAllocs(t *testing.T) {
	var nets, nets6 []netip.Prefix
	for i := 0; i < 64; i++ {
		nets = append(nets, netip.PrefixFrom(netip.AddrFrom4([4]byte{10, byte(i), 0, 0}), 16))
		nets6 = append(nets6, netip.PrefixFrom(netip.AddrFrom16([16]byte{0x20, 0x01, 0x0d, 0xb8, byte(i)}), 48))
	}
	wire := func(m *UpdateMsg) []byte {
		b, err := AppendUpdate(nil, m)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	via4, via6 := attrsVia("10.0.0.1", 65001, 64512, 64513), attrsVia("2001:db8::1", 65001, 64512, 64513)
	for _, c := range []struct {
		name  string
		wire  []byte
		n     int // prefixes
		bound float64
	}{
		{"64-NLRI announce", wire(&UpdateMsg{Attrs: via4, NLRI: nets}), 64, 3},
		{"64-prefix withdraw", wire(&UpdateMsg{Withdrawn: nets}), 64, 2},
		{"64-NLRI IPv6 announce", wire(&UpdateMsg{Attrs: via6, NLRI: nets6}), 64, 3},
		{"64-prefix IPv6 withdraw", wire(&UpdateMsg{Withdrawn: nets6}), 64, 2},
		{"one-prefix announce", wire(&UpdateMsg{Attrs: via4, NLRI: nets[:1]}), 1, 2},
		{"one-prefix withdraw", wire(&UpdateMsg{Withdrawn: nets[:1]}), 1, 1},
	} {
		got := testing.AllocsPerRun(200, func() {
			m, err := DecodeMessage(c.wire)
			if err != nil || len(m.Update.NLRI)+len(m.Update.Withdrawn) != c.n {
				t.Fatalf("%s: %+v, %v", c.name, m, err)
			}
		})
		t.Logf("%s: %.0f allocations", c.name, got)
		if got > c.bound {
			t.Errorf("%s decodes in %.0f allocations, want <= %.0f", c.name, got, c.bound)
		}
	}
}

// TestEncodeAllocs: the export side's rewrite is one attribute block, and a
// run, IPv4 and IPv6 mixed, encodes into a buffer already at size without
// any scratch of its own.
func TestEncodeAllocs(t *testing.T) {
	in := &PathAttrs{
		Origin:      OriginIGP,
		ASPath:      ASPath{{Type: SegSequence, ASes: []uint16{65001, 65002, 65003}}},
		NextHop:     mustA("10.0.0.1"),
		Communities: []uint32{1, 2, 3},
	}
	var run []netip.Prefix
	for i := 0; i < 64; i++ {
		run = append(run, netip.PrefixFrom(netip.AddrFrom4([4]byte{10, byte(i), 0, 0}), 16),
			netip.PrefixFrom(netip.AddrFrom16([16]byte{0x20, 0x01, 0x0d, 0xb8, byte(i)}), 48))
	}
	export := FilterEBGPExport(64512, mustA("192.0.2.1"))
	// Two input sets in turn, so the filter's memo of its last rewrite
	// never answers.
	ins, r := [2]*PathAttrs{in, in.Clone()}, Route{Net: run[0]}
	var out *PathAttrs
	rewrite := testing.AllocsPerRun(100, func() {
		r.Attrs = ins[0]
		ins[0], ins[1] = ins[1], ins[0]
		out = export.Apply(&r)
	})
	if got := out.ASPath.String(); got != "64512 65001 65002 65003" {
		t.Fatalf("rewritten path %q", got)
	}
	if rewrite > 1 {
		t.Errorf("an EBGP export rewrite costs %.0f allocations, want 1", rewrite)
	}
	buf, err := AppendUpdateRun(nil, out, run)
	if err != nil {
		t.Fatal(err)
	}
	encode := testing.AllocsPerRun(100, func() {
		if buf, err = AppendUpdateRun(buf[:0], out, run); err != nil {
			t.Fatal(err)
		}
	})
	if encode != 0 {
		t.Errorf("a mixed run encodes into a warmed buffer in %.0f allocations, want 0", encode)
	}
}

// TestAttrBlockSize: the attribute block fills the 160-byte size class
// exactly; a field that widens PathAttrs moves every set into the next.
func TestAttrBlockSize(t *testing.T) {
	if a, b := unsafe.Sizeof(PathAttrs{}), unsafe.Sizeof(attrBlock{}); a != 112 || b != 160 {
		t.Errorf("PathAttrs is %d bytes, attrBlock %d; want 112 and 160", a, b)
	}
}

// TestRepeatedAttributeRejected: an attribute may appear once in an
// UPDATE (RFC 4271 §6.3, Malformed Attribute List), the multiprotocol ones
// and those the decoder ignores included. Each row takes one attribute of a
// message that carries every type, and repeats it at the end.
func TestRepeatedAttributeRejected(t *testing.T) {
	wire, err := AppendUpdate(nil, &UpdateMsg{
		Withdrawn: []netip.Prefix{mustP("2001:db8:1::/48")},
		Attrs:     fullAttrs(),
		NLRI:      []netip.Prefix{mustP("10.0.0.0/8"), mustP("2001:db8:2::/48")},
	})
	if err != nil {
		t.Fatal(err)
	}
	wdr, attrs, nlri, _ := updateParts(wire)
	// An optional attribute the decoder does not know, which it ignores.
	attrs = append(slices.Clone(attrs), flagOptional|flagTransitive, 99, 1, 7)
	if _, err := DecodeMessage(rawUpdate(wdr, attrs, nlri)); err != nil {
		t.Fatalf("each attribute once: %v", err)
	}
	byType := make(map[uint8][]byte)
	for _, a := range splitAttrs(attrs) {
		byType[a[1]] = a
	}
	for _, c := range []struct {
		name string
		typ  uint8
	}{
		{"ORIGIN", attrOrigin},
		{"AS_PATH", attrASPath},
		{"NEXT_HOP", attrNextHop},
		{"MULTI_EXIT_DISC", attrMED},
		{"LOCAL_PREF", attrLocalPref},
		{"ATOMIC_AGGREGATE", attrAtomicAggregate},
		{"AGGREGATOR", attrAggregator},
		{"COMMUNITY", attrCommunity},
		{"MP_REACH_NLRI", attrMPReachNLRI},
		{"MP_UNREACH_NLRI", attrMPUnreachNLRI},
		{"unknown optional", 99},
	} {
		a := byType[c.typ]
		if a == nil {
			t.Fatalf("%s: the message carries no attribute %d", c.name, c.typ)
		}
		_, err := DecodeMessage(rawUpdate(wdr, append(slices.Clone(attrs), a...), nlri))
		if want := fmt.Sprintf("attribute %d repeated", c.typ); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s twice: err %v, want one saying %q", c.name, err, want)
		}
	}
}

func TestUpdateRejectsNLRIWithoutAttrs(t *testing.T) {
	if _, err := AppendUpdate(nil, &UpdateMsg{NLRI: []netip.Prefix{mustP("10.0.0.0/8")}}); err == nil {
		t.Fatal("NLRI without attrs encoded")
	}
}

func TestHeaderValidation(t *testing.T) {
	buf := AppendKeepalive(nil)
	if _, _, err := HeaderInfo(buf[:10]); err == nil {
		t.Fatal("short header accepted")
	}
	bad := append([]byte(nil), buf...)
	bad[3] = 0
	if _, _, err := HeaderInfo(bad); err == nil {
		t.Fatal("bad marker accepted")
	}
	bad = append([]byte(nil), buf...)
	bad[16], bad[17] = 0xff, 0xff
	if _, _, err := HeaderInfo(bad); err == nil {
		t.Fatal("oversized message length accepted")
	}
}

func TestDecodeTruncationsNeverPanic(t *testing.T) {
	m := &UpdateMsg{
		Withdrawn: []netip.Prefix{mustP("10.5.0.0/16")},
		Attrs:     testAttrs(),
		NLRI:      []netip.Prefix{mustP("10.0.0.0/8")},
	}
	buf, err := AppendUpdate(nil, m)
	if err != nil {
		t.Fatal(err)
	}
	for i := headerLen; i < len(buf); i++ {
		trunc := append([]byte(nil), buf[:i]...)
		// Fix up the header length so framing passes and body decoding is
		// exercised.
		trunc[16] = byte(i >> 8)
		trunc[17] = byte(i)
		if _, err := DecodeMessage(trunc); err == nil {
			// Some truncations yield valid smaller messages only if they
			// cut exactly at a prefix boundary with consistent section
			// lengths; those are fine. A panic is the real failure mode.
			continue
		}
	}
}

func TestQuickRandomBytesNeverPanic(t *testing.T) {
	f := func(body []byte) bool {
		buf := make([]byte, 0, headerLen+len(body))
		for i := 0; i < 16; i++ {
			buf = append(buf, markerByte)
		}
		total := headerLen + len(body)
		buf = append(buf, byte(total>>8), byte(total), byte(len(body)%5))
		buf = append(buf, body...)
		DecodeMessage(buf) // must not panic
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func randPrefix4(r *rand.Rand) netip.Prefix {
	a := netip.AddrFrom4([4]byte{byte(r.Intn(224)), byte(r.Intn(256)), byte(r.Intn(256)), byte(r.Intn(256))})
	p, _ := a.Prefix(r.Intn(33))
	return p
}

func TestQuickUpdateRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		attrs := &PathAttrs{
			Origin:  uint8(r.Intn(3)),
			NextHop: netip.AddrFrom4([4]byte{byte(r.Intn(256)), byte(r.Intn(256)), byte(r.Intn(256)), byte(r.Intn(256))}),
		}
		for s := 0; s < r.Intn(3); s++ {
			seg := ASSegment{Type: uint8(1 + r.Intn(2))}
			for i := 0; i <= r.Intn(5); i++ {
				seg.ASes = append(seg.ASes, uint16(r.Intn(65535)+1))
			}
			attrs.ASPath = append(attrs.ASPath, seg)
		}
		if r.Intn(2) == 0 {
			attrs.MED, attrs.HasMED = r.Uint32(), true
		}
		if r.Intn(2) == 0 {
			attrs.LocalPref, attrs.HasLocalPref = r.Uint32(), true
		}
		for i := 0; i < r.Intn(4); i++ {
			attrs.Communities = append(attrs.Communities, r.Uint32())
		}
		m := &UpdateMsg{Attrs: attrs}
		for i := 0; i <= r.Intn(8); i++ {
			m.NLRI = append(m.NLRI, randPrefix4(r))
		}
		for i := 0; i < r.Intn(8); i++ {
			m.Withdrawn = append(m.Withdrawn, randPrefix4(r))
		}
		buf, err := AppendUpdate(nil, m)
		if err != nil {
			return false
		}
		got, err := DecodeMessage(buf)
		if err != nil || got.Update == nil {
			return false
		}
		if len(got.Update.NLRI) != len(m.NLRI) || len(got.Update.Withdrawn) != len(m.Withdrawn) {
			return false
		}
		for i := range m.NLRI {
			if got.Update.NLRI[i] != m.NLRI[i].Masked() {
				return false
			}
		}
		return got.Update.Attrs.Equal(attrs)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// FuzzUpdateWire is the wire-format wall around the fast path: any UPDATE
// that decodes must re-encode losslessly (decode → encode → decode is a
// fixed point), and interning the decoded attributes must never conflate
// distinct sets nor split equal ones.
func FuzzUpdateWire(f *testing.F) {
	seed := func(m *UpdateMsg) {
		buf, err := AppendUpdate(nil, m)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(buf)
	}
	// AS-path and community corner cases, mixed families, withdraw-only.
	seed(&UpdateMsg{Attrs: testAttrs(), NLRI: []netip.Prefix{mustP("10.0.0.0/8")}})
	seed(&UpdateMsg{Attrs: &PathAttrs{NextHop: mustA("10.0.0.1")},
		NLRI: []netip.Prefix{mustP("0.0.0.0/0"), mustP("255.255.255.255/32")}})
	seed(&UpdateMsg{Attrs: &PathAttrs{
		NextHop: mustA("10.0.0.1"),
		ASPath: ASPath{
			{Type: SegSequence, ASes: []uint16{1}},
			{Type: SegSet, ASes: []uint16{2, 3}},
			{Type: SegSequence, ASes: []uint16{4, 5, 6}},
		},
		Communities: []uint32{0, 0xFFFFFFFF, 0x00010002},
	}, NLRI: []netip.Prefix{mustP("192.168.0.0/24")}})
	seed(&UpdateMsg{Attrs: &PathAttrs{
		NextHop: mustA("10.0.0.1"),
		MED:     0, HasMED: true, // present-but-zero vs absent
		LocalPref: 0, HasLocalPref: true,
		AtomicAggregate: true,
		AggregatorAS:    65535, AggregatorAddr: mustA("1.2.3.4"), HasAggregator: true,
	}, NLRI: []netip.Prefix{mustP("10.1.0.0/16")}})
	seed(&UpdateMsg{Attrs: testAttrs(),
		NLRI: []netip.Prefix{mustP("2001:db8::/32"), mustP("10.0.0.0/8"), mustP("::/0")}})
	seed(&UpdateMsg{Withdrawn: []netip.Prefix{mustP("10.0.0.0/8"), mustP("2001:db8::/32")}})
	longSeg := ASSegment{Type: SegSequence}
	for i := 0; i < 255; i++ {
		longSeg.ASes = append(longSeg.ASes, uint16(i+1))
	}
	seed(&UpdateMsg{Attrs: &PathAttrs{NextHop: mustA("10.0.0.1"), ASPath: ASPath{longSeg}},
		NLRI: []netip.Prefix{mustP("10.2.0.0/15")}})

	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := DecodeMessage(data)
		if err != nil || m.Update == nil {
			return // invalid or non-UPDATE input: only "no panic" is asserted
		}
		u := m.Update
		buf, err := AppendUpdate(nil, u)
		if err != nil {
			t.Fatalf("decoded UPDATE does not re-encode: %v\nupdate: %+v", err, u)
		}
		m2, err := DecodeMessage(buf)
		if err != nil || m2.Update == nil {
			t.Fatalf("re-encoded UPDATE does not decode: %v", err)
		}
		u2 := m2.Update
		if len(u2.Withdrawn) != len(u.Withdrawn) || len(u2.NLRI) != len(u.NLRI) {
			t.Fatalf("prefix counts changed: %v/%v -> %v/%v", u.Withdrawn, u.NLRI, u2.Withdrawn, u2.NLRI)
		}
		for i := range u.Withdrawn {
			if u2.Withdrawn[i] != u.Withdrawn[i] {
				t.Fatalf("withdrawn[%d] %v -> %v", i, u.Withdrawn[i], u2.Withdrawn[i])
			}
		}
		for i := range u.NLRI {
			if u2.NLRI[i] != u.NLRI[i] {
				t.Fatalf("nlri[%d] %v -> %v", i, u.NLRI[i], u2.NLRI[i])
			}
		}
		switch {
		case (u.Attrs == nil) != (u2.Attrs == nil):
			t.Fatalf("attrs presence changed: %+v -> %+v", u.Attrs, u2.Attrs)
		case u.Attrs != nil && !u2.Attrs.Equal(u.Attrs):
			t.Fatalf("attrs changed: %+v -> %+v", u.Attrs, u2.Attrs)
		}
		// Fixed point: encoding the re-decoded message reproduces the bytes.
		buf2, err := AppendUpdate(nil, u2)
		if err != nil || !bytes.Equal(buf, buf2) {
			t.Fatalf("encode not a fixed point (err=%v):\n %x\n %x", err, buf, buf2)
		}
		// Pool semantics: two independent decodes of the same bytes intern
		// to one canonical set; a clone does too; the canonical set is
		// Equal to the original.
		if u.Attrs != nil {
			pool := NewAttrPool()
			c1 := pool.Intern(u.Attrs)
			c2 := pool.Intern(u2.Attrs)
			c3 := pool.Intern(u.Attrs.Clone())
			if c1 != c2 || c1 != c3 {
				t.Fatalf("pool split equal sets: %p %p %p", c1, c2, c3)
			}
			if !c1.Equal(u.Attrs) {
				t.Fatal("canonical attrs not equal to interned input")
			}
			if pool.Len() != 1 {
				t.Fatalf("pool holds %d sets for one attr set", pool.Len())
			}
		}
	})
}

func TestASPathHelpers(t *testing.T) {
	p := ASPath{{Type: SegSequence, ASes: []uint16{1, 2}}, {Type: SegSet, ASes: []uint16{3, 4, 5}}}
	if p.Length() != 3 { // 2 + 1 for the set
		t.Fatalf("Length = %d", p.Length())
	}
	if !p.Contains(4) || p.Contains(9) {
		t.Fatal("Contains broken")
	}
	q := p.Prepend(99)
	if q.Length() != 4 || q[0].ASes[0] != 99 {
		t.Fatalf("Prepend = %v", q)
	}
	// Original untouched.
	if p[0].ASes[0] != 1 {
		t.Fatal("Prepend mutated original")
	}
	empty := ASPath{}
	e := empty.Prepend(7)
	if e.Length() != 1 || e.String() != "7" {
		t.Fatalf("Prepend on empty = %q", e.String())
	}
	if p.String() != "1 2 {3,4,5}" {
		t.Fatalf("String = %q", p.String())
	}
	if !p.Equal(p) || p.Equal(q) {
		t.Fatal("Equal broken")
	}
}

func TestAttrsClone(t *testing.T) {
	a := testAttrs()
	a.Communities = []uint32{1}
	c := a.Clone()
	c.ASPath[0].ASes[0] = 9999
	c.Communities[0] = 9999
	if a.ASPath[0].ASes[0] == 9999 || a.Communities[0] == 9999 {
		t.Fatal("Clone shares backing arrays")
	}
}

func TestWellFormed(t *testing.T) {
	a := &PathAttrs{Origin: OriginIGP}
	if err := a.WellFormed(); err == nil {
		t.Fatal("missing NEXT_HOP accepted")
	}
	a.NextHop = mustA("1.2.3.4")
	a.Origin = 9
	if err := a.WellFormed(); err == nil {
		t.Fatal("bad ORIGIN accepted")
	}
}
