package xrl

import (
	"math/rand"
	"net/netip"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func TestPaperExampleTextForm(t *testing.T) {
	// The unresolved and resolved examples from §6.1.
	x := New("bgp", "bgp", "1.0", "set_local_as", U32("as", 1777))
	got := x.String()
	want := "finder://bgp/bgp/1.0/set_local_as?as:u32=1777"
	if got != want {
		t.Fatalf("String() = %q, want %q", got, want)
	}

	r := x
	r.Protocol = ProtoSTCP
	r.Target = "192.1.2.3:16878"
	if got := r.String(); got != "stcp://192.1.2.3:16878/bgp/1.0/set_local_as?as:u32=1777" {
		t.Fatalf("resolved String() = %q", got)
	}
}

func TestParseRoundTrip(t *testing.T) {
	cases := []XRL{
		New("rib", "rib", "1.0", "add_route",
			Text("protocol", "static"),
			Net("network", netip.MustParsePrefix("10.0.0.0/8")),
			Addr("nexthop", netip.MustParseAddr("192.168.1.1")),
			U32("metric", 5),
			Bool("unicast", true)),
		New("fea", "fti", "0.2", "lookup_route_by_dest",
			Addr("dst", netip.MustParseAddr("2001:db8::1")),
			Net("net", netip.MustParsePrefix("2001:db8::/32"))),
		New("bgp", "bgp", "1.0", "noargs"),
		New("x", "i", "9.9", "m",
			I32("a", -42), I64("b", -1<<40), U64("c", 1<<60), FP64("d", 2.5),
			Binary("e", []byte{0, 1, 0xfe, 0xff}),
			Text("weird", "a&b=c%d,e f/g")),
		New("rib", "x", "1.0", "routes",
			Route("a", netip.MustParsePrefix("10.0.1.0/24"), netip.MustParseAddr("192.168.1.254"), 5, ""),
			Route("b", netip.MustParsePrefix("2001:db8::/32"), netip.Addr{}, 0, "eth0"),
			Route("c", netip.MustParsePrefix("10.0.2.0/24"), netip.MustParseAddr("fe80::1"), 1<<32-1, "eth1")),
	}
	for _, x := range cases {
		s := x.String()
		got, err := Parse(s)
		if err != nil {
			t.Fatalf("Parse(%q): %v", s, err)
		}
		if got.String() != s {
			t.Errorf("round trip %q -> %q", s, got.String())
		}
		if got.Command() != x.Command() {
			t.Errorf("command %q != %q", got.Command(), x.Command())
		}
		for i := range x.Args {
			if !got.Args[i].Equal(x.Args[i]) {
				t.Errorf("%q: argument %d parsed back as %v", s, i, got.Args[i])
			}
		}
	}
}

func TestParseResolvedKey(t *testing.T) {
	x, err := Parse("stcp://127.0.0.1:9999/bgp/1.0/0123456789abcdef0123456789abcdef-set_local_as?as:u32=1")
	if err != nil {
		t.Fatal(err)
	}
	if x.Key != "0123456789abcdef0123456789abcdef" || x.Method != "set_local_as" {
		t.Fatalf("key=%q method=%q", x.Key, x.Method)
	}
	if !x.IsResolved() {
		t.Fatal("stcp XRL should report resolved")
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"no-protocol",
		"finder://bgp/oneslash",
		"finder://bgp/a/b/c/d/e",
		"finder:///a/b/c",
		"finder://bgp/bgp/1.0/m?noval",
		"finder://bgp/bgp/1.0/m?x=1",          // missing type
		"finder://bgp/bgp/1.0/m?x:zzz=1",      // unknown type
		"finder://bgp/bgp/1.0/m?x:u32=hello",  // bad number
		"finder://bgp/bgp/1.0/m?x:u32=-1",     // negative u32
		"finder://bgp/bgp/1.0/m?x:ipv4=potat", // bad address
		"finder://bgp/bgp/1.0/m?x:ipv4=::1",   // wrong family
		"finder://bgp/bgp/1.0/m?x:txt=%zz",    // bad escape
		"finder://bgp/bgp/1.0/m?x:binary=abc", // odd hex
	}
	for _, s := range bad {
		if _, err := Parse(s); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", s)
		}
	}
}

func TestAtomTextEscaping(t *testing.T) {
	a := Text("s", "a&b=c?d,e%f\x01")
	s := a.String()
	if strings.ContainsAny(strings.TrimPrefix(s, "s:txt="), "&=?,\x01") {
		t.Fatalf("unescaped structural chars in %q", s)
	}
	x := New("t", "i", "1.0", "m", a)
	back, err := Parse(x.String())
	if err != nil {
		t.Fatal(err)
	}
	got, _ := back.Args.TextArg("s")
	if got != "a&b=c?d,e%f\x01" {
		t.Fatalf("escaped round trip = %q", got)
	}
}

func TestWireRoundTrip(t *testing.T) {
	req := &Request{
		Seq:     7,
		Target:  "bgp",
		Command: "bgp/1.0/set_local_as",
		Key:     "deadbeef",
		Args: Args{
			U32("as", 1777),
			Bool("b", true),
			Text("t", "hello world"),
			Addr("a4", netip.MustParseAddr("10.1.2.3")),
			Addr("a6", netip.MustParseAddr("fe80::1")),
			Net("n4", netip.MustParsePrefix("10.0.0.0/8")),
			Net("n6", netip.MustParsePrefix("2001:db8::/32")),
			Binary("bin", []byte{1, 2, 3}),
			List("l", U32("", 1), Text("", "x")),
			I32("i", -5),
			I64("j", -1<<40),
			U64("k", 1<<62),
			FP64("f", 0.125),
		},
	}
	buf, err := AppendRequest(nil, req)
	if err != nil {
		t.Fatal(err)
	}
	gotReq := &Request{}
	if err := ParseRequest(buf, gotReq); err != nil {
		t.Fatalf("ParseRequest: %v", err)
	}
	if gotReq.Seq != req.Seq || gotReq.Target != req.Target || gotReq.Command != req.Command || gotReq.Key != req.Key {
		t.Fatalf("header mismatch: %+v", gotReq)
	}
	if len(gotReq.Args) != len(req.Args) {
		t.Fatalf("arg count %d != %d", len(gotReq.Args), len(req.Args))
	}
	for i := range req.Args {
		if !req.Args[i].Equal(gotReq.Args[i]) {
			t.Errorf("arg %d mismatch: %+v vs %+v", i, req.Args[i], gotReq.Args[i])
		}
	}
}

func TestWireReplyRoundTrip(t *testing.T) {
	rep := &Reply{Seq: 99, Code: CodeCommandFailed, Note: "boom", Args: Args{U32("x", 4)}}
	buf, err := AppendReply(nil, rep)
	if err != nil {
		t.Fatal(err)
	}
	got := &Reply{}
	if err := ParseReply(buf, got); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if got.Seq != 99 || got.Code != CodeCommandFailed || got.Note != "boom" || len(got.Args) != 1 {
		t.Fatalf("reply mismatch: %+v", got)
	}
}

func TestWireMalformed(t *testing.T) {
	req := &Request{Seq: 1, Command: "a/b/c", Args: Args{U32("x", 1), Text("y", "hello")}}
	buf, _ := AppendRequest(nil, req)
	// Every strict prefix of a valid frame must fail cleanly.
	for i := 0; i < len(buf); i++ {
		if err := ParseRequest(buf[:i], &Request{}); err == nil {
			// A prefix accidentally decoding completely should be
			// impossible since we check trailing bytes.
			t.Fatalf("prefix of %d bytes decoded successfully", i)
		}
	}
	// Corrupt frame type.
	bad := append([]byte{}, buf...)
	bad[0] = 9
	if err := ParseRequest(bad, &Request{}); err == nil {
		t.Fatal("bad frame type accepted")
	}
	if err := ParseReply(buf, &Reply{}); err == nil {
		t.Fatal("request frame accepted as a reply")
	}
	// Trailing garbage must be rejected.
	if err := ParseRequest(append(buf, 0), &Request{}); err == nil {
		t.Fatal("trailing bytes accepted")
	}
	// Huge argument count must be rejected without allocating.
	hdr := []byte{FrameRequest, 0, 0, 0, 1, 0, 1, 't', 0, 3, 'a', '/', 'b', 0, 0, 0xff, 0xff}
	if err := ParseRequest(hdr, &Request{}); err == nil {
		t.Fatal("absurd arg count accepted")
	}
}

func randAtom(r *rand.Rand, depth int) Atom {
	name := string(rune('a' + r.Intn(26)))
	switch r.Intn(13) {
	case 12:
		var net, nh [4]byte
		r.Read(net[:])
		r.Read(nh[:])
		a := Route(name, netip.PrefixFrom(netip.AddrFrom4(net), r.Intn(33)), netip.Addr{}, r.Uint32(), "")
		if r.Intn(2) == 0 {
			a.AddrVal, a.TextVal = netip.AddrFrom4(nh), "eth0"
		}
		return a
	case 0:
		return Bool(name, r.Intn(2) == 0)
	case 1:
		return I32(name, int32(r.Uint32()))
	case 2:
		return U32(name, r.Uint32())
	case 3:
		return I64(name, int64(r.Uint64()))
	case 4:
		return U64(name, r.Uint64())
	case 5:
		return FP64(name, r.NormFloat64())
	case 6:
		b := make([]byte, r.Intn(12))
		r.Read(b)
		return Text(name, string(b))
	case 7:
		var a [4]byte
		r.Read(a[:])
		return IPv4(name, netip.AddrFrom4(a))
	case 8:
		var a [16]byte
		r.Read(a[:])
		return IPv6(name, netip.AddrFrom16(a))
	case 9:
		var a [4]byte
		r.Read(a[:])
		return IPv4Net(name, netip.PrefixFrom(netip.AddrFrom4(a), r.Intn(33)))
	case 10:
		b := make([]byte, r.Intn(20))
		r.Read(b)
		return Binary(name, b)
	default:
		if depth > 1 {
			return U32(name, 7)
		}
		n := r.Intn(3)
		items := make([]Atom, n)
		for i := range items {
			items[i] = randAtom(r, depth+1)
		}
		return List(name, items...)
	}
}

func TestQuickWireRoundTrip(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		r := rand.New(rand.NewSource(seed))
		args := make(Args, int(n)%8)
		for i := range args {
			args[i] = randAtom(r, 0)
		}
		req := &Request{Seq: r.Uint32(), Command: "i/1.0/m", Key: "k", Args: args}
		buf, err := AppendRequest(nil, req)
		if err != nil {
			return false
		}
		got := &Request{}
		if err := ParseRequest(buf, got); err != nil {
			return false
		}
		if got.Seq != req.Seq || len(got.Args) != len(args) {
			return false
		}
		for i := range args {
			if !args[i].Equal(got.Args[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickDecodeNeverPanics(t *testing.T) {
	// Random bytes must produce an error or a frame, never a panic.
	f := func(b []byte) bool {
		defer func() {
			if recover() != nil {
				t.Errorf("decode panicked on %x", b)
			}
		}()
		ParseRequest(b, &Request{})
		ParseReply(b, &Reply{})
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestArgsAccessors(t *testing.T) {
	as := Args{
		U32("u", 5), Bool("b", true), Text("t", "x"),
		Net("n", netip.MustParsePrefix("10.0.0.0/8")),
		I32("i", -3), U64("q", 9), I64("j", -9), List("l", U32("", 1)),
	}
	if v, err := as.BoolArg("b"); err != nil || !v {
		t.Fatalf("BoolArg = %v, %v", v, err)
	}
	if v, err := as.TextArg("t"); err != nil || v != "x" {
		t.Fatalf("TextArg = %v, %v", v, err)
	}
	if v, err := as.NetArg("n"); err != nil || v != netip.MustParsePrefix("10.0.0.0/8") {
		t.Fatalf("NetArg = %v, %v", v, err)
	}
	if v, err := as.I32Arg("i"); err != nil || v != -3 {
		t.Fatalf("I32Arg = %v, %v", v, err)
	}
	if v, err := as.U64Arg("q"); err != nil || v != 9 {
		t.Fatalf("U64Arg = %v, %v", v, err)
	}
	if v, err := as.I64Arg("j"); err != nil || v != -9 {
		t.Fatalf("I64Arg = %v, %v", v, err)
	}
	if v, err := as.ListArg("l"); err != nil || len(v) != 1 {
		t.Fatalf("ListArg = %v, %v", v, err)
	}

	// Missing and mistyped arguments return CodeBadArgs.
	if _, err := as.TextArg("nope"); err == nil {
		t.Fatal("missing arg accepted")
	} else if xe := AsError(err); xe.Code != CodeBadArgs {
		t.Fatalf("missing arg code = %v", xe.Code)
	}
	if _, err := as.BoolArg("t"); err == nil {
		t.Fatal("mistyped arg accepted")
	}
	if _, err := as.NetArg("u"); err == nil {
		t.Fatal("NetArg on u32 accepted")
	}
}

func TestErrorHelpers(t *testing.T) {
	e := Errorf(CodeResolveFailed, "no target %q", "bgp")
	if e.Code != CodeResolveFailed || !strings.Contains(e.Error(), "bgp") {
		t.Fatalf("Errorf = %v", e)
	}
	if AsError(nil) != nil {
		t.Fatal("AsError(nil) != nil")
	}
	plain := AsError(strings.NewReader("").UnreadByte())
	if plain == nil || plain.Code != CodeCommandFailed {
		t.Fatalf("AsError(plain) = %v", plain)
	}
	if AsError(e) != e {
		t.Fatal("AsError did not pass through *Error")
	}
	if CodeOkay.String() != "OKAY" || CodeBadKey.String() != "BAD_KEY" {
		t.Fatal("code names wrong")
	}
	if ErrorCode(9999).String() == "" {
		t.Fatal("unknown code has empty name")
	}
}

func TestAtomEqualNameMatters(t *testing.T) {
	if U32("a", 1).Equal(U32("b", 1)) {
		t.Fatal("atoms with different names compare equal")
	}
	if U32("a", 1).Equal(I32("a", 1)) {
		t.Fatal("atoms with different types compare equal")
	}
}

func TestTypeNamesBijective(t *testing.T) {
	for typ, name := range typeNames {
		if typeByName[name] != typ {
			t.Fatalf("type %v name %q not bijective", typ, name)
		}
	}
	if !reflect.DeepEqual(typeByName["u32"], TypeU32) {
		t.Fatal("u32 lookup broken")
	}
}

func TestRouteAtomText(t *testing.T) {
	a, err := ParseAtomValue("r", TypeRoute, "10.0.1.0/24 192.168.1.254 5 -")
	want := Route("r", netip.MustParsePrefix("10.0.1.0/24"), netip.MustParseAddr("192.168.1.254"), 5, "")
	if err != nil || !a.Equal(want) {
		t.Fatalf("parsed %v, %v; want %v", a, err, want)
	}
	if got := a.String(); got != "r:route=10.0.1.0/24 192.168.1.254 5 -" {
		t.Fatalf("String() = %q", got)
	}
	for _, bad := range []string{"", "10.0.1.0/24", "10.0.1.0/24 - 5", "10.0.1.0/24 - 5 eth0 extra",
		"10.0.1.0 - 5 -", "10.0.1.0/24 nexthop 5 -", "10.0.1.0/24 - -1 -", "10.0.1.0/24 - 4294967296 -"} {
		if _, err := ParseAtomValue("r", TypeRoute, bad); err == nil {
			t.Errorf("route %q accepted", bad)
		}
	}
}

func TestWireRouteMalformed(t *testing.T) {
	frame := func(value ...byte) []byte {
		// A request of one nameless route atom with the given value bytes.
		return append([]byte{FrameRequest, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 1, byte(TypeRoute), 0}, value...)
	}
	good := frame(routeHasNexthop, 10, 0, 1, 0, 24, 192, 168, 1, 254, 0, 0, 0, 5, 0)
	var req Request
	if err := ParseRequest(good, &req); err != nil {
		t.Fatalf("well-formed route atom: %v", err)
	}
	for name, bad := range map[string][]byte{
		"unknown flag bit":         frame(0x08, 10, 0, 1, 0, 24, 0, 0, 0, 5, 0),
		"v6 nexthop flag, no hop":  frame(routeNexthop6, 10, 0, 1, 0, 24, 0, 0, 0, 5, 0),
		"33 bits on an IPv4 net":   frame(0, 10, 0, 1, 0, 33, 0, 0, 0, 5, 0),
		"truncated before metric":  frame(0, 10, 0, 1, 0, 24, 0, 0),
		"ifname longer than frame": frame(0, 10, 0, 1, 0, 24, 0, 0, 0, 5, 9, 'e'),
	} {
		if err := ParseRequest(bad, &req); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	// A route without a valid prefix cannot be encoded.
	if _, err := AppendRequest(nil, &Request{Args: Args{Route("", netip.Prefix{}, netip.Addr{}, 0, "")}}); err == nil {
		t.Error("encoded a route atom with no prefix")
	}
}

func TestWireListDepthBounded(t *testing.T) {
	nest := func(depth int) Atom {
		a := U32("leaf", 1)
		for i := 0; i < depth; i++ {
			a = List("l", a)
		}
		return a
	}
	var req Request
	for depth, ok := range map[int]bool{maxListDepth: true, maxListDepth + 1: false} {
		buf, err := AppendRequest(nil, &Request{Args: Args{nest(depth)}})
		if err != nil {
			t.Fatal(err)
		}
		if err := ParseRequest(buf, &req); (err == nil) != ok {
			t.Errorf("lists nested %d deep: err = %v", depth, err)
		}
	}
	// The hostile form: nothing but list headers, far deeper than any stack
	// should follow.
	hostile := []byte{FrameRequest, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 1}
	for i := 0; i < 1<<16; i++ {
		hostile = append(hostile, byte(TypeList), 0, 0, 1)
	}
	if err := ParseRequest(hostile, &req); err == nil {
		t.Error("65536 nested lists accepted")
	}
}
