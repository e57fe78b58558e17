package xif_test

import (
	"bytes"
	"math"
	"net/netip"
	"reflect"
	"testing"

	"xorp/internal/eventloop"
	"xorp/internal/route"
	"xorp/internal/xif"
	"xorp/internal/xipc"
	"xorp/internal/xrl"
)

// Fuzz targets for the decoders an XRL's bytes reach first: the frame
// codec, its reuse of the frame it decodes into, and the route atom. They live here rather than in package xrl so
// that their seeds can be every declared interface's sample call (xif
// imports xrl). Each has a checked-in corpus under testdata/fuzz.

// sampleFrames encodes every spec method's sample call as a request
// frame and, dispatched against the conformance server, its reply.
func sampleFrames(f *testing.F) (requests, replies [][]byte) {
	loop := eventloop.New(nil)
	r := xipc.NewRouter("fuzz_seed", loop)
	target := xif.NewTarget("conf", "conf")
	bindAll(target)
	r.AddTarget(target)
	for _, spec := range xif.All() {
		for i := range spec.Methods {
			m := &spec.Methods[i]
			args, err := m.SampleArgs()
			if err != nil {
				f.Fatal(err)
			}
			req, err := xrl.AppendRequest(nil, &xrl.Request{Seq: 7, Target: "conf",
				Command: spec.Command(m.Name), Key: "0123456789abcdef", Args: args})
			if err != nil {
				f.Fatal(err)
			}
			requests = append(requests, req)
			r.SendFromLoop(spec.NewXRL("conf", m.Name, args...), func(out xrl.Args, xe *xrl.Error) {
				rep := &xrl.Reply{Seq: 7, Code: xrl.CodeOkay, Args: out}
				if xe != nil {
					rep.Code, rep.Note = xe.Code, xe.Note
				}
				if b, err := xrl.AppendReply(nil, rep); err == nil {
					replies = append(replies, b)
				}
			})
		}
	}
	// Nine frames of each kind that no sample call makes (a sample call
	// sends every optional argument). Requests: the shortest, one whose
	// atoms nest, a redistributed route with its optionals left out,
	// integers at their extremes beside an IPv6 net, and runs of one on
	// each list XRL: a tagged route, a withdrawal, an entry without a next
	// hop, an entry's removal, and a route as call_xrl spells it. Replies:
	// a bare failure, an empty okay, a BAD_ARGS failure, an okay whose
	// results nest, a NO_SUCH_METHOD failure, a removal's failure, a
	// lookup's answer with empty and repeated txt values, a resync's
	// count, and a NaN.
	one := netip.MustParsePrefix("10.9.0.0/16")
	for _, req := range []*xrl.Request{
		{},
		{Seq: 7, Target: "conf", Command: "x/1.0/y", Args: xrl.Args{
			xrl.List("l", xrl.Binary("b", []byte{0, 0xff}), xrl.List("", xrl.FP64("", -0.5)))}},
		{Seq: 7, Target: "conf", Command: xif.Redist4Spec.Command("add_route4"), Key: "0123456789abcdef",
			Args: xrl.Args{xrl.Net("network", netip.MustParsePrefix("10.1.0.0/16"))}},
		{Seq: ^uint32(0), Target: "conf", Command: "x/1.0/y", Args: xrl.Args{
			{Name: "i32", Type: xrl.TypeI32, IntVal: math.MinInt32},
			{Name: "i64", Type: xrl.TypeI64, IntVal: math.MinInt64},
			{Name: "u64", Type: xrl.TypeU64, IntVal: -1}, // math.MaxUint64
			xrl.Bool("b", false), xrl.Net("net", netip.MustParsePrefix("2001:db8::/32"))}},
		{Seq: 7, Target: "conf", Command: xif.RIBSpec.Command("add_routes4"), Args: xrl.Args{
			xrl.Text("protocol", "ospf"),
			xrl.List("routes", xrl.Route("", one, netip.MustParseAddr("192.0.2.1"), 5, "eth0")),
			xrl.List("policytags", xrl.U32("", 7), xrl.U32("", 0xfde80001))}},
		{Seq: 7, Target: "conf", Command: xif.RIBSpec.Command("delete_routes4"), Args: xrl.Args{
			xrl.Text("protocol", "ebgp"), xrl.List("networks", xrl.IPv4Net("", one))}},
		{Seq: 7, Target: "conf", Command: xif.FTISpec.Command("add_entries4"), Args: xrl.Args{
			xrl.List("entries", xrl.Route("", one, netip.Addr{}, 0, "eth1"))}},
		{Seq: 7, Target: "conf", Command: xif.FTISpec.Command("delete_entries4"), Args: xrl.Args{
			xrl.List("networks", xrl.IPv4Net("", one))}},
		{Seq: 7, Target: "conf", Command: xif.RIBSpec.Command("add_routes4"), Args: xrl.Args{
			xrl.Text("protocol", "static"), xrl.List("routes", xrl.Text("", "10.9.0.0/16 192.168.1.253 0 eth0"))}},
	} {
		b, err := xrl.AppendRequest(nil, req)
		if err != nil {
			f.Fatal(err)
		}
		requests = append(requests, b)
	}
	for _, rep := range []*xrl.Reply{
		{Seq: 7, Code: xrl.CodeCommandFailed, Note: "no such route"},
		{Seq: 7, Code: xrl.CodeOkay},
		{Seq: 7, Code: xrl.CodeBadArgs, Note: "missing argument network"},
		{Seq: ^uint32(0), Code: xrl.CodeOkay, Args: xrl.Args{
			xrl.List("routes", xrl.Route("", netip.MustParsePrefix("192.0.2.0/24"), netip.MustParseAddr("192.0.2.1"), 5, "eth0")),
			xrl.IPv6("addr", netip.MustParseAddr("fe80::1"))}},
		{Seq: 7, Code: xrl.CodeNoSuchMethod, Note: "no such method rib/1.0/add_route4"},
		{Seq: 7, Code: xrl.CodeCommandFailed, Note: "fea: no FIB entry for 10.9.0.0/16"},
		{Seq: 7, Code: xrl.CodeOkay, Args: xrl.Args{
			xrl.Bool("found", true), xrl.Net("network", one), xrl.U32("metric", 1),
			xrl.Text("protocol", "static"), xrl.Text("ifname", ""), xrl.Text("note", "static")}},
		{Seq: 7, Code: xrl.CodeOkay, Args: xrl.Args{xrl.U32("swept", 3)}},
		{Seq: 7, Code: xrl.CodeOkay, Args: xrl.Args{xrl.FP64("nan", math.NaN())}},
	} {
		b, err := xrl.AppendReply(nil, rep)
		if err != nil {
			f.Fatal(err)
		}
		replies = append(replies, b)
	}
	return requests, replies
}

// fixedPoint holds a frame codec to its contract on arbitrary bytes: no
// panic; and what decodes, encodes, and from then on decode and encode
// are inverses (the first encoding may differ from the input, which can
// spell a bool as 2 or carry the host bits of a prefix).
func fixedPoint[T any](t *testing.T, data []byte, parse func([]byte, *T) error, encode func([]byte, *T) ([]byte, error)) {
	var first, second T
	if parse(data, &first) != nil {
		return
	}
	b1, err := encode(nil, &first)
	if err != nil {
		t.Fatalf("decoded frame does not encode: %v\nframe %x", err, data)
	}
	if err := parse(b1, &second); err != nil {
		t.Fatalf("re-encoded frame does not decode: %v\nframe %x\nagain %x", err, data, b1)
	}
	b2, err := encode(nil, &second)
	if err != nil || !bytes.Equal(b1, b2) {
		t.Fatalf("decode/encode is not a fixed point (%v)\nframe %x\nfirst %x\nagain %x", err, data, b1, b2)
	}
}

func FuzzParseRequest(f *testing.F) {
	requests, _ := sampleFrames(f)
	for _, b := range requests {
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		fixedPoint(t, data, xrl.ParseRequest, xrl.AppendRequest)
	})
}

func FuzzParseReply(f *testing.F) {
	_, replies := sampleFrames(f)
	for _, b := range replies {
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		fixedPoint(t, data, xrl.ParseReply, xrl.AppendReply)
	})
}

// FuzzParseReuse holds the decoders' reuse of their destination to its
// contract. A transport parses every frame of a connection into one
// Request or Reply, and the decoder keeps a string the destination
// already holds when the frame repeats it. So frame b parsed into the
// Request (or Reply) that last held frame a — decoded or not — must give
// exactly what b parsed into a fresh one gives, error included.
//
// A list is decoded over the items the atom at its index held, so the
// seeds include a list that grows, shrinks, empties, nests, and outgrows
// the storage a decoder keeps, frame to frame.
func FuzzParseReuse(f *testing.F) {
	requests, replies := sampleFrames(f)
	for _, frames := range [][][]byte{requests, replies} {
		for k := range frames {
			f.Add(frames[k], frames[(k+1)%len(frames)])
		}
	}
	nested, err := xrl.AppendRequest(nil, &xrl.Request{Seq: 9, Target: "rib", Command: "x/1.0/y", Args: xrl.Args{
		xrl.Text("protocol", "ebgp"),
		xrl.List("routes", xrl.List("", xrl.U32("", 1), xrl.Text("", "a")), xrl.List(""), xrl.U32("", 2))}})
	if err != nil {
		f.Fatal(err)
	}
	for _, pair := range [][2][]byte{
		{routesFrame(f, 3), routesFrame(f, 256)},    // grows
		{routesFrame(f, 256), routesFrame(f, 2)},    // shrinks
		{routesFrame(f, 256), routesFrame(f, 0)},    // empties
		{routesFrame(f, 0), routesFrame(f, 5)},      // fills again
		{routesFrame(f, 1100), routesFrame(f, 256)}, // past the storage a decoder keeps
		{nested, routesFrame(f, 4)},                 // lists in the list's place
		{routesFrame(f, 4), nested},
	} {
		f.Add(pair[0], pair[1])
	}
	f.Fuzz(func(t *testing.T, a, b []byte) {
		sameAfterReuse(t, a, b, xrl.ParseRequest, func(r *xrl.Request) xrl.Args { return r.Args })
		sameAfterReuse(t, a, b, xrl.ParseReply, func(r *xrl.Reply) xrl.Args { return r.Args })
	})
}

// routesFrame is an add_routes4 request of n routes, every one with a
// next hop and an interface.
func routesFrame(f *testing.F, n int) []byte {
	es := make([]route.Entry, n)
	for i := range es {
		es[i] = route.Entry{Net: netip.PrefixFrom(netip.AddrFrom4([4]byte{10, byte(i >> 8), byte(i), 0}), 24),
			NextHop: netip.AddrFrom4([4]byte{192, 0, 2, byte(i)}), Metric: uint32(i), IfName: "eth0"}
	}
	b, err := xrl.AppendRequest(nil, &xrl.Request{Seq: 9, Target: "rib", Command: xif.RIBSpec.Command("add_routes4"),
		Args: xrl.Args{xrl.Text("protocol", "ebgp"), xrl.List("routes", xif.EncodeRouteAtoms(es)...)}})
	if err != nil {
		f.Fatal(err)
	}
	return b
}

func sameAfterReuse[T any](t *testing.T, a, b []byte, parse func([]byte, *T) error, args func(*T) xrl.Args) {
	var reused, fresh T
	_ = parse(a, &reused) // a need not decode: what it leaves behind is what b is parsed over
	errReused, errFresh := parse(b, &reused), parse(b, &fresh)
	if (errReused == nil) != (errFresh == nil) || errReused != nil && errReused.Error() != errFresh.Error() {
		t.Fatalf("after frame %x, frame %x parses with error %v; into a fresh %T, %v", a, b, errReused, fresh, errFresh)
	}
	nanBits(args(&reused))
	nanBits(args(&fresh))
	if errFresh == nil && !reflect.DeepEqual(reused, fresh) {
		t.Fatalf("after frame %x, frame %x parses to\n%+v\ninto a fresh %T,\n%+v", a, b, reused, fresh, fresh)
	}
}

// nanBits moves each NaN fp64 value in args into the atom's IntVal as its
// bit pattern: a NaN equals nothing, itself included, under DeepEqual.
func nanBits(args xrl.Args) {
	for i := range args {
		a := &args[i]
		if a.Type == xrl.TypeFP64 && math.IsNaN(a.F64Val) {
			a.F64Val, a.IntVal = 0, int64(math.Float64bits(a.F64Val))
		}
		nanBits(a.ListVal)
	}
}

// FuzzRouteAtom drives the route atom through both of its forms: wire
// holds the value bytes of one route atom (what follows its type and
// name in a frame), text its textual value. Whatever decodes must
// survive DecodeRouteAtom → EncodeRouteAtom and a second trip through
// the same form unchanged; hostile flags, bit counts and lengths must
// come back as errors.
func FuzzRouteAtom(f *testing.F) {
	for _, e := range []string{
		"192.0.2.0/24 192.0.2.1 5 eth0",
		"10.0.0.0/8 - 0 -",
		"2001:db8::/32 fe80::1 4294967295 eth1",
		"0.0.0.0/0 2001:db8::1 1 -",
	} {
		a, err := xrl.ParseAtomValue("", xrl.TypeRoute, e)
		if err != nil {
			f.Fatal(err)
		}
		frame, err := xrl.AppendRequest(nil, &xrl.Request{Args: xrl.Args{a}})
		if err != nil {
			f.Fatal(err)
		}
		f.Add(frame[len(routeFrameHeader):], e)
	}
	f.Fuzz(func(t *testing.T, wire []byte, text string) {
		var req xrl.Request
		frame := append(append([]byte(nil), routeFrameHeader...), wire...)
		if xrl.ParseRequest(frame, &req) == nil {
			roundTripRoute(t, req.Args[0], func(a xrl.Atom) (xrl.Atom, error) {
				b, err := xrl.AppendRequest(nil, &xrl.Request{Args: xrl.Args{a}})
				if err != nil {
					return xrl.Atom{}, err
				}
				var again xrl.Request
				if err := xrl.ParseRequest(b, &again); err != nil {
					return xrl.Atom{}, err
				}
				return again.Args[0], nil
			})
		}
		if a, err := xrl.ParseAtomValue("", xrl.TypeRoute, text); err == nil {
			// Back through the text of a whole XRL, escaping included, as
			// call_xrl would read it.
			roundTripRoute(t, a, func(a xrl.Atom) (xrl.Atom, error) {
				x, err := xrl.Parse(xrl.New("t", "i", "1.0", "m", a).String())
				if err != nil {
					return xrl.Atom{}, err
				}
				return x.Args[0], nil
			})
		}
	})
}

// routeFrameHeader is a request frame up to the value of its one
// argument, a nameless route atom: frame type, sequence number, empty
// target, command and key, an argument count of one, the atom's type and
// its empty name.
var routeFrameHeader = []byte{xrl.FrameRequest, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, byte(xrl.TypeRoute), 0}

// roundTripRoute checks a decoded route atom against the entry it stands
// for and against another trip through the form it came in.
func roundTripRoute(t *testing.T, a xrl.Atom, again func(xrl.Atom) (xrl.Atom, error)) {
	e, err := xif.DecodeRouteAtom(a)
	if err != nil {
		t.Fatalf("decoded route atom %v is not a route: %v", a, err)
	}
	if back := xif.EncodeRouteAtom(e); !back.Equal(a) {
		t.Fatalf("route atom %v became entry %+v became %v", a, e, back)
	}
	b, err := again(a)
	if err != nil || !b.Equal(a) {
		t.Fatalf("route atom %v came back as %v (%v)", a, b, err)
	}
}
