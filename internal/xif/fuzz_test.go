package xif_test

import (
	"bytes"
	"math"
	"net/netip"
	"reflect"
	"testing"

	"xorp/internal/eventloop"
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
	// Four frames of each kind that no sample call makes (a sample call
	// sends every optional argument). Requests: the shortest, one whose
	// atoms nest, a redistributed route with its optionals left out, and
	// integers at their extremes beside an IPv6 net. Replies: a bare
	// failure, an empty okay, a BAD_ARGS failure, and an okay whose
	// results nest.
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
func FuzzParseReuse(f *testing.F) {
	requests, replies := sampleFrames(f)
	for _, frames := range [][][]byte{requests, replies} {
		for k := range frames {
			f.Add(frames[k], frames[(k+1)%len(frames)])
		}
	}
	f.Fuzz(func(t *testing.T, a, b []byte) {
		sameAfterReuse(t, a, b, xrl.ParseRequest)
		sameAfterReuse(t, a, b, xrl.ParseReply)
	})
}

func sameAfterReuse[T any](t *testing.T, a, b []byte, parse func([]byte, *T) error) {
	var reused, fresh T
	_ = parse(a, &reused) // a need not decode: what it leaves behind is what b is parsed over
	errReused, errFresh := parse(b, &reused), parse(b, &fresh)
	if (errReused == nil) != (errFresh == nil) || errReused != nil && errReused.Error() != errFresh.Error() {
		t.Fatalf("after frame %x, frame %x parses with error %v; into a fresh %T, %v", a, b, errReused, fresh, errFresh)
	}
	if errFresh == nil && !reflect.DeepEqual(reused, fresh) {
		t.Fatalf("after frame %x, frame %x parses to\n%+v\ninto a fresh %T,\n%+v", a, b, reused, fresh, fresh)
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
