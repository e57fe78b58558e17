package xif_test

import (
	"bytes"
	"fmt"
	"net/netip"
	"reflect"
	"strings"
	"testing"

	"xorp/internal/eventloop"
	"xorp/internal/fea"
	"xorp/internal/kernel"
	"xorp/internal/rib"
	"xorp/internal/route"
	"xorp/internal/xif"
	"xorp/internal/xipc"
	"xorp/internal/xrl"
)

// ---------------------------------------------------------------------
// Wire-compatibility oracle: every typed stub must produce byte-identical
// encodings to the legacy hand-built XRLs it replaced, for the rib/fti
// hot-path methods. The "legacy" builders below are verbatim copies of
// the pre-xif call sites (rtrmgr xrlclients, cmd/xorp_rip, cmd/xorp_ospf).
// ---------------------------------------------------------------------

// capture records every XRL delivered to a local target, reassembled
// from the handler's view (command is fixed per registration; local
// dispatch hands the args over unmodified).
type capture struct {
	cmds []string
	args []xrl.Args
}

// captureTarget registers recording handlers for every command of the
// given specs (raw Target.Register is fine in tests; the lint gate
// exempts _test.go).
func captureTarget(name string, cap *capture, specs ...*xif.Spec) *xipc.Target {
	t := xipc.NewTarget(name, name)
	for _, s := range specs {
		for i := range s.Methods {
			cmd := s.Command(s.Methods[i].Name)
			t.Register(s.Name, s.Version, s.Methods[i].Name, func(args xrl.Args) (xrl.Args, error) {
				cap.cmds = append(cap.cmds, cmd)
				cap.args = append(cap.args, keep(args))
				return nil, nil
			})
		}
	}
	return t
}

// keep copies args as a handler must to keep them: the slice, and the
// items of every list in it (both are the call record's storage).
func keep(args xrl.Args) xrl.Args {
	out := append(xrl.Args(nil), args...)
	for i := range out {
		if out[i].Type == xrl.TypeList {
			out[i].ListVal = keep(out[i].ListVal)
		}
	}
	return out
}

// encodeCall renders (target, cmd, args) the way every byte-transport
// does, giving the oracle a canonical byte string to compare.
func encodeCall(t *testing.T, target, cmd string, args xrl.Args) []byte {
	t.Helper()
	buf, err := xrl.AppendRequest(nil, &xrl.Request{Seq: 1, Target: target, Command: cmd, Args: args})
	if err != nil {
		t.Fatalf("encode %s: %v", cmd, err)
	}
	return buf
}

// textRouteAtom is a route list item as a textual XRL carries it: a txt
// atom holding "net nexthop metric ifname". It was the wire form too
// until the route atom replaced it there; the format is pinned literally
// so drift in the text form call_xrl users type breaks the oracle.
func textRouteAtom(e route.Entry) xrl.Atom {
	nh, ifn := "-", "-"
	if e.NextHop.IsValid() {
		nh = e.NextHop.String()
	}
	if e.IfName != "" {
		ifn = e.IfName
	}
	return xrl.Text("", fmt.Sprintf("%s %s %d %s", e.Net, nh, e.Metric, ifn))
}

func TestWireCompatOracle(t *testing.T) {
	loop := eventloop.New(nil)
	r := xipc.NewRouter("oracle", loop)
	var cap capture
	r.AddTarget(captureTarget("rib", &cap, xif.RIBSpec))
	r.AddTarget(captureTarget("fea", &cap, xif.FTISpec))

	ribStub := xif.NewRIBClient(r, "rib")
	ftiStub := xif.NewFTIClient(r, "fea")

	e1 := route.Entry{
		Net:     netip.MustParsePrefix("10.0.1.0/24"),
		NextHop: netip.MustParseAddr("192.168.1.254"),
		Metric:  5,
	}
	e2 := route.Entry{Net: netip.MustParsePrefix("10.0.2.0/24"), Metric: 1, IfName: "eth0"}
	es := []route.Entry{e1, e2}
	nets := []netip.Prefix{e1.Net, e2.Net}

	type want struct {
		cmd  string
		args xrl.Args
	}
	var wants []want

	// rib/1.0 add_routes4 / delete_routes4 — the hot batch path.
	ribStub.AddRoutes4("ebgp", es, nil)
	wants = append(wants, want{"rib/1.0/add_routes4", xrl.Args{
		xrl.Text("protocol", "ebgp"),
		xrl.List("routes",
			xrl.Route("", e1.Net, e1.NextHop, e1.Metric, ""),
			xrl.Route("", e2.Net, netip.Addr{}, e2.Metric, e2.IfName)),
	}})
	ribStub.DeleteRoutes4("ospf", nets, nil)
	wants = append(wants, want{"rib/1.0/delete_routes4", xrl.Args{
		xrl.Text("protocol", "ospf"),
		xrl.List("networks", xrl.IPv4Net("", nets[0]), xrl.IPv4Net("", nets[1])),
	}})

	// fti/0.2 — legacy: rtrmgr xrlFIBClient, batches as lists.
	ftiStub.AddEntries4(es, nil)
	wants = append(wants, want{"fti/0.2/add_entries4", xrl.Args{
		xrl.List("entries",
			xrl.Route("", e1.Net, e1.NextHop, e1.Metric, ""),
			xrl.Route("", e2.Net, netip.Addr{}, e2.Metric, e2.IfName)),
	}})
	ftiStub.DeleteEntries4(nets, nil)
	wants = append(wants, want{"fti/0.2/delete_entries4", xrl.Args{
		xrl.List("networks", xrl.IPv4Net("", nets[0]), xrl.IPv4Net("", nets[1])),
	}})

	loop.RunPending()

	if len(cap.cmds) != len(wants) {
		t.Fatalf("captured %d calls, want %d", len(cap.cmds), len(wants))
	}
	for i, w := range wants {
		target := "rib"
		if strings.HasPrefix(w.cmd, "fti/") {
			target = "fea"
		}
		got := encodeCall(t, target, cap.cmds[i], cap.args[i])
		legacy := encodeCall(t, target, w.cmd, w.args)
		if !bytes.Equal(got, legacy) {
			t.Errorf("call %d (%s): stub encoding diverges from legacy\n stub:   %x\n legacy: %x",
				i, w.cmd, got, legacy)
		}
	}

	// The route atom's bytes, pinned literally: type 14, empty name, flags
	// (bit 1: a next hop follows), 10.0.1.0/24, 192.168.1.254, metric 5,
	// empty ifname — then the same without a next hop and with "eth0".
	for _, c := range []struct {
		e    route.Entry
		wire string
	}{
		{e1, "0e00" + "02" + "0a000100" + "18" + "c0a801fe" + "00000005" + "00"},
		{e2, "0e00" + "00" + "0a000200" + "18" + "00000001" + "04" + "65746830"},
	} {
		buf, err := xrl.AppendRequest(nil, &xrl.Request{Args: xrl.Args{xif.EncodeRouteAtom(c.e)}})
		if err != nil {
			t.Fatal(err)
		}
		// 1 type + 4 seq + 3 empty str16 + u16 count precede the atom.
		if got := fmt.Sprintf("%x", buf[13:]); got != c.wire {
			t.Errorf("route atom %v on the wire:\n got  %s\n want %s", c.e, got, c.wire)
		}
	}
}

// TestPolicyTagsRideRIB: a run's policy tags travel as the policytags
// argument of add_routes4, one call per stretch of routes
// sharing a tag list with done told once, and the binding sets them on
// every route it hands the server. A tag that is not a u32 is BAD_ARGS.
func TestPolicyTagsRideRIB(t *testing.T) {
	loop := eventloop.New(nil)
	r := xipc.NewRouter("tags", loop)
	var cap capture
	r.AddTarget(captureTarget("cap", &cap, xif.RIBSpec))
	srv := &listServer{}
	target := xif.NewTarget("rib", "rib")
	xif.BindRIB(target, srv)
	r.AddTarget(target)

	mk := func(net string, tags ...uint32) route.Entry {
		return route.Entry{Net: netip.MustParsePrefix(net), Metric: 1, PolicyTags: tags}
	}
	run := []route.Entry{mk("10.0.1.0/24", 42, 7), mk("10.0.2.0/24", 42, 7), mk("10.0.3.0/24"), mk("10.0.4.0/24", 9)}
	xif.NewRIBClient(r, "cap").AddRoutes4("ospf", run, nil)
	dones := 0
	xif.NewRIBClient(r, "rib").AddRoutes4("ospf", run, func(err error) {
		if err != nil {
			t.Error(err)
		}
		dones++
	})
	loop.RunPending()

	wantCmds := []string{"rib/1.0/add_routes4", "rib/1.0/add_routes4", "rib/1.0/add_routes4"}
	wantTags := [][]uint32{{42, 7}, nil, {9}}
	if !reflect.DeepEqual(cap.cmds, wantCmds) {
		t.Fatalf("the run went as %q, want %q", cap.cmds, wantCmds)
	}
	for i, args := range cap.args {
		var got []uint32
		if a, ok := args.Get("policytags"); ok {
			for _, it := range a.ListVal {
				if it.Type != xrl.TypeU32 {
					t.Errorf("call %d: policy tag %v is not a u32", i, it)
				}
				got = append(got, uint32(it.IntVal))
			}
		}
		if !reflect.DeepEqual(got, wantTags[i]) {
			t.Errorf("call %d carries policytags %v, want %v", i, got, wantTags[i])
		}
	}
	if dones != 1 || !reflect.DeepEqual(srv.adds, run) {
		t.Fatalf("done ran %d times; the RIB was handed %+v, want %+v", dones, srv.adds, run)
	}

	bad := xrl.List("policytags", xrl.Text("", "42"))
	for _, x := range []xrl.XRL{
		xrl.New("rib", "rib", "1.0", "add_routes4", xrl.Text("protocol", "ospf"),
			xrl.List("routes", xif.EncodeRouteAtoms(run[:1])...), bad),
		xrl.New("rib", "rib", "1.0", "add_routes4", xrl.Text("protocol", "ospf"),
			xrl.List("routes", xif.EncodeRouteAtoms(run)...), bad),
	} {
		var xerr *xrl.Error
		r.SendFromLoop(x, func(_ xrl.Args, err *xrl.Error) { xerr = err })
		if xerr == nil || xerr.Code != xrl.CodeBadArgs || len(srv.adds) != len(run) {
			t.Errorf("%s of %d with a txt tag: %v, the server holds %d routes; want BAD_ARGS and %d",
				x.Method, len(x.Args[1].ListVal), xerr, len(srv.adds), len(run))
		}
	}
}

// TestListXRLsFromText is the other half of the oracle: the list XRLs as a
// person or a script spells them. Textual lists are flat txt items, so a
// route arrives as "net nexthop metric ifname" and a network as a bare
// prefix; the handlers must take them for the same routes the typed atoms
// carry.
func TestListXRLsFromText(t *testing.T) {
	e1 := route.Entry{
		Net:     netip.MustParsePrefix("10.0.1.0/24"),
		NextHop: netip.MustParseAddr("192.168.1.254"),
		Metric:  5,
	}
	e2 := route.Entry{Net: netip.MustParsePrefix("10.0.2.0/24"), Metric: 1, IfName: "eth0"}
	for _, e := range []route.Entry{e1, e2} {
		item := textRouteAtom(e)
		if want := xif.EncodeRouteAtom(e); item.TextVal != strings.SplitN(want.String(), "=", 2)[1] {
			t.Errorf("text form of %v is %q, the route atom prints %q", e, item.TextVal, want.String())
		}
		got, err := xif.DecodeRouteAtom(item)
		if err != nil || !reflect.DeepEqual(got, e) {
			t.Errorf("DecodeRouteAtom(%q) = %v, %v; want %v", item.TextVal, got, err, e)
		}
	}

	loop := eventloop.New(nil)
	r := xipc.NewRouter("from_text", loop)
	srv := &listServer{}
	target := xif.NewTarget("conf", "conf")
	xif.BindRIB(target, srv)
	xif.BindFTI(target, srv)
	r.AddTarget(target)
	for _, text := range []string{
		"finder://conf/rib/1.0/add_routes4?protocol:txt=static&routes:list=10.0.1.0/24 192.168.1.254 5 -,10.0.2.0/24 - 1 eth0",
		"finder://conf/rib/1.0/delete_routes4?protocol:txt=static&networks:list=10.0.1.0/24,10.0.2.0/24",
		"finder://conf/fti/0.2/add_entries4?entries:list=10.0.1.0/24 192.168.1.254 5 -,10.0.2.0/24 - 1 eth0",
		"finder://conf/fti/0.2/delete_entries4?networks:list=10.0.1.0/24,10.0.2.0/24",
	} {
		x, err := xrl.Parse(text)
		if err != nil {
			t.Fatalf("Parse(%q): %v", text, err)
		}
		spec, _ := xif.Lookup(x.Interface, x.Version)
		if err := spec.Check(x.Method, x.Args); err != nil {
			t.Fatalf("%s fails its spec: %v", text, err)
		}
		var xerr *xrl.Error
		r.SendFromLoop(x, func(_ xrl.Args, err *xrl.Error) { xerr = err })
		if xerr != nil {
			t.Fatalf("%s: %v", text, xerr)
		}
	}
	wantAdds := []route.Entry{e1, e2, e1, e2}
	wantDels := []netip.Prefix{e1.Net, e2.Net, e1.Net, e2.Net}
	if !reflect.DeepEqual(srv.adds, wantAdds) || !reflect.DeepEqual(srv.dels, wantDels) {
		t.Fatalf("servers saw adds %v dels %v, want %v and %v", srv.adds, srv.dels, wantAdds, wantDels)
	}
}

// listServer records what the list methods of rib/1.0 and fti/0.2 hand
// their server.
type listServer struct {
	confServer
	adds []route.Entry
	dels []netip.Prefix
}

func (s *listServer) AddRoutes4(_ route.Protocol, es []route.Entry) error {
	s.adds = append(s.adds, es...)
	return nil
}
func (s *listServer) DeleteRoutes4(_ route.Protocol, nets []netip.Prefix) error {
	s.dels = append(s.dels, nets...)
	return nil
}
func (s *listServer) AddEntries4(es []route.Entry) error {
	s.adds = append(s.adds, es...)
	return nil
}
func (s *listServer) DeleteEntries4(nets []netip.Prefix) error {
	s.dels = append(s.dels, nets...)
	return nil
}

// ---------------------------------------------------------------------
// Spec conformance: every Bind registration round-trips every method
// through encode -> dispatch -> decode. Sample arguments come from the
// spec; replies are validated against the declared return atoms.
// ---------------------------------------------------------------------

// confServer trivially implements every xif server interface with
// plausible success values.
type confServer struct{}

var confEntry = route.Entry{
	Net:     netip.MustParsePrefix("192.0.2.0/24"),
	NextHop: netip.MustParseAddr("192.0.2.1"),
	Metric:  5,
	IfName:  "eth0",
}

func (confServer) AddRoutes4(route.Protocol, []route.Entry) error     { return nil }
func (confServer) DeleteRoutes4(route.Protocol, []netip.Prefix) error { return nil }
func (confServer) RegisterInterest4(string, netip.Addr) (xif.RIBInterest, error) {
	return xif.RIBInterest{Resolves: true, Covering: confEntry.Net, Route: confEntry}, nil
}
func (confServer) DeregisterInterest4(string, netip.Prefix) error { return nil }
func (confServer) LookupRouteByDest4(netip.Addr) (xif.RIBLookup, error) {
	return xif.RIBLookup{Found: true, Entry: confEntry}, nil
}
func (confServer) ResyncComplete4(route.Protocol) (uint32, error) { return 0, nil }

func (confServer) RouteInfoInvalid(netip.Prefix) error { return nil }

func (confServer) AddEntries4([]route.Entry) error     { return nil }
func (confServer) DeleteEntries4([]netip.Prefix) error { return nil }
func (confServer) LookupEntry4(netip.Addr) (xif.FTILookup, error) {
	return xif.FTILookup{Found: true, Entry: confEntry}, nil
}

func (confServer) GetInterfaces() ([]string, error) { return []string{"eth0 192.0.2.1 1500 true"}, nil }

func (confServer) UDPBind(uint16, string) error                 { return nil }
func (confServer) UDPJoinGroup(netip.Addr) error                { return nil }
func (confServer) UDPLeaveGroup(netip.Addr) error               { return nil }
func (confServer) UDPSend(uint16, netip.AddrPort, []byte) error { return nil }
func (confServer) UDPBroadcast(uint16, uint16, []byte) error    { return nil }
func (confServer) Recv(netip.AddrPort, []byte) error            { return nil }

func (confServer) RegisterTarget(string, string, bool, []string) error { return nil }
func (confServer) RegisterMethods(_ string, commands []string) ([]string, error) {
	return make([]string, len(commands)), nil
}
func (confServer) UnregisterTarget(string) error { return nil }
func (confServer) Resolve(string, string, string, []string) (xif.FinderResolution, error) {
	return xif.FinderResolution{Instance: "x", Command: "common/0.1/get_status"}, nil
}
func (confServer) Watch(string, string) error                 { return nil }
func (confServer) Targets() ([]string, error)                 { return []string{"x:x"}, nil }
func (confServer) AddPermission(string, string, string) error { return nil }
func (confServer) SetStrict(bool) error                       { return nil }

func (confServer) ProfileEnable(string) error  { return nil }
func (confServer) ProfileDisable(string) error { return nil }
func (confServer) ProfileClear(string) error   { return nil }
func (confServer) ProfileList() (string, error) {
	return "route_ribin", nil
}
func (confServer) ProfileEntries(string) ([]string, error) { return []string{"x 0 0 add"}, nil }

func (confServer) GetBGPVersion() (uint32, error) { return 4, nil }
func (confServer) LocalConfig() (uint32, netip.Addr, error) {
	return 65000, netip.MustParseAddr("192.0.2.1"), nil
}
func (confServer) AddPeer(xif.BGPPeerConfig) error                        { return nil }
func (confServer) EnablePeer(string) error                                { return nil }
func (confServer) DisablePeer(string) error                               { return nil }
func (confServer) PeerState(string) (string, error)                       { return "Established", nil }
func (confServer) OriginateRoute4(netip.Prefix, netip.Addr, uint32) error { return nil }
func (confServer) WithdrawRoute4(netip.Prefix) error                      { return nil }

func (confServer) RedistAdd(route.Entry)    {}
func (confServer) RedistDelete(route.Entry) {}

func (confServer) Sink(args xrl.Args) (xrl.Args, error) { return nil, nil }

func (confServer) ValidateTx(uint32, uint32, []string) (bool, string, error) {
	return true, "", nil
}
func (confServer) CommitTx(uint32) (uint32, error) { return 1, nil }
func (confServer) AbortTx(uint32) error            { return nil }

func (confServer) StatsScrape() ([]string, error) {
	return []string{"# TYPE up gauge", "up 1"}, nil
}
func (confServer) StatsGet(string) (bool, float64, error) { return true, 1, nil }

// bindAll binds every interface confServer implements onto target.
func bindAll(target *xipc.Target) {
	srv := confServer{}
	xif.BindRIB(target, srv)
	xif.BindRIBNotify(target, srv)
	xif.BindFTI(target, srv)
	xif.BindIfMgr(target, srv)
	xif.BindFEAUDP(target, srv)
	xif.BindFEAUDPRecv(target, srv)
	xif.BindFinder(target, srv)
	xif.BindProfile(target, srv)
	xif.BindBGP(target, srv)
	xif.BindRedist4(target, srv)
	xif.BindBench(target, srv)
	xif.BindConfig(target, srv)
	xif.BindStats(target, srv)
}

func TestSpecConformance(t *testing.T) {
	loop := eventloop.New(nil)
	r := xipc.NewRouter("conformance", loop)
	target := xif.NewTarget("conf", "conf")
	bindAll(target)
	r.AddTarget(target)

	bound := make(map[string]bool)
	for _, cmd := range target.Commands() {
		bound[cmd] = true
	}

	for _, spec := range xif.All() {
		for i := range spec.Methods {
			m := &spec.Methods[i]
			cmd := spec.Command(m.Name)
			if !bound[cmd] {
				// finder_client/1.0 is implemented inside xipc routers,
				// not via a Bind; everything else must be bound here.
				if spec.Name != "finder_client" {
					t.Errorf("spec method %s has no binding under test", cmd)
				}
				continue
			}
			sample, err := m.SampleArgs()
			if err != nil {
				t.Errorf("%s: no sample args: %v", cmd, err)
				continue
			}
			// The sample call must satisfy the spec's own checker.
			if cerr := spec.Check(m.Name, sample); cerr != nil {
				t.Errorf("%s: sample args fail spec check: %v", cmd, cerr)
				continue
			}
			// Encode -> decode through the real wire codec, then dispatch
			// the decoded form, like any byte transport would.
			buf, eerr := xrl.AppendRequest(nil, &xrl.Request{
				Seq: 7, Target: "conf", Command: cmd, Args: sample,
			})
			if eerr != nil {
				t.Errorf("%s: encode: %v", cmd, eerr)
				continue
			}
			req := &xrl.Request{}
			if derr := xrl.ParseRequest(buf, req); derr != nil {
				t.Errorf("%s: decode: %v", cmd, derr)
				continue
			}
			var (
				out   xrl.Args
				xerr  *xrl.Error
				cbRan bool
			)
			r.SendFromLoop(xrl.XRL{
				Protocol: xrl.ProtoFinder, Target: "conf",
				Interface: spec.Name, Version: spec.Version, Method: m.Name,
				Args: req.Args,
			}, func(args xrl.Args, err *xrl.Error) {
				out, xerr, cbRan = args, err, true
			})
			loop.RunPending()
			if !cbRan {
				t.Errorf("%s: dispatch never completed", cmd)
				continue
			}
			if xerr != nil {
				t.Errorf("%s: dispatch failed: %v", cmd, xerr)
				continue
			}
			// Reply must satisfy the declared return atoms.
			for j := range m.Rets {
				ret := &m.Rets[j]
				a, ok := out.Get(ret.Name)
				if !ok {
					if !ret.Optional {
						t.Errorf("%s: reply missing return atom %s:%v", cmd, ret.Name, ret.Type)
					}
					continue
				}
				if a.Type != ret.Type {
					t.Errorf("%s: return atom %s has type %v, want %v", cmd, ret.Name, a.Type, ret.Type)
				}
			}
		}
	}
}

// TestDispatchErrorCodes pins the standardized dispatch outcomes: an
// unknown command is NO_SUCH_METHOD, an argument decode failure in a
// bound handler is BAD_ARGS (never a generic COMMAND_FAILED).
func TestDispatchErrorCodes(t *testing.T) {
	loop := eventloop.New(nil)
	r := xipc.NewRouter("codes", loop)
	target := xif.NewTarget("conf", "conf")
	xif.BindRIB(target, confServer{})
	xif.BindRedist4(target, confServer{})
	xif.BindConfig(target, confServer{})
	xif.BindStats(target, confServer{})
	r.AddTarget(target)

	call := func(iface, version, method string, args ...xrl.Atom) *xrl.Error {
		var got *xrl.Error
		r.SendFromLoop(xrl.XRL{
			Protocol: xrl.ProtoFinder, Target: "conf",
			Interface: iface, Version: version, Method: method, Args: args,
		}, func(_ xrl.Args, err *xrl.Error) { got = err })
		loop.RunPending()
		return got
	}
	routes := xrl.List("routes", xif.EncodeRouteAtom(confEntry))

	if err := call("rib", "1.0", "no_such_method"); err == nil || err.Code != xrl.CodeNoSuchMethod {
		t.Fatalf("unknown method: %v, want NO_SUCH_METHOD", err)
	}
	// Missing required argument.
	if err := call("redist4", "0.1", "add_route4"); err == nil || err.Code != xrl.CodeBadArgs {
		t.Fatalf("missing args: %v, want BAD_ARGS", err)
	}
	// Mistyped argument.
	if err := call("redist4", "0.1", "add_route4",
		xrl.Text("network", "10.0.0.0/8")); err == nil || err.Code != xrl.CodeBadArgs {
		t.Fatalf("mistyped args: %v, want BAD_ARGS", err)
	}
	// The bindings that read their arguments without an error branch
	// are checked all the same: a transaction id that is missing or not
	// a u32 is no transaction 0.
	changes := xrl.List("changes")
	for what, c := range map[string]struct {
		iface, version, method string
		args                   []xrl.Atom
	}{
		"validate_tx with a txt tx_id": {"config", "0.1", "validate_tx",
			[]xrl.Atom{xrl.Text("tx_id", "7"), xrl.U32("generation", 1), changes}},
		"commit_tx without tx_id": {"config", "0.1", "commit_tx", nil},
		"stats get without name":  {"stats", "0.1", "get", nil},
	} {
		if err := call(c.iface, c.version, c.method, c.args...); err == nil || err.Code != xrl.CodeBadArgs {
			t.Errorf("%s: %v, want BAD_ARGS", what, err)
		}
	}
	// Semantically invalid argument (unparseable protocol name).
	if err := call("rib", "1.0", "add_routes4",
		xrl.Text("protocol", "nonsense"), routes); err == nil || err.Code != xrl.CodeBadArgs {
		t.Fatalf("bad protocol: %v, want BAD_ARGS", err)
	}
	// Malformed batch atom.
	if err := call("rib", "1.0", "add_routes4",
		xrl.Text("protocol", "rip"),
		xrl.List("routes", xrl.Text("", "garbage"))); err == nil || err.Code != xrl.CodeBadArgs {
		t.Fatalf("bad batch atom: %v, want BAD_ARGS", err)
	}
	// Well-formed calls succeed.
	if err := call("redist4", "0.1", "add_route4",
		xrl.Net("network", confEntry.Net)); err != nil {
		t.Fatalf("valid call: %v", err)
	}
	if err := call("rib", "1.0", "add_routes4",
		xrl.Text("protocol", "rip"), routes); err != nil {
		t.Fatalf("valid list call: %v", err)
	}
}

// TestRepliesCheckedAgainstRets: a stub checks a reply against the
// atoms its method declares it returns, so a target answering with a
// mistyped or missing one reaches the callback as BAD_ARGS, not as zero
// values and no error.
func TestRepliesCheckedAgainstRets(t *testing.T) {
	loop := eventloop.New(nil)
	r := xipc.NewRouter("replies", loop)
	fake := xipc.NewTarget("fake", "fake")
	fake.Register("config", "0.1", "commit_tx", func(xrl.Args) (xrl.Args, error) {
		return xrl.Args{xrl.Text("applied", "3")}, nil
	})
	fake.Register("rib", "1.0", "register_interest4", func(xrl.Args) (xrl.Args, error) {
		return xrl.Args{xrl.Bool("resolves", true), xrl.U32("metric", 1)}, nil
	})
	r.AddTarget(fake)

	var commit, interest *xrl.Error
	xif.NewConfigClient(r, "fake").CommitTx(7, func(_ uint32, err *xrl.Error) { commit = err })
	xif.NewRIBClient(r, "fake").RegisterInterest4("bgp", confEntry.NextHop, func(_ xif.RIBInterest, err *xrl.Error) {
		interest = err
	})
	loop.RunPending()
	for what, err := range map[string]*xrl.Error{
		"commit_tx reply with applied as txt":       commit,
		"register_interest4 reply without covering": interest,
	} {
		if err == nil || err.Code != xrl.CodeBadArgs {
			t.Errorf("%s: %v, want BAD_ARGS", what, err)
		}
	}
}

// ---------------------------------------------------------------------
// Registry and checker unit tests.
// ---------------------------------------------------------------------

func TestRegistryLookup(t *testing.T) {
	for _, want := range []string{"rib/1.0", "fti/0.2", "fea_udp/0.1", "fea_udp_client/0.1",
		"ifmgr/0.1", "finder/1.0", "finder_client/1.0", "rib_client/0.1",
		"profile/0.1", "bgp/1.0", "redist4/0.1", "bench/1.0", "common/0.1",
		"config/0.1", "stats/0.1"} {
		name, ver, _ := strings.Cut(want, "/")
		if _, ok := xif.Lookup(name, ver); !ok {
			t.Errorf("registry is missing %s", want)
		}
	}
	// No process serves the forwarding pool's counters, so no spec does;
	// and a protocol's one way in for a redistributed route is redist4/0.1.
	for _, gone := range []string{"fwd/0.1", "rip/0.1", "ospf/0.1"} {
		name, ver, _ := strings.Cut(gone, "/")
		if _, ok := xif.Lookup(name, ver); ok {
			t.Errorf("registry still lists %s", gone)
		}
	}
	// A run of one is a list of one: rib/1.0 and fti/0.2 carry routes
	// only as lists.
	for spec, methods := range map[*xif.Spec][]string{
		xif.RIBSpec: {"add_route4", "replace_route4", "delete_route4"},
		xif.FTISpec: {"add_entry4", "delete_entry4"},
	} {
		for _, m := range methods {
			if _, ok := spec.Method(m); ok {
				t.Errorf("%s still declares %s", spec.Command(m), m)
			}
		}
	}
	all := xif.All()
	for i := 1; i < len(all); i++ {
		if all[i-1].Name > all[i].Name {
			t.Fatalf("All() not sorted: %s before %s", all[i-1].Name, all[i].Name)
		}
	}
}

func TestCheckArgsRejectsMistakes(t *testing.T) {
	m, _ := xif.Redist4Spec.Method("add_route4")

	// Missing required argument.
	err := m.CheckArgs(xrl.Args{xrl.U32("metric", 1)})
	if err == nil || !strings.Contains(err.Error(), "network") {
		t.Fatalf("missing-arg check: %v", err)
	}
	// Wrong type.
	err = m.CheckArgs(xrl.Args{
		xrl.Text("network", "10.0.0.0/8"),
	})
	if err == nil || !strings.Contains(err.Error(), "type") {
		t.Fatalf("type check: %v", err)
	}
	// Undeclared argument (the call_xrl typo case).
	err = m.CheckArgs(xrl.Args{
		xrl.Net("network", netip.MustParsePrefix("10.0.0.0/8")),
		xrl.U32("metrc", 1),
	})
	if err == nil || !strings.Contains(err.Error(), "metrc") {
		t.Fatalf("unknown-arg check: %v", err)
	}
	// Valid call (optional args absent).
	err = m.CheckArgs(xrl.Args{
		xrl.Net("network", netip.MustParsePrefix("10.0.0.0/8")),
	})
	if err != nil {
		t.Fatalf("valid call rejected: %v", err)
	}

	if _, ok := xif.RIBSpec.Method("no_such"); ok {
		t.Fatal("phantom method")
	}
}

func TestNewXRLPanicsOnSpecViolation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewXRL accepted an undeclared method")
		}
	}()
	xif.RIBSpec.NewXRL("rib", "no_such_method")
}

func TestCompareVersions(t *testing.T) {
	cases := []struct {
		a, b string
		want int // sign
	}{
		{"1.0", "1.0", 0},
		{"1.0", "1.1", -1},
		{"2.0", "1.9", 1},
		{"0.2", "0.10", -1},
		{"1.0", "1.0.1", -1},
	}
	for _, c := range cases {
		got := xif.CompareVersions(c.a, c.b)
		if (got < 0) != (c.want < 0) || (got > 0) != (c.want > 0) {
			t.Errorf("CompareVersions(%q, %q) = %d, want sign %d", c.a, c.b, got, c.want)
		}
	}
}

func TestTargetInterfaces(t *testing.T) {
	target := xif.NewTarget("x", "x")
	xif.BindRedist4(target, confServer{})
	got := xif.TargetInterfaces(target)
	want := []string{"common/0.1", "redist4/0.1"}
	if len(got) != len(want) || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("TargetInterfaces = %v, want %v", got, want)
	}
}

// redistRec records what a redist4/0.1 binding hands its server.
type redistRec struct{ adds, dels []route.Entry }

func (r *redistRec) RedistAdd(e route.Entry)    { r.adds = append(r.adds, e) }
func (r *redistRec) RedistDelete(e route.Entry) { r.dels = append(r.dels, e) }

// The redist4/0.1 stub is a rib.Redistributor whose routes reach the
// protocol's rib.Redistributor, the optional next hop and metric intact
// and their absence read as the zero value, in the order the RIB sent
// them.
func TestRedist4RoundTrip(t *testing.T) {
	var _ rib.Redistributor = (*xif.Redist4Client)(nil)
	loop := eventloop.New(nil)
	r := xipc.NewRouter("redist", loop)
	srv := &redistRec{}
	target := xif.NewTarget("proto", "proto")
	xif.BindRedist4(target, srv)
	r.AddTarget(target)
	stub := xif.NewRedist4Client(r, "proto")

	full := route.Entry{Net: confEntry.Net, NextHop: confEntry.NextHop, Metric: 7}
	bare := route.Entry{Net: netip.MustParsePrefix("10.1.0.0/16")}
	stub.RedistAdd(full)
	stub.RedistAdd(bare)
	stub.RedistDelete(route.Entry{Net: full.Net, Metric: 9})
	loop.RunPending()
	if !reflect.DeepEqual(srv.adds, []route.Entry{full, bare}) {
		t.Fatalf("adds %+v, want %+v then %+v", srv.adds, full, bare)
	}
	if !reflect.DeepEqual(srv.dels, []route.Entry{{Net: full.Net}}) {
		t.Fatalf("deletes %+v, want the network alone", srv.dels)
	}
}

func TestRouteAtomRoundTrip(t *testing.T) {
	for _, e := range []route.Entry{
		confEntry,
		{Net: netip.MustParsePrefix("10.0.0.0/8")},
		{Net: netip.MustParsePrefix("10.1.0.0/16"), IfName: "eth1"},
	} {
		back, err := xif.DecodeRouteAtom(xif.EncodeRouteAtom(e))
		if err != nil {
			t.Fatalf("decode(%v): %v", e, err)
		}
		// The atom carries net/nexthop/metric/ifname; compare those.
		if back.Net != e.Net || back.NextHop != e.NextHop ||
			back.Metric != e.Metric || back.IfName != e.IfName {
			t.Fatalf("round trip %v -> %v", e, back)
		}
	}
	if _, err := xif.DecodeRouteAtom(xrl.Text("", "not a route")); err == nil {
		t.Fatal("malformed atom accepted")
	}
}

// optServer counts the calls that reach the server methods whose XRLs
// take optional arguments.
type optServer struct {
	confServer
	calls int
	last  route.Entry
}

func (s *optServer) AddRoutes4(_ route.Protocol, es []route.Entry) error {
	s.calls, s.last = s.calls+1, es[0]
	return nil
}
func (s *optServer) RedistAdd(e route.Entry) { s.calls, s.last = s.calls+1, e }

// TestOptionalArguments: an optional argument left out is free, and one
// sent with the wrong type is BAD_ARGS before the server sees the call —
// not a route quietly installed without its next hop.
func TestOptionalArguments(t *testing.T) {
	loop := eventloop.New(nil)
	r := xipc.NewRouter("optional", loop)
	srv := &optServer{}
	target := xif.NewTarget("conf", "conf")
	xif.BindRIB(target, srv)
	xif.BindRedist4(target, srv)
	r.AddTarget(target)

	var got *xrl.Error
	cb := func(_ xrl.Args, err *xrl.Error) { got = err }
	call := func(iface, version, method string, args ...xrl.Atom) *xrl.Error {
		got = nil
		r.SendFromLoop(xrl.XRL{Protocol: xrl.ProtoFinder, Target: "conf",
			Interface: iface, Version: version, Method: method, Args: args}, cb)
		return got
	}
	net := xrl.Net("network", confEntry.Net)
	routes := xrl.List("routes", xif.EncodeRouteAtom(confEntry))

	for _, c := range []struct {
		what                   string
		iface, version, method string
		args                   []xrl.Atom
	}{
		{"redist4 add_route4 nexthop as txt", "redist4", "0.1", "add_route4",
			[]xrl.Atom{net, xrl.Text("nexthop", "192.0.2.1")}},
		{"redist4 add_route4 metric as txt", "redist4", "0.1", "add_route4",
			[]xrl.Atom{net, xrl.Text("metric", "10")}},
		{"redist4 add_route4 nexthop as ipv4net", "redist4", "0.1", "add_route4",
			[]xrl.Atom{net, xrl.Net("nexthop", confEntry.Net)}},
		{"add_routes4 policytags as u32", "rib", "1.0", "add_routes4",
			[]xrl.Atom{xrl.Text("protocol", "static"), routes, xrl.U32("policytags", 7)}},
	} {
		err := call(c.iface, c.version, c.method, c.args...)
		if err == nil || err.Code != xrl.CodeBadArgs {
			t.Errorf("%s: %v, want BAD_ARGS", c.what, err)
		}
		if srv.calls != 0 {
			t.Fatalf("%s: the server method ran", c.what)
		}
	}

	// Present and well typed, an optional still arrives.
	if err := call("redist4", "0.1", "add_route4", net,
		xrl.Addr("nexthop", confEntry.NextHop), xrl.U32("metric", 7)); err != nil {
		t.Fatal(err)
	}
	if srv.last.NextHop != confEntry.NextHop || srv.last.Metric != 7 {
		t.Fatalf("optionals lost: %+v", srv.last)
	}

	// Absent optionals cost nothing: the whole local call is free.
	redist := xrl.XRL{Protocol: xrl.ProtoFinder, Target: "conf",
		Interface: "redist4", Version: "0.1", Method: "add_route4", Args: xrl.Args{net}}
	add := xrl.XRL{Protocol: xrl.ProtoFinder, Target: "conf",
		Interface: "rib", Version: "1.0", Method: "add_routes4", Args: xrl.Args{xrl.Text("protocol", "static"), routes}}
	if allocs := testing.AllocsPerRun(200, func() {
		r.SendFromLoop(redist, cb)
		r.SendFromLoop(add, cb)
	}); allocs != 0 || got != nil {
		t.Fatalf("calls without their optional arguments: %.1f allocations (err %v), want 0", allocs, got)
	}
}

// TestRouteAtomAllocs: a list of routes crosses the wire — encode, then
// decode into entries — without a per-route allocation. What is left is
// per list, and is the test's own: the Args it builds for the request.
func TestRouteAtomAllocs(t *testing.T) {
	const n = 256
	es := make([]route.Entry, n)
	for i := range es {
		es[i] = route.Entry{
			Net:     netip.PrefixFrom(netip.AddrFrom4([4]byte{10, byte(i), 0, 0}), 16),
			NextHop: netip.AddrFrom4([4]byte{192, 0, 2, byte(i)}),
			Metric:  uint32(i),
			IfName:  "eth0",
		}
	}
	var (
		buf   []byte
		req   xrl.Request
		items = make([]xrl.Atom, n)
		back  = make([]route.Entry, n)
	)
	round := func() {
		for i := range es {
			items[i] = xif.EncodeRouteAtom(es[i])
		}
		var err error
		buf, err = xrl.AppendRequest(buf[:0], &xrl.Request{Command: "rib/1.0/add_routes4",
			Args: xrl.Args{xrl.List("routes", items...)}})
		if err != nil {
			t.Fatal(err)
		}
		if err := xrl.ParseRequest(buf, &req); err != nil {
			t.Fatal(err)
		}
		for i, it := range req.Args[0].ListVal {
			if back[i], err = xif.DecodeRouteAtom(it); err != nil {
				t.Fatal(err)
			}
		}
	}
	round()
	if !reflect.DeepEqual(back, es) {
		t.Fatalf("round trip changed the routes: %v", back[:2])
	}
	// One per list: the Args of the request built above. The decoded
	// list's items reuse what the last request's list held.
	if allocs := testing.AllocsPerRun(50, round); allocs > 1 {
		t.Fatalf("%d routes through the wire: %.1f allocations, want <= 1 per list", n, allocs)
	}
}

// TestTextRunsOfOneReachRIBAndFEA drives runs of one, spelled as text as
// call_xrl or a script sends them, into a real RIB and FEA: each is a
// list of one through the list server method, in a slice the binding
// reuses.
func TestTextRunsOfOneReachRIBAndFEA(t *testing.T) {
	loop := eventloop.New(nil)
	r := xipc.NewRouter("single", loop)
	feaProc := fea.New(loop, kernel.NewFIB(), nil, nil)
	ribProc := rib.NewProcess(loop, nil, nil)
	ribTarget, feaTarget := xif.NewTarget("rib", "rib"), xif.NewTarget("fea", "fea")
	ribProc.RegisterXRLs(ribTarget)
	feaProc.RegisterXRLs(feaTarget)
	r.AddTarget(ribTarget)
	r.AddTarget(feaTarget)
	call := func(text string) *xrl.Error {
		t.Helper()
		x, err := xrl.Parse("finder://" + text)
		if err != nil {
			t.Fatal(err)
		}
		var got *xrl.Error
		r.SendFromLoop(x, func(_ xrl.Args, err *xrl.Error) { got = err })
		return got
	}

	// Back to back, both land: neither server kept the binding's slice.
	a := route.Entry{Net: netip.MustParsePrefix("10.0.1.0/24"), NextHop: netip.MustParseAddr("192.168.1.254"), Metric: 5, IfName: "eth0"}
	b := route.Entry{Net: netip.MustParsePrefix("10.0.2.0/24"), Metric: 1, IfName: "eth1"}
	for _, text := range []string{
		"rib/rib/1.0/add_routes4?protocol:txt=static&routes:list=10.0.1.0/24 192.168.1.254 5 eth0",
		"rib/rib/1.0/add_routes4?protocol:txt=static&routes:list=10.0.2.0/24 - 1 eth1",
		"fea/fti/0.2/add_entries4?entries:list=10.0.1.0/24 192.168.1.254 5 eth0",
		"fea/fti/0.2/add_entries4?entries:list=10.0.2.0/24 - 1 eth1",
	} {
		if err := call(text); err != nil {
			t.Fatalf("%s: %v", text, err)
		}
	}
	for _, e := range []route.Entry{a, b} {
		inRIB, _ := ribProc.LookupBest(e.Net.Addr())
		inFEA, _ := feaProc.Snapshots().Current().Get(e.Net)
		if inRIB.Net != e.Net || inRIB.NextHop != e.NextHop || inRIB.Metric != e.Metric || inRIB.IfName != e.IfName || !inFEA.Equal(e) {
			t.Errorf("sent %+v: the RIB holds %+v, the FEA %+v", e, inRIB, inFEA)
		}
	}

	// A withdrawal of a prefix never announced is skipped.
	if err := call("rib/rib/1.0/delete_routes4?protocol:txt=static&networks:list=10.9.0.0/16"); err != nil || ribProc.Len() != 2 {
		t.Errorf("delete_routes4 of an unannounced prefix: %v, %d routes left, want 2", err, ribProc.Len())
	}
	if err := call("rib/rib/1.0/delete_routes4?protocol:txt=static&networks:list=10.0.1.0/24"); err != nil || ribProc.Len() != 1 {
		t.Errorf("delete_routes4 of an announced prefix: %v, %d routes left, want 1", err, ribProc.Len())
	}
	if err := call("fea/fti/0.2/delete_entries4?networks:list=10.0.1.0/24"); err != nil || feaProc.FIB().Len() != 1 {
		t.Errorf("delete_entries4: %v, %d entries left, want 1", err, feaProc.FIB().Len())
	}

	// A mistyped route rejects the call before the server sees it.
	if err := call("rib/rib/1.0/add_routes4?protocol:txt=static&routes:list=10.0.3.0/24 - five eth0"); err == nil || err.Code != xrl.CodeBadArgs || ribProc.Len() != 1 {
		t.Errorf("add_routes4 with metric \"five\": %v, %d routes, want BAD_ARGS and 1", err, ribProc.Len())
	}
}
