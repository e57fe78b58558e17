package xif

import (
	"net/netip"
	"slices"

	"xorp/internal/route"
	"xorp/internal/xipc"
	"xorp/internal/xrl"
)

// RIBSpec declares the rib/1.0 route-injection interface (paper §5.2):
// protocols feed routes here, and interested parties register for
// resolvability notifications (§5.2.1).
var RIBSpec = Define(Spec{
	Name:    "rib",
	Version: "1.0",
	Methods: []Method{
		{Name: "add_routes4", Args: []Arg{
			{Name: "protocol", Type: xrl.TypeText, Sample: "static"},
			{Name: "routes", Type: xrl.TypeList, Sample: "192.0.2.0/24 192.0.2.1 5 eth0"},
			policyTagsArg,
		}, Idempotent: true},
		{Name: "delete_routes4", Args: []Arg{
			{Name: "protocol", Type: xrl.TypeText, Sample: "static"},
			{Name: "networks", Type: xrl.TypeList, Sample: "192.0.2.0/24"},
		}, Idempotent: true},
		{Name: "resync_complete", Args: []Arg{
			{Name: "protocol", Type: xrl.TypeText, Sample: "static"},
		}, Rets: []Arg{
			{Name: "swept", Type: xrl.TypeU32},
		}, Idempotent: true},
		{Name: "register_interest4", Args: []Arg{
			{Name: "target", Type: xrl.TypeText},
			{Name: "addr", Type: xrl.TypeIPv4},
		}, Rets: []Arg{
			{Name: "resolves", Type: xrl.TypeBool},
			{Name: "covering", Type: xrl.TypeIPv4Net},
			{Name: "metric", Type: xrl.TypeU32, Optional: true},
			{Name: "ifname", Type: xrl.TypeText, Optional: true},
			{Name: "nexthop", Type: xrl.TypeIPv4, Optional: true},
		}},
		{Name: "deregister_interest4", Args: []Arg{
			{Name: "target", Type: xrl.TypeText},
			{Name: "covering", Type: xrl.TypeIPv4Net},
		}},
		{Name: "lookup_route_by_dest4", Args: []Arg{
			{Name: "addr", Type: xrl.TypeIPv4},
		}, Rets: []Arg{
			{Name: "found", Type: xrl.TypeBool},
			{Name: "network", Type: xrl.TypeIPv4Net, Optional: true},
			{Name: "metric", Type: xrl.TypeU32, Optional: true},
			{Name: "protocol", Type: xrl.TypeText, Optional: true},
			{Name: "ifname", Type: xrl.TypeText, Optional: true},
			{Name: "nexthop", Type: xrl.TypeIPv4, Optional: true},
		}, Idempotent: true},
	},
})

// policyTagsArg is XORP's policytags: the u32 tag list the policy
// framework set on the call's routes (§8.3), every one of them.
var policyTagsArg = Arg{Name: "policytags", Type: xrl.TypeList, Optional: true}

// RIBInterest is the reply to register_interest4.
type RIBInterest struct {
	Resolves bool
	Covering netip.Prefix
	Route    route.Entry // meaningful when Resolves
}

// RIBLookup is the reply to lookup_route_by_dest4.
type RIBLookup struct {
	Found bool
	Entry route.Entry
}

// RIBServer is the typed implementation contract for rib/1.0. The
// compiler enforces completeness; BindRIB enforces spec coverage at
// registration.
type RIBServer interface {
	// A run is valid for the call only: it is a slice the binding
	// reuses. DeleteRoutes4 skips prefixes proto never announced.
	AddRoutes4(proto route.Protocol, es []route.Entry) error
	DeleteRoutes4(proto route.Protocol, nets []netip.Prefix) error
	RegisterInterest4(client string, addr netip.Addr) (RIBInterest, error)
	DeregisterInterest4(client string, covering netip.Prefix) error
	LookupRouteByDest4(addr netip.Addr) (RIBLookup, error)
	// ResyncComplete4 is the graceful-restart end-of-resync signal: a
	// respawned protocol has re-announced everything it still knows, so
	// routes of proto still marked stale are swept. Returns the number of
	// routes swept.
	ResyncComplete4(proto route.Protocol) (uint32, error)
}

// parseProto reads the protocol argument, which must name a protocol.
func parseProto(in reader) (route.Protocol, error) {
	proto, err := route.ParseProtocol(in.text("protocol"))
	if err != nil {
		return route.ProtoUnknown, xrl.Errorf(xrl.CodeBadArgs, "%v", err)
	}
	return proto, nil
}

// parseTags decodes the policytags items, nil when the call carries none.
// The RIB keeps the list with the routes, so it is never the call's
// storage: it is last — the list the previous call carried — when the
// tags are the same, and else a list of its own. Nobody writes a tag list
// once it is set on a route.
func parseTags(items []xrl.Atom, last []uint32) ([]uint32, error) {
	if len(items) == 0 {
		return nil, nil
	}
	same := len(items) == len(last)
	for i := range items {
		it := &items[i]
		if it.Type != xrl.TypeU32 {
			return nil, xrl.Errorf(xrl.CodeBadArgs, "xif: policy tag %v is not a u32", *it)
		}
		same = same && last[i] == uint32(it.IntVal)
	}
	if same {
		return last, nil
	}
	tags := make([]uint32, len(items))
	for i := range items {
		tags[i] = uint32(items[i].IntVal)
	}
	return tags, nil
}

// BindRIB wires a RIBServer onto t as rib/1.0. The route handlers
// (add_routes4/delete_routes4) decode a call's list into scratch the
// binding reuses and hand it straight to the server — no reflection, no
// per-route boxing, and in steady state no allocation: like a handler's
// xrl.Args, a run dies with the call.
func BindRIB(t *xipc.Target, s RIBServer) {
	b := newBinding(t, RIBSpec)
	var routes scratch[route.Entry]
	var nets scratch[netip.Prefix]
	var tags []uint32 // the last call's policytags
	b.handle("add_routes4", func(in reader) (xrl.Args, error) {
		proto, err := parseProto(in)
		if err != nil {
			return nil, err
		}
		if tags, err = parseTags(in.list("policytags"), tags); err != nil {
			return nil, err
		}
		items := in.list("routes")
		defer routes.give()
		es, err := decodeRouteList(routes.take(len(items)), items)
		if err != nil {
			return nil, err
		}
		for i := range es {
			es[i].PolicyTags = tags
		}
		return nil, s.AddRoutes4(proto, es)
	})
	b.handle("delete_routes4", func(in reader) (xrl.Args, error) {
		proto, err := parseProto(in)
		if err != nil {
			return nil, err
		}
		items := in.list("networks")
		defer nets.give()
		batch, err := decodeNetList(nets.take(len(items)), items)
		if err != nil {
			return nil, err
		}
		return nil, s.DeleteRoutes4(proto, batch)
	})
	b.handle("register_interest4", func(in reader) (xrl.Args, error) {
		ans, err := s.RegisterInterest4(in.text("target"), in.addr("addr"))
		if err != nil {
			return nil, err
		}
		out := xrl.Args{
			xrl.Bool("resolves", ans.Resolves),
			xrl.Net("covering", ans.Covering),
		}
		if ans.Resolves {
			out = append(out,
				xrl.U32("metric", ans.Route.Metric),
				xrl.Text("ifname", ans.Route.IfName))
			if ans.Route.NextHop.IsValid() {
				out = append(out, xrl.Addr("nexthop", ans.Route.NextHop))
			}
		}
		return out, nil
	})
	b.handle("deregister_interest4", func(in reader) (xrl.Args, error) {
		return nil, s.DeregisterInterest4(in.text("target"), in.net("covering"))
	})
	b.handle("resync_complete", func(in reader) (xrl.Args, error) {
		proto, err := parseProto(in)
		if err != nil {
			return nil, err
		}
		swept, err := s.ResyncComplete4(proto)
		if err != nil {
			return nil, err
		}
		return xrl.Args{xrl.U32("swept", swept)}, nil
	})
	b.handle("lookup_route_by_dest4", func(in reader) (xrl.Args, error) {
		ans, err := s.LookupRouteByDest4(in.addr("addr"))
		if err != nil {
			return nil, err
		}
		if !ans.Found {
			return xrl.Args{xrl.Bool("found", false)}, nil
		}
		e := ans.Entry
		out := xrl.Args{
			xrl.Bool("found", true),
			xrl.Net("network", e.Net),
			xrl.U32("metric", e.Metric),
			xrl.Text("protocol", e.Protocol.String()),
			xrl.Text("ifname", e.IfName),
		}
		if e.NextHop.IsValid() {
			out = append(out, xrl.Addr("nexthop", e.NextHop))
		}
		return out, nil
	})
	b.done()
}

// RIBClient is the typed stub for rib/1.0: what XORP would generate from
// rib.xif. Route arguments are runs of Go values, valid for the call: the
// stub encodes them into the call record before it returns, as the list
// XRL whatever the run's length.
type RIBClient struct{ client }

// NewRIBClient returns a stub sending rib/1.0 XRLs to target through r.
func NewRIBClient(r *xipc.Router, target string) *RIBClient {
	return &RIBClient{client{r, target, RIBSpec}}
}

// putTags adds a policytags argument to o when there are tags.
func putTags(o xipc.Outgoing, tags []uint32) {
	if len(tags) == 0 {
		return
	}
	items := o.List("policytags", len(tags))
	for i, tag := range tags {
		items[i] = xrl.U32("", tag)
	}
}

// AddRoutes4 feeds a run of routes into the RIB's origin table for
// proto, which takes it as one run. Policy tags ride as the call's
// policytags, so a run whose routes carry different tag lists goes as one
// call per stretch sharing one, and done hears the first error once every
// call has answered.
func (c *RIBClient) AddRoutes4(proto string, es []route.Entry, done func(error)) {
	if tagStretch(es) == len(es) {
		c.addRun(proto, es, Done(done))
		return
	}
	calls := 0
	for rest := es; len(rest) > 0; calls++ {
		rest = rest[tagStretch(rest):]
	}
	cb := Done(joinDone(calls, done))
	for len(es) > 0 {
		n := tagStretch(es)
		c.addRun(proto, es[:n], cb)
		es = es[n:]
	}
}

// tagStretch is the length of es's leading stretch of routes that carry
// es[0]'s tag list.
func tagStretch(es []route.Entry) int {
	n := min(len(es), 1)
	for n < len(es) && slices.Equal(es[n].PolicyTags, es[0].PolicyTags) {
		n++
	}
	return n
}

// joinDone returns one callback for n calls: done hears the first error
// once all n have answered.
func joinDone(n int, done func(error)) func(error) {
	if done == nil {
		return nil
	}
	var first error
	return func(err error) {
		if first == nil {
			first = err
		}
		if n--; n == 0 {
			done(first)
		}
	}
}

// addRun sends one run whose routes share a tag list, its atoms built in
// the call record.
func (c *RIBClient) addRun(proto string, es []route.Entry, cb xipc.Callback) {
	var tags []uint32
	if len(es) > 0 {
		tags = es[0].PolicyTags
	}
	o := c.compose("add_routes4", cb, len(es)+len(tags))
	o.Arg(xrl.Text("protocol", proto))
	putRoutes(o.List("routes", len(es)), es)
	putTags(o, tags)
	c.ship("add_routes4", o)
}

// DeleteRoutes4 withdraws a run of proto's prefixes; the RIB skips those
// proto never announced.
func (c *RIBClient) DeleteRoutes4(proto string, nets []netip.Prefix, done func(error)) {
	o := c.compose("delete_routes4", Done(done), len(nets))
	o.Arg(xrl.Text("protocol", proto))
	putNets(o.List("networks", len(nets)), nets)
	c.ship("delete_routes4", o)
}

// ResyncComplete4 signals end-of-resync for proto after a graceful
// restart; cb receives the number of stale routes the RIB swept.
func (c *RIBClient) ResyncComplete4(proto string, cb func(swept uint32, err *xrl.Error)) {
	c.call("resync_complete", func(args xrl.Args, err *xrl.Error) {
		if cb == nil {
			return
		}
		ret, err := RIBSpec.reply("resync_complete", args, err)
		cb(ret.u32("swept"), err)
	}, xrl.Text("protocol", proto))
}

// RegisterInterest4 registers client for resolvability of addr (§5.2.1).
func (c *RIBClient) RegisterInterest4(client string, addr netip.Addr, cb func(RIBInterest, *xrl.Error)) {
	c.call("register_interest4", func(args xrl.Args, err *xrl.Error) {
		ret, err := RIBSpec.reply("register_interest4", args, err)
		ans := RIBInterest{Resolves: ret.boolean("resolves"), Covering: ret.net("covering")}
		if ans.Resolves {
			ans.Route = route.Entry{Net: ans.Covering, Metric: ret.u32("metric"),
				IfName: ret.text("ifname"), NextHop: ret.addr("nexthop")}
		}
		cb(ans, err)
	}, xrl.Text("target", client), xrl.Addr("addr", addr))
}

// DeregisterInterest4 drops a registration made with RegisterInterest4.
func (c *RIBClient) DeregisterInterest4(client string, covering netip.Prefix, done func(error)) {
	c.call("deregister_interest4", Done(done),
		xrl.Text("target", client),
		xrl.Net("covering", covering))
}

// LookupRouteByDest4 asks for the RIB's final longest-prefix match.
func (c *RIBClient) LookupRouteByDest4(addr netip.Addr, cb func(RIBLookup, *xrl.Error)) {
	c.call("lookup_route_by_dest4", func(args xrl.Args, err *xrl.Error) {
		ret, err := RIBSpec.reply("lookup_route_by_dest4", args, err)
		ans := RIBLookup{Found: ret.boolean("found")}
		if ans.Found {
			ans.Entry = route.Entry{Net: ret.net("network"), Metric: ret.u32("metric"),
				IfName: ret.text("ifname"), NextHop: ret.addr("nexthop")}
			if p, perr := route.ParseProtocol(ret.text("protocol")); perr == nil {
				ans.Entry.Protocol = p
			}
		}
		cb(ans, err)
	}, xrl.Addr("addr", addr))
}

// RIBNotifySpec declares rib_client/0.1: the RIB's push channel back to
// protocols whose nexthop answers may have changed (§5.2.1).
var RIBNotifySpec = Define(Spec{
	Name:    "rib_client",
	Version: "0.1",
	Methods: []Method{
		{Name: "route_info_invalid", Args: []Arg{
			{Name: "network", Type: xrl.TypeIPv4Net},
		}},
	},
})

// RIBNotifyServer is the typed contract for rib_client/0.1.
type RIBNotifyServer interface {
	RouteInfoInvalid(net netip.Prefix) error
}

// BindRIBNotify wires a RIBNotifyServer onto t as rib_client/0.1.
func BindRIBNotify(t *xipc.Target, s RIBNotifyServer) {
	b := newBinding(t, RIBNotifySpec)
	b.handle("route_info_invalid", func(in reader) (xrl.Args, error) {
		return nil, s.RouteInfoInvalid(in.net("network"))
	})
	b.done()
}

// RIBNotifyClient is the typed stub for rib_client/0.1; the destination
// target varies per call (each registered client is notified on its own
// target).
type RIBNotifyClient struct{ anycast }

// NewRIBNotifyClient returns a stub pushing rib_client/0.1 events
// through r.
func NewRIBNotifyClient(r *xipc.Router) *RIBNotifyClient {
	return &RIBNotifyClient{anycast{r, RIBNotifySpec}}
}

// RouteInfoInvalid tells client its cached answers under covering are
// stale.
func (c *RIBNotifyClient) RouteInfoInvalid(client string, covering netip.Prefix, done func(error)) {
	c.call(client, "route_info_invalid", Done(done), xrl.Net("network", covering))
}
