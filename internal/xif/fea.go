package xif

import (
	"net/netip"

	"xorp/internal/route"
	"xorp/internal/xipc"
	"xorp/internal/xrl"
)

// FTISpec declares fti/0.2: the forwarding table interface the RIB uses
// to install its final routes into the FEA (paper §3).
var FTISpec = Define(Spec{
	Name:    "fti",
	Version: "0.2",
	Methods: []Method{
		// Installs are upserts and lookups are reads, so both survive
		// duplicate delivery; deletes error on a missing entry and must
		// not be blindly retried.
		{Name: "add_entry4", Args: []Arg{
			{Name: "network", Type: xrl.TypeIPv4Net},
			{Name: "nexthop", Type: xrl.TypeIPv4, Optional: true},
			{Name: "ifname", Type: xrl.TypeText, Optional: true},
			{Name: "metric", Type: xrl.TypeU32, Optional: true},
		}, Idempotent: true},
		{Name: "delete_entry4", Args: []Arg{
			{Name: "network", Type: xrl.TypeIPv4Net},
		}},
		{Name: "add_entries4", Args: []Arg{
			{Name: "entries", Type: xrl.TypeList, Sample: "192.0.2.0/24 192.0.2.1 5 eth0"},
		}, Idempotent: true},
		{Name: "delete_entries4", Args: []Arg{
			{Name: "networks", Type: xrl.TypeList, Sample: "192.0.2.0/24"},
		}},
		{Name: "lookup_entry4", Args: []Arg{
			{Name: "addr", Type: xrl.TypeIPv4},
		}, Rets: []Arg{
			{Name: "found", Type: xrl.TypeBool},
			{Name: "network", Type: xrl.TypeIPv4Net, Optional: true},
			{Name: "ifname", Type: xrl.TypeText, Optional: true},
			{Name: "nexthop", Type: xrl.TypeIPv4, Optional: true},
		}, Idempotent: true},
	},
})

// FTILookup is the reply to lookup_entry4.
type FTILookup struct {
	Found bool
	Entry route.Entry
}

// FTIServer is the typed implementation contract for fti/0.2. A run is
// valid for the call only: it is the binding's scratch.
type FTIServer interface {
	AddEntries4(es []route.Entry) error
	DeleteEntries4(nets []netip.Prefix) error
	LookupEntry4(addr netip.Addr) (FTILookup, error)
}

// BindFTI wires an FTIServer onto t as fti/0.2. add_entries4 is a hot
// batch path: decoded into scratch the binding reuses, and fully before
// the server sees it, so a malformed atom rejects the whole batch. The
// single-entry handlers share the list server methods and the scratch
// the way BindRIB's do.
func BindFTI(t *xipc.Target, s FTIServer) {
	b := newBinding(t, FTISpec)
	var entries scratch[route.Entry]
	var nets scratch[netip.Prefix]
	b.handle("add_entry4", func(args xrl.Args) (xrl.Args, error) {
		defer entries.give()
		es := entries.take(1)[:1]
		if err := parseEntryArgs(args, &es[0]); err != nil {
			return nil, err
		}
		return nil, s.AddEntries4(es)
	})
	b.handle("delete_entry4", func(args xrl.Args) (xrl.Args, error) {
		defer nets.give()
		one := nets.take(1)[:1]
		var err error
		if one[0], err = args.NetArg("network"); err != nil {
			return nil, err
		}
		return nil, s.DeleteEntries4(one)
	})
	b.handle("add_entries4", func(args xrl.Args) (xrl.Args, error) {
		items, err := args.ListArg("entries")
		if err != nil {
			return nil, err
		}
		defer entries.give()
		es, err := decodeRouteList(entries.take(len(items)), items)
		if err != nil {
			return nil, err
		}
		return nil, s.AddEntries4(es)
	})
	b.handle("delete_entries4", func(args xrl.Args) (xrl.Args, error) {
		items, err := args.ListArg("networks")
		if err != nil {
			return nil, err
		}
		defer nets.give()
		batch, err := decodeNetList(nets.take(len(items)), items)
		if err != nil {
			return nil, err
		}
		return nil, s.DeleteEntries4(batch)
	})
	b.handle("lookup_entry4", func(args xrl.Args) (xrl.Args, error) {
		addr, err := args.AddrArg("addr")
		if err != nil {
			return nil, err
		}
		ans, err := s.LookupEntry4(addr)
		if err != nil {
			return nil, err
		}
		if !ans.Found {
			return xrl.Args{xrl.Bool("found", false)}, nil
		}
		out := xrl.Args{
			xrl.Bool("found", true),
			xrl.Net("network", ans.Entry.Net),
			xrl.Text("ifname", ans.Entry.IfName),
		}
		if ans.Entry.NextHop.IsValid() {
			out = append(out, xrl.Addr("nexthop", ans.Entry.NextHop))
		}
		return out, nil
	})
	b.done()
}

// FTIClient is the typed stub for fti/0.2 (the RIB's FIB-push side). Like
// RIBClient it takes runs and sends a run of one as the single-entry XRL.
type FTIClient struct{ client }

// NewFTIClient returns a stub sending fti/0.2 XRLs to target through r.
func NewFTIClient(r *xipc.Router, target string) *FTIClient {
	return &FTIClient{newClient(r, target, FTISpec)}
}

// entryArgs adds the add_entry4 arguments to o, as routeArgs does.
func entryArgs(o xipc.Outgoing, e *route.Entry) {
	o.Arg(xrl.Net("network", e.Net))
	o.Arg(xrl.Text("ifname", e.IfName))
	if e.NextHop.IsValid() {
		o.Arg(xrl.Addr("nexthop", e.NextHop))
	}
	if e.Metric != 0 {
		o.Arg(xrl.U32("metric", e.Metric))
	}
}

// AddEntries4 installs a run of forwarding entries as one transaction,
// its atoms built in the call record.
func (c *FTIClient) AddEntries4(es []route.Entry, done func(error)) {
	if len(es) == 1 {
		o := c.compose("add_entry4", Done(done), 0)
		entryArgs(o, &es[0])
		c.ship("add_entry4", o)
		return
	}
	o := c.compose("add_entries4", Done(done), len(es))
	putRoutes(o.List("entries", len(es)), es)
	c.ship("add_entries4", o)
}

// DeleteEntries4 removes a run of forwarding entries as one transaction.
func (c *FTIClient) DeleteEntries4(nets []netip.Prefix, done func(error)) {
	if len(nets) == 1 {
		c.call("delete_entry4", Done(done), xrl.Net("network", nets[0]))
		return
	}
	o := c.compose("delete_entries4", Done(done), len(nets))
	putNets(o.List("networks", len(nets)), nets)
	c.ship("delete_entries4", o)
}

// LookupEntry4 queries the FEA's forwarding table.
func (c *FTIClient) LookupEntry4(addr netip.Addr, cb func(FTILookup, *xrl.Error)) {
	c.call("lookup_entry4", func(args xrl.Args, err *xrl.Error) {
		if err != nil {
			cb(FTILookup{}, err)
			return
		}
		var ans FTILookup
		ans.Found, _ = args.BoolArg("found")
		if ans.Found {
			opt := optionals{args: args}
			opt.net("network", &ans.Entry.Net)
			opt.text("ifname", &ans.Entry.IfName)
			opt.addr("nexthop", &ans.Entry.NextHop)
			if opt.err != nil {
				cb(FTILookup{}, xrl.AsError(opt.err))
				return
			}
		}
		cb(ans, nil)
	}, xrl.Addr("addr", addr))
}

// IfMgrSpec declares ifmgr/0.1: interface enumeration.
var IfMgrSpec = Define(Spec{
	Name:    "ifmgr",
	Version: "0.1",
	Methods: []Method{
		{Name: "get_interfaces", Rets: []Arg{{Name: "interfaces", Type: xrl.TypeList}}},
	},
})

// IfMgrServer is the typed contract for ifmgr/0.1; each returned string
// is "name addr mtu up".
type IfMgrServer interface {
	GetInterfaces() ([]string, error)
}

// BindIfMgr wires an IfMgrServer onto t as ifmgr/0.1.
func BindIfMgr(t *xipc.Target, s IfMgrServer) {
	b := newBinding(t, IfMgrSpec)
	b.handle("get_interfaces", func(xrl.Args) (xrl.Args, error) {
		ifs, err := s.GetInterfaces()
		if err != nil {
			return nil, err
		}
		items := make([]xrl.Atom, len(ifs))
		for i, s := range ifs {
			items[i] = xrl.Text("", s)
		}
		return xrl.Args{xrl.List("interfaces", items...)}, nil
	})
	b.done()
}

// FEAUDPSpec declares fea_udp/0.1: the FEA's packet relay for sandboxed
// protocols (paper §7 — RIP and OSPF never touch the network directly).
var FEAUDPSpec = Define(Spec{
	Name:    "fea_udp",
	Version: "0.1",
	Methods: []Method{
		{Name: "bind", Args: []Arg{
			{Name: "port", Type: xrl.TypeU32},
			{Name: "client", Type: xrl.TypeText},
		}},
		{Name: "join_group", Args: []Arg{
			{Name: "group", Type: xrl.TypeIPv4, Sample: "224.0.0.5"},
		}},
		{Name: "leave_group", Args: []Arg{
			{Name: "group", Type: xrl.TypeIPv4, Sample: "224.0.0.5"},
		}},
		{Name: "send", Args: []Arg{
			{Name: "sport", Type: xrl.TypeU32},
			{Name: "dst", Type: xrl.TypeIPv4},
			{Name: "dport", Type: xrl.TypeU32},
			{Name: "payload", Type: xrl.TypeBinary},
		}},
		{Name: "broadcast", Args: []Arg{
			{Name: "sport", Type: xrl.TypeU32},
			{Name: "dport", Type: xrl.TypeU32},
			{Name: "payload", Type: xrl.TypeBinary},
		}},
	},
})

// FEAUDPServer is the typed contract for fea_udp/0.1.
type FEAUDPServer interface {
	UDPBind(port uint16, client string) error
	UDPJoinGroup(group netip.Addr) error
	UDPLeaveGroup(group netip.Addr) error
	UDPSend(sport uint16, dst netip.AddrPort, payload []byte) error
	UDPBroadcast(sport, dport uint16, payload []byte) error
}

// BindFEAUDP wires an FEAUDPServer onto t as fea_udp/0.1.
func BindFEAUDP(t *xipc.Target, s FEAUDPServer) {
	b := newBinding(t, FEAUDPSpec)
	b.handle("bind", func(args xrl.Args) (xrl.Args, error) {
		port, err := args.U32Arg("port")
		if err != nil {
			return nil, err
		}
		client, err := args.TextArg("client")
		if err != nil {
			return nil, err
		}
		return nil, s.UDPBind(uint16(port), client)
	})
	b.handle("join_group", func(args xrl.Args) (xrl.Args, error) {
		group, err := args.AddrArg("group")
		if err != nil {
			return nil, err
		}
		return nil, s.UDPJoinGroup(group)
	})
	b.handle("leave_group", func(args xrl.Args) (xrl.Args, error) {
		group, err := args.AddrArg("group")
		if err != nil {
			return nil, err
		}
		return nil, s.UDPLeaveGroup(group)
	})
	b.handle("send", func(args xrl.Args) (xrl.Args, error) {
		sport, err := args.U32Arg("sport")
		if err != nil {
			return nil, err
		}
		dst, err := args.AddrArg("dst")
		if err != nil {
			return nil, err
		}
		dport, err := args.U32Arg("dport")
		if err != nil {
			return nil, err
		}
		payload, err := args.BinaryArg("payload")
		if err != nil {
			return nil, err
		}
		return nil, s.UDPSend(uint16(sport), netip.AddrPortFrom(dst, uint16(dport)), payload)
	})
	b.handle("broadcast", func(args xrl.Args) (xrl.Args, error) {
		sport, err := args.U32Arg("sport")
		if err != nil {
			return nil, err
		}
		dport, err := args.U32Arg("dport")
		if err != nil {
			return nil, err
		}
		payload, err := args.BinaryArg("payload")
		if err != nil {
			return nil, err
		}
		return nil, s.UDPBroadcast(uint16(sport), uint16(dport), payload)
	})
	b.done()
}

// FEAUDPClient is the typed stub for fea_udp/0.1 (the protocol side of
// the relay).
type FEAUDPClient struct{ client }

// NewFEAUDPClient returns a stub sending fea_udp/0.1 XRLs to target
// (normally "fea") through r.
func NewFEAUDPClient(r *xipc.Router, target string) *FEAUDPClient {
	return &FEAUDPClient{newClient(r, target, FEAUDPSpec)}
}

// Bind asks the FEA to bind port and push received datagrams to client's
// fea_udp_client/0.1 recv method.
func (c *FEAUDPClient) Bind(port uint16, clientTarget string, done func(error)) {
	c.call("bind", Done(done),
		xrl.U32("port", uint32(port)),
		xrl.Text("client", clientTarget))
}

// JoinGroup subscribes the router to a multicast group.
func (c *FEAUDPClient) JoinGroup(group netip.Addr, done func(error)) {
	c.call("join_group", Done(done), xrl.Addr("group", group))
}

// Send relays one datagram from sport to dst.
func (c *FEAUDPClient) Send(sport uint16, dst netip.AddrPort, payload []byte, done func(error)) {
	c.call("send", Done(done),
		xrl.U32("sport", uint32(sport)),
		xrl.Addr("dst", dst.Addr()),
		xrl.U32("dport", uint32(dst.Port())),
		xrl.Binary("payload", payload))
}

// Broadcast relays a datagram to all on-link neighbours.
func (c *FEAUDPClient) Broadcast(sport, dport uint16, payload []byte, done func(error)) {
	c.call("broadcast", Done(done),
		xrl.U32("sport", uint32(sport)),
		xrl.U32("dport", uint32(dport)),
		xrl.Binary("payload", payload))
}

// FEAUDPRecvSpec declares fea_udp_client/0.1: the FEA's push channel for
// relayed datagrams.
var FEAUDPRecvSpec = Define(Spec{
	Name:    "fea_udp_client",
	Version: "0.1",
	Methods: []Method{
		{Name: "recv", Args: []Arg{
			{Name: "src", Type: xrl.TypeIPv4},
			{Name: "sport", Type: xrl.TypeU32},
			{Name: "payload", Type: xrl.TypeBinary},
		}},
	},
})

// FEAUDPRecvServer is the typed contract for fea_udp_client/0.1,
// implemented by sandboxed protocol processes.
type FEAUDPRecvServer interface {
	Recv(src netip.AddrPort, payload []byte) error
}

// BindFEAUDPRecv wires an FEAUDPRecvServer onto t as fea_udp_client/0.1.
func BindFEAUDPRecv(t *xipc.Target, s FEAUDPRecvServer) {
	b := newBinding(t, FEAUDPRecvSpec)
	b.handle("recv", func(args xrl.Args) (xrl.Args, error) {
		src, err := args.AddrArg("src")
		if err != nil {
			return nil, err
		}
		sport, err := args.U32Arg("sport")
		if err != nil {
			return nil, err
		}
		payload, err := args.BinaryArg("payload")
		if err != nil {
			return nil, err
		}
		return nil, s.Recv(netip.AddrPortFrom(src, uint16(sport)), payload)
	})
	b.done()
}

// FEAUDPRecvFunc adapts a function as an FEAUDPRecvServer.
type FEAUDPRecvFunc func(src netip.AddrPort, payload []byte) error

// Recv implements FEAUDPRecvServer.
func (f FEAUDPRecvFunc) Recv(src netip.AddrPort, payload []byte) error { return f(src, payload) }

// FEAUDPRecvClient is the typed stub for fea_udp_client/0.1 (the FEA's
// push side); the destination target varies per bound port.
type FEAUDPRecvClient struct{ anycast }

// NewFEAUDPRecvClient returns a stub pushing relayed datagrams through r.
func NewFEAUDPRecvClient(r *xipc.Router) *FEAUDPRecvClient {
	return &FEAUDPRecvClient{newAnycast(r, FEAUDPRecvSpec)}
}

// Recv pushes one relayed datagram to clientTarget.
func (c *FEAUDPRecvClient) Recv(clientTarget string, src netip.AddrPort, payload []byte, done func(error)) {
	c.call(clientTarget, "recv", Done(done),
		xrl.Addr("src", src.Addr()),
		xrl.U32("sport", uint32(src.Port())),
		xrl.Binary("payload", payload))
}
