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
// the server sees it, so a malformed atom rejects the whole batch.
func BindFTI(t *xipc.Target, s FTIServer) {
	b := newBinding(t, FTISpec)
	var entries scratch[route.Entry]
	var nets scratch[netip.Prefix]
	b.handle("add_entries4", func(in reader) (xrl.Args, error) {
		items := in.list("entries")
		defer entries.give()
		es, err := decodeRouteList(entries.take(len(items)), items)
		if err != nil {
			return nil, err
		}
		return nil, s.AddEntries4(es)
	})
	b.handle("delete_entries4", func(in reader) (xrl.Args, error) {
		items := in.list("networks")
		defer nets.give()
		batch, err := decodeNetList(nets.take(len(items)), items)
		if err != nil {
			return nil, err
		}
		return nil, s.DeleteEntries4(batch)
	})
	b.handle("lookup_entry4", func(in reader) (xrl.Args, error) {
		ans, err := s.LookupEntry4(in.addr("addr"))
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
// RIBClient it takes runs and sends each, of any length, as the list XRL.
type FTIClient struct{ client }

// NewFTIClient returns a stub sending fti/0.2 XRLs to target through r.
func NewFTIClient(r *xipc.Router, target string) *FTIClient {
	return &FTIClient{newClient(r, target, FTISpec)}
}

// AddEntries4 installs a run of forwarding entries as one transaction,
// its atoms built in the call record.
func (c *FTIClient) AddEntries4(es []route.Entry, done func(error)) {
	o := c.compose("add_entries4", Done(done), len(es))
	putRoutes(o.List("entries", len(es)), es)
	c.ship("add_entries4", o)
}

// DeleteEntries4 removes a run of forwarding entries as one transaction.
func (c *FTIClient) DeleteEntries4(nets []netip.Prefix, done func(error)) {
	o := c.compose("delete_entries4", Done(done), len(nets))
	putNets(o.List("networks", len(nets)), nets)
	c.ship("delete_entries4", o)
}

// LookupEntry4 queries the FEA's forwarding table.
func (c *FTIClient) LookupEntry4(addr netip.Addr, cb func(FTILookup, *xrl.Error)) {
	c.call("lookup_entry4", func(args xrl.Args, err *xrl.Error) {
		ret, err := FTISpec.reply("lookup_entry4", args, err)
		ans := FTILookup{Found: ret.boolean("found")}
		if ans.Found {
			ans.Entry = route.Entry{Net: ret.net("network"), IfName: ret.text("ifname"), NextHop: ret.addr("nexthop")}
		}
		cb(ans, err)
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
	b.handle("get_interfaces", func(reader) (xrl.Args, error) {
		ifs, err := s.GetInterfaces()
		if err != nil {
			return nil, err
		}
		return xrl.Args{textAtoms("interfaces", ifs)}, nil
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
	b.handle("bind", func(in reader) (xrl.Args, error) {
		return nil, s.UDPBind(uint16(in.u32("port")), in.text("client"))
	})
	b.handle("join_group", func(in reader) (xrl.Args, error) {
		return nil, s.UDPJoinGroup(in.addr("group"))
	})
	b.handle("leave_group", func(in reader) (xrl.Args, error) {
		return nil, s.UDPLeaveGroup(in.addr("group"))
	})
	b.handle("send", func(in reader) (xrl.Args, error) {
		dst := netip.AddrPortFrom(in.addr("dst"), uint16(in.u32("dport")))
		return nil, s.UDPSend(uint16(in.u32("sport")), dst, in.binary("payload"))
	})
	b.handle("broadcast", func(in reader) (xrl.Args, error) {
		return nil, s.UDPBroadcast(uint16(in.u32("sport")), uint16(in.u32("dport")), in.binary("payload"))
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
	b.handle("recv", func(in reader) (xrl.Args, error) {
		src := netip.AddrPortFrom(in.addr("src"), uint16(in.u32("sport")))
		return nil, s.Recv(src, in.binary("payload"))
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
