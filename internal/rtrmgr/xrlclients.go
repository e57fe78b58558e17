package rtrmgr

import (
	"net/netip"
	"time"

	"xorp/internal/bgp"
	"xorp/internal/eventloop"
	"xorp/internal/rib"
	"xorp/internal/route"
	"xorp/internal/xif"
	"xorp/internal/xipc"
	"xorp/internal/xrl"
)

// The XRL client adapters wiring processes together across IPC: the
// IGPs' routes to the RIB, the RIB's final routes to the FEA, BGP's
// nexthop lookups to the RIB's register stage, and the IGPs' packets
// through the FEA's relay; BGP's best routes go to the RIB through the
// xif.RIBClient stub itself, and the RIB's redistribution into a protocol
// rides xif.Redist4Client. These are the arrows of Figure 1
// realized as XRLs through the typed xif stubs, so every hop in the
// Figures 10–12 latency path crosses the real IPC machinery, and a
// process whose XRL router is closed reaches nothing.

// xrlRouteClient feeds an IGP's runs to the RIB process as proto's
// routes (a route.Protocol's name): rip.RIBClient and ospf.RIBClient over
// the typed stub.
type xrlRouteClient struct {
	stub  *xif.RIBClient
	proto string
}

func (c xrlRouteClient) AddRoutes(es []route.Entry) { c.stub.AddRoutes4(c.proto, es, nil) }

func (c xrlRouteClient) DeleteRoutes(nets []netip.Prefix) { c.stub.DeleteRoutes4(c.proto, nets, nil) }

// xrlMetricSource implements bgp.MetricSource over the rib/1.0
// register_interest4 stub; invalidations arrive via the BGP target's
// rib_client/0.1/route_info_invalid method, which calls Invalidate.
type xrlMetricSource struct {
	stub      *xif.RIBClient
	loop      *eventloop.Loop
	bgpTarget string
	watchers  []func(netip.Prefix)
}

// nexthopRetry is how long a failed register_interest4 waits before it is
// sent again: long enough for a supervised RIB to be respawned.
const nexthopRetry = time.Second

// LookupNexthop implements bgp.MetricSource. An XRL error is not an answer:
// reported as "unresolvable" it would be kept — no covering subnet comes
// with it, so no invalidation could ever correct it — and one timeout while
// the RIB restarts would blackhole every route via nh. The question is
// asked again instead, and until the RIB replies the routes stay queued in
// the resolver, which downstream treats as not yet announced.
func (m *xrlMetricSource) LookupNexthop(nh netip.Addr, cb func(bgp.NexthopInfo)) {
	m.stub.RegisterInterest4(m.bgpTarget, nh, func(ans xif.RIBInterest, err *xrl.Error) {
		if err != nil {
			m.loop.OneShot(nexthopRetry, func() { m.LookupNexthop(nh, cb) })
			return
		}
		cb(bgp.NexthopInfo{
			Resolvable: ans.Resolves,
			Metric:     ans.Route.Metric,
			Covering:   ans.Covering,
		})
	})
}

// WatchInvalidation implements bgp.MetricSource.
func (m *xrlMetricSource) WatchInvalidation(fn func(netip.Prefix)) {
	m.watchers = append(m.watchers, fn)
}

// Invalidate fans an invalidation out to all resolver watchers; the BGP
// process's rib_client XRL handler calls this.
func (m *xrlMetricSource) Invalidate(net netip.Prefix) {
	for _, fn := range m.watchers {
		fn(net)
	}
}

// xrlFIBClient implements rib.FIBClient over the typed xif.FTIClient
// stub.
type xrlFIBClient struct {
	stub *xif.FTIClient

	// Scratch for the run being gathered; the stub encodes before
	// returning, so each is free again once shipped.
	es   []route.Entry
	nets []netip.Prefix
}

// FIBApplyBatch implements rib.FIBClient: the batch goes out as runs of
// one kind (adds and replaces install, deletes remove), one stub call
// per run instead of one per route.
func (c *xrlFIBClient) FIBApplyBatch(b *rib.FIBBatch) {
	b.Ops(func(op rib.FIBOp) {
		if op.Kind == rib.FIBOpDelete {
			c.shipAdds()
			c.nets = append(c.nets, op.Old.Net)
		} else {
			c.shipDels()
			c.es = append(c.es, op.New)
		}
	})
	c.shipAdds()
	c.shipDels()
}

func (c *xrlFIBClient) shipAdds() {
	if len(c.es) > 0 {
		c.stub.AddEntries4(c.es, nil)
		c.es = c.es[:0]
	}
}

func (c *xrlFIBClient) shipDels() {
	if len(c.nets) > 0 {
		c.stub.DeleteEntries4(c.nets, nil)
		c.nets = c.nets[:0]
	}
}

// udpRelay is an IGP's transport over the FEA's packet relay (paper §7: a
// sandboxed process never touches the network): fea_udp/0.1 calls out
// from port, and the datagrams the FEA pushes back to the IGP's own
// target. It is a rip.Transport and, with group set, an ospf.Transport.
type udpRelay struct {
	fea    *xif.FEAUDPClient
	client string
	port   uint16
	group  netip.Addr // joined by Bind when valid: OSPF's AllSPFRouters
	recv   func(src netip.AddrPort, payload []byte)
}

// newUDPRelay binds fea_udp_client/0.1 on client at once — a target's
// methods are fixed when it registers with the Finder — and delivers to
// whatever the protocol's Bind installs later. Both run on router's loop.
func newUDPRelay(router *xipc.Router, client *xipc.Target, feaTarget string, port uint16, group netip.Addr) *udpRelay {
	u := &udpRelay{fea: xif.NewFEAUDPClient(router, feaTarget), client: client.Name, port: port, group: group}
	xif.BindFEAUDPRecv(client, xif.FEAUDPRecvFunc(func(src netip.AddrPort, payload []byte) error {
		if u.recv != nil {
			u.recv(src, payload)
		}
		return nil
	}))
	return u
}

// Bind implements rip.Transport and ospf.Transport.
func (u *udpRelay) Bind(recv func(src netip.AddrPort, payload []byte)) error {
	if u.group.IsValid() {
		u.fea.JoinGroup(u.group, nil)
	}
	u.recv = recv
	u.fea.Bind(u.port, u.client, nil)
	return nil
}

// Send implements rip.Transport and ospf.Transport.
func (u *udpRelay) Send(dst netip.AddrPort, payload []byte) error {
	u.fea.Send(u.port, dst, payload, nil)
	return nil
}

// Broadcast implements rip.Transport.
func (u *udpRelay) Broadcast(payload []byte) error {
	u.fea.Broadcast(u.port, u.port, payload, nil)
	return nil
}

// Multicast implements ospf.Transport.
func (u *udpRelay) Multicast(payload []byte) error {
	return u.Send(netip.AddrPortFrom(u.group, u.port), payload)
}
