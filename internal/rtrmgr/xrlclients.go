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

// The XRL client adapters wiring processes together across IPC: BGP's
// best routes and the IGPs' to the RIB, the RIB's final routes to the
// FEA, BGP's nexthop lookups to the RIB's register stage, and the IGPs'
// packets through the FEA's relay; the RIB's redistribution into a
// protocol rides xif.Redist4Client. These are the arrows of Figure 1
// realized as XRLs through the typed xif stubs, so every hop in the
// Figures 10–12 latency path crosses the real IPC machinery, and a
// process whose XRL router is closed reaches nothing.

// xrlRIBClient implements bgp.RIBClient over the typed xif.RIBClient
// stub. The calls issued within one event-loop drain (a full table load,
// a peer's withdrawal of a slice of its table, a burst of
// decision-process output) are buffered in one pending queue, in call
// order, and shipped as runs — one stub call per consecutive stretch of
// one kind and one protocol — so each travels the RIB as one run and
// reaches the FEA as one FIB batch. A change of kind or protocol, the
// 256-op cap and the end of the drain flush the queue, so the RIB sees
// exactly the order BGP issued.
type xrlRIBClient struct {
	stub *xif.RIBClient
	loop *eventloop.Loop

	pend        []pendingRIBOp
	flushQueued bool
	flushFn     func() // c.flush, bound once: Dispatch(c.flush) would allocate per drain

	// Scratch for the run being shipped; the stubs encode before
	// returning, so both are free again after each call.
	es   []route.Entry
	nets []netip.Prefix
}

// pendingRIBOp is one buffered add or withdraw, reduced to the RIB entry
// so no *bgp.Route is retained past the call.
type pendingRIBOp struct {
	del   bool
	proto string
	e     route.Entry // a delete uses only e.Net
}

// ribBatchCap bounds the buffered queue (and thus the list XRL size).
const ribBatchCap = 256

func protoName(r *bgp.Route) string {
	if r.Src != nil && r.Src.IBGP {
		return "ibgp"
	}
	return "ebgp"
}

func ribEntryOf(r *bgp.Route) route.Entry {
	e := route.Entry{Net: r.Net, Metric: r.IGPMetric}
	if r.Attrs.NextHop.IsValid() {
		e.NextHop = r.Attrs.NextHop
	}
	return e
}

// AddRoute implements bgp.RIBClient, buffering the add.
func (c *xrlRIBClient) AddRoute(r *bgp.Route) {
	c.enqueue(pendingRIBOp{proto: protoName(r), e: ribEntryOf(r)})
}

// DeleteRoute implements bgp.RIBClient, buffering the withdraw.
func (c *xrlRIBClient) DeleteRoute(r *bgp.Route) {
	c.enqueue(pendingRIBOp{del: true, proto: protoName(r), e: route.Entry{Net: r.Net}})
}

// ReplaceRoute implements bgp.RIBClient. The origin table upserts, so a
// replace is an add in the ordered queue. The RIB keys origin tables by
// protocol: when the winner moved between ebgp and ibgp, the old
// protocol's entry is withdrawn first.
func (c *xrlRIBClient) ReplaceRoute(old, new *bgp.Route) {
	if protoName(old) != protoName(new) {
		c.DeleteRoute(old)
	}
	c.AddRoute(new)
}

func (c *xrlRIBClient) enqueue(op pendingRIBOp) {
	c.pend = append(c.pend, op)
	if len(c.pend) >= ribBatchCap {
		c.flush()
		return
	}
	if !c.flushQueued {
		c.flushQueued = true
		c.loop.Dispatch(c.flushFn)
	}
}

// flush ships the pending queue in order, one run per stretch of
// consecutive ops of the same kind and protocol.
func (c *xrlRIBClient) flush() {
	c.flushQueued = false
	if len(c.pend) == 0 {
		return
	}
	// Detach the queue while shipping: an op enqueued from inside a stub
	// call starts a fresh one rather than joining the run being cut.
	pend := c.pend
	c.pend = nil
	for start := 0; start < len(pend); {
		end := start + 1
		for end < len(pend) && pend[end].del == pend[start].del && pend[end].proto == pend[start].proto {
			end++
		}
		c.ship(pend[start:end])
		start = end
	}
	if c.pend == nil {
		c.pend = pend[:0]
	}
}

// ship hands one run to the stub.
func (c *xrlRIBClient) ship(run []pendingRIBOp) {
	if run[0].del {
		c.nets = c.nets[:0]
		for i := range run {
			c.nets = append(c.nets, run[i].e.Net)
		}
		c.stub.DeleteRoutes4(run[0].proto, c.nets, nil)
		return
	}
	c.es = c.es[:0]
	for i := range run {
		c.es = append(c.es, run[i].e)
	}
	c.stub.AddRoutes4(run[0].proto, c.es, nil)
}

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

// newXRLRIBClient returns a bgp.RIBClient that sends rib/1.0 XRLs to
// ribTarget through router.
func newXRLRIBClient(router *xipc.Router, ribTarget string) bgp.RIBClient {
	c := &xrlRIBClient{stub: xif.NewRIBClient(router, ribTarget), loop: router.Loop()}
	c.flushFn = c.flush
	return c
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
