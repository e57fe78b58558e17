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
// best routes to the RIB, the RIB's final routes to the FEA, and BGP's
// nexthop lookups to the RIB's register stage. These are the arrows of
// Figure 1 realized as XRLs through the typed xif stubs, so every hop in
// the Figures 10–12 latency path crosses the real IPC machinery.

// xrlRIBClient implements bgp.RIBClient over the typed xif.RIBClient
// stub. AddRoute and DeleteRoute calls issued within one event-loop drain
// (a full table load, a peer's withdrawal of a slice of its table, a
// burst of decision-process output) are buffered in one pending queue,
// in call order, and shipped as list XRLs — add_routes4 or
// delete_routes4 per consecutive run of one kind and one protocol — so
// each travels the RIB as one run and reaches the FEA as one FIB batch
// per run. A change of kind or protocol, a ReplaceRoute, the 256-op cap
// and the end of the drain flush the queue, so the RIB sees exactly the
// order BGP issued.
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

// pendingRIBOp is one buffered AddRoute or DeleteRoute, reduced to the
// RIB entry so no *bgp.Route is retained past the call.
type pendingRIBOp struct {
	del   bool
	proto string
	e     route.Entry // a delete uses only e.Net
	done  func(error)
}

// ribBatchCap bounds the buffered queue (and thus the list XRL size).
const ribBatchCap = 256

func newXRLRIBClient(stub *xif.RIBClient, loop *eventloop.Loop) *xrlRIBClient {
	c := &xrlRIBClient{stub: stub, loop: loop}
	c.flushFn = c.flush
	return c
}

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
func (c *xrlRIBClient) AddRoute(r *bgp.Route, done func(error)) {
	c.enqueue(pendingRIBOp{proto: protoName(r), e: ribEntryOf(r), done: done})
}

// DeleteRoute implements bgp.RIBClient, buffering the withdraw.
func (c *xrlRIBClient) DeleteRoute(r *bgp.Route, done func(error)) {
	c.enqueue(pendingRIBOp{del: true, proto: protoName(r), e: route.Entry{Net: r.Net}, done: done})
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

// flush ships the pending queue in order, one XRL per run of consecutive
// ops of the same kind and protocol.
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
	clear(pend) // drop the done callbacks
	if c.pend == nil {
		c.pend = pend[:0]
	}
}

// ship sends one run. A lone withdraw goes as delete_route4 (the
// single-route XRL costs less than a list of one); everything else as a
// list XRL.
func (c *xrlRIBClient) ship(run []pendingRIBOp) {
	done, proto := runDone(run), run[0].proto
	switch {
	case !run[0].del:
		c.es = c.es[:0]
		for i := range run {
			c.es = append(c.es, run[i].e)
		}
		c.stub.AddRoutes4(proto, c.es, done)
	case len(run) == 1:
		c.stub.DeleteRoute4(proto, run[0].e.Net, done)
	default:
		c.nets = c.nets[:0]
		for i := range run {
			c.nets = append(c.nets, run[i].e.Net)
		}
		c.stub.DeleteRoutes4(proto, c.nets, done)
	}
}

// runDone returns a callback that reports the run's outcome to every op
// that asked for one, or nil when none did.
func runDone(run []pendingRIBOp) func(error) {
	var dones []func(error)
	for i := range run {
		if run[i].done != nil {
			dones = append(dones, run[i].done)
		}
	}
	if dones == nil {
		return nil
	}
	return func(err error) {
		for _, d := range dones {
			d(err)
		}
	}
}

// ReplaceRoute implements bgp.RIBClient.
func (c *xrlRIBClient) ReplaceRoute(old, new *bgp.Route, done func(error)) {
	c.flush() // keep the stream ordered past the buffered ops
	// Protocol identity may change between old and new (ebgp vs ibgp
	// winner): the RIB keys origin tables by protocol, so clear the old
	// entry when it moved.
	if protoName(old) != protoName(new) {
		c.stub.DeleteRoute4(protoName(old), old.Net, nil)
	}
	c.stub.ReplaceRoute4(protoName(new), ribEntryOf(new), done)
}

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
}

// FIBApplyBatch implements rib.FIBClient. A batch of one ships as the
// single-route XRL; anything longer as runs of list-carrying XRLs
// (adds/replaces as add_entries4, deletes as delete_entries4) instead of
// one XRL per route.
func (c *xrlFIBClient) FIBApplyBatch(b *rib.FIBBatch) {
	n := b.Len()
	if n == 1 {
		b.Ops(func(op rib.FIBOp) {
			if op.Kind == rib.FIBOpDelete {
				c.stub.DeleteEntry4(op.Old.Net, nil)
			} else {
				c.stub.AddEntry4(op.New, nil)
			}
		})
		return
	}
	// One array holds every list item of the batch; each run of one kind
	// ships as the stretch it appended. The items of a shipped run stay
	// untouched — an intra-process receiver reads them in place after
	// this returns — and later runs only append past them.
	items := make([]xrl.Atom, 0, n)
	start, dels := 0, false
	ship := func() {
		if run := items[start:len(items):len(items)]; len(run) > 0 {
			if dels {
				c.stub.DeleteEntries4Encoded(run, nil)
			} else {
				c.stub.AddEntries4Encoded(run, nil)
			}
		}
		start = len(items)
	}
	b.Ops(func(op rib.FIBOp) {
		if del := op.Kind == rib.FIBOpDelete; del != dels {
			ship()
			dels = del
		}
		if dels {
			items = append(items, xrl.Net("", op.Old.Net))
		} else {
			items = append(items, xif.EncodeRouteAtom(op.New))
		}
	})
	ship()
}

// directRedist adapts a BGP process as a rib.Redistributor (route
// redistribution into BGP, §3).
type directRedist struct {
	bgp *bgp.Process
}

// RedistAdd implements rib.Redistributor.
func (d directRedist) RedistAdd(e route.Entry) {
	nh := e.NextHop
	if !nh.IsValid() {
		nh = netip.AddrFrom4([4]byte{0, 0, 0, 0})
	}
	d.bgp.Loop().Dispatch(func() { d.bgp.Originate(e.Net, nh, e.Metric) })
}

// RedistDelete implements rib.Redistributor.
func (d directRedist) RedistDelete(e route.Entry) {
	d.bgp.Loop().Dispatch(func() { d.bgp.WithdrawOriginated(e.Net) })
}

var _ rib.Redistributor = directRedist{}

// Exported constructors so the standalone process binaries (cmd/xorp_rib,
// cmd/xorp_bgp) can wire the same XRL clients the router manager uses.

// NewXRLFIBClient returns a rib.FIBClient that sends fti/0.2 XRLs to
// feaTarget through router.
func NewXRLFIBClient(router *xipc.Router, feaTarget string) rib.FIBClient {
	return &xrlFIBClient{stub: xif.NewFTIClient(router, feaTarget)}
}

// NewXRLRIBClient returns a bgp.RIBClient that sends rib/1.0 XRLs to
// ribTarget through router.
func NewXRLRIBClient(router *xipc.Router, ribTarget string) bgp.RIBClient {
	return newXRLRIBClient(xif.NewRIBClient(router, ribTarget), router.Loop())
}

// NewXRLMetricSource returns a bgp.MetricSource that registers interest
// with ribTarget; invalidations must be fed to the returned source's
// Invalidate method (the BGP process's rib_client XRL handler does this).
func NewXRLMetricSource(router *xipc.Router, ribTarget, bgpTarget string) bgp.MetricSource {
	return &xrlMetricSource{stub: xif.NewRIBClient(router, ribTarget), loop: router.Loop(), bgpTarget: bgpTarget}
}
