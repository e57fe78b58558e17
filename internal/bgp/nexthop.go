package bgp

import (
	"net/netip"
)

// NexthopInfo is the RIB's answer about one nexthop: whether it is
// reachable, the IGP metric to it, and the covering subnet the answer is
// valid for (the "largest enclosing subnet" of Figure 8).
type NexthopInfo struct {
	Resolvable bool
	Metric     uint32
	Covering   netip.Prefix
}

// MetricSource supplies nexthop resolvability and IGP metrics. The real
// implementation asks the RIB's register stage over XRLs (§5.2.1); tests
// and RIB-less benchmarks use StaticMetricSource or a fake.
type MetricSource interface {
	// LookupNexthop asks for nh asynchronously; cb runs on the BGP loop.
	LookupNexthop(nh netip.Addr, cb func(NexthopInfo))
	// WatchInvalidation registers a callback invoked (on the BGP loop)
	// when previously returned answers covering the given prefix become
	// invalid.
	WatchInvalidation(fn func(covering netip.Prefix))
}

// StaticMetricSource resolves every nexthop with a fixed metric,
// synchronously.
type StaticMetricSource struct {
	Metric uint32
}

// LookupNexthop implements MetricSource.
func (s *StaticMetricSource) LookupNexthop(nh netip.Addr, cb func(NexthopInfo)) {
	cb(NexthopInfo{Resolvable: true, Metric: s.Metric, Covering: netip.PrefixFrom(nh, nh.BitLen())})
}

// WatchInvalidation implements MetricSource; static answers never change.
func (s *StaticMetricSource) WatchInvalidation(func(covering netip.Prefix)) {}

// pendingOp is a route message parked while its nexthop resolves
// ("routes are held in a queue until the relevant nexthop metrics are
// received; this avoids the need for the Decision Process to wait on
// asynchronous operations", §5.1.1).
type pendingOp struct {
	op       int // 1 add, 2 replace, 3 delete
	old, new *Route
}

// key returns the route whose net/nexthop orders the op.
func (p pendingOp) key() *Route {
	if p.new != nil {
		return p.new
	}
	return p.old
}

// needsNexthop reports whether the op must wait for a resolution.
func (p pendingOp) needsNexthop() bool { return p.op != 3 }

// NexthopResolver annotates routes with IGP metric and resolvability
// before they reach the decision process. One resolver sits at the end of
// each peering's input branch (Figure 5). Ops for a net with queued
// predecessors queue behind them, so downstream always sees a consistent
// per-net stream.
type NexthopResolver struct {
	base
	src MetricSource

	cache      map[netip.Addr]NexthopInfo
	byCovering map[netip.Prefix][]netip.Addr

	// queues holds per-net FIFO op queues; inflight marks nexthops with
	// an outstanding LookupNexthop; waiters maps a nexthop to the nets
	// whose queue head waits on it.
	queues   map[netip.Prefix][]pendingOp
	inflight map[netip.Addr]bool
	waiters  map[netip.Addr][]netip.Prefix

	// announced is what this stage emitted downstream, keyed by net;
	// Lookup answers from it (rule 2) and invalidation re-annotates it.
	announced map[netip.Prefix]*Route
}

// NewNexthopResolver returns a resolver stage backed by src.
func NewNexthopResolver(name string, src MetricSource) *NexthopResolver {
	r := &NexthopResolver{
		base:       base{name: name},
		src:        src,
		cache:      make(map[netip.Addr]NexthopInfo),
		byCovering: make(map[netip.Prefix][]netip.Addr),
		queues:     make(map[netip.Prefix][]pendingOp),
		inflight:   make(map[netip.Addr]bool),
		waiters:    make(map[netip.Addr][]netip.Prefix),
		announced:  make(map[netip.Prefix]*Route),
	}
	src.WatchInvalidation(r.invalidate)
	return r
}

// PendingOps reports queued (unresolved) operations, for tests.
func (n *NexthopResolver) PendingOps() int {
	total := 0
	for _, q := range n.queues {
		total += len(q)
	}
	return total
}

// Add implements Stage. A run shares one attribute set and thus one
// nexthop: with the answer cached the whole run annotates and forwards in
// one pass; a route with queued predecessors or a prior announcement cuts
// the run and goes through the queue or as a Replace at its position, and
// an uncached nexthop queues every route (the first issues the query, the
// rest wait behind it).
func (n *NexthopResolver) Add(run []*Route) {
	info, cached := n.cache[run[0].Attrs.NextHop]
	for _, r := range run {
		if !cached || len(n.queues[r.Net]) > 0 {
			n.flush()
			n.submit(pendingOp{op: 1, new: r})
			continue
		}
		oldOut := n.announced[r.Net]
		ann := n.annotate(r, info)
		n.announced[r.Net] = ann
		if n.next == nil {
			continue
		}
		if oldOut != nil {
			n.flush()
			n.next.Replace(oldOut, ann)
		} else {
			n.run = append(n.run, ann)
		}
	}
	n.flush()
}

// Replace implements Stage.
func (n *NexthopResolver) Replace(old, new *Route) {
	n.submit(pendingOp{op: 2, old: old, new: new})
}

// Delete implements Stage.
func (n *NexthopResolver) Delete(r *Route) { n.submit(pendingOp{op: 3, old: r}) }

func (n *NexthopResolver) submit(op pendingOp) {
	net := op.key().Net
	n.queues[net] = append(n.queues[net], op)
	n.drain(net)
}

// drain forwards ops from the head of net's queue while they are ready:
// deletes always, adds/replaces once their nexthop is cached. When the
// head needs an uncached nexthop, a query is issued (once) and the queue
// waits.
func (n *NexthopResolver) drain(net netip.Prefix) {
	q := n.queues[net]
	for len(q) > 0 {
		op := q[0]
		if op.needsNexthop() {
			nh := op.new.Attrs.NextHop
			info, cached := n.cache[nh]
			if !cached {
				n.queues[net] = q
				n.wait(nh, net)
				return
			}
			q = q[1:]
			n.forward(op, info)
			continue
		}
		q = q[1:]
		n.forward(op, NexthopInfo{})
	}
	delete(n.queues, net)
}

// wait records that net's queue head waits on nh and issues the query if
// none is in flight.
func (n *NexthopResolver) wait(nh netip.Addr, net netip.Prefix) {
	for _, w := range n.waiters[nh] {
		if w == net {
			// Already waiting; the in-flight query covers us.
			return
		}
	}
	n.waiters[nh] = append(n.waiters[nh], net)
	if !n.inflight[nh] {
		n.inflight[nh] = true
		n.src.LookupNexthop(nh, func(info NexthopInfo) { n.resolvedNexthop(nh, info) })
	}
}

// resolvedNexthop handles an asynchronous answer and drains every net
// whose queue head was waiting on it.
func (n *NexthopResolver) resolvedNexthop(nh netip.Addr, info NexthopInfo) {
	delete(n.inflight, nh)
	n.cache[nh] = info
	if info.Covering.IsValid() {
		n.byCovering[info.Covering] = append(n.byCovering[info.Covering], nh)
	}
	nets := n.waiters[nh]
	delete(n.waiters, nh)
	for _, net := range nets {
		n.drain(net)
	}
}

func (n *NexthopResolver) annotate(r *Route, info NexthopInfo) *Route {
	out := r.Clone()
	out.Resolvable = info.Resolvable
	out.IGPMetric = info.Metric
	return out
}

// forward annotates and emits one op, maintaining the announced table and
// degrading ops so downstream always sees a consistent stream.
func (n *NexthopResolver) forward(op pendingOp, info NexthopInfo) {
	switch op.op {
	case 1, 2:
		oldOut := n.announced[op.new.Net]
		out := n.annotate(op.new, info)
		n.announced[out.Net] = out
		if n.next == nil {
			return
		}
		if oldOut != nil {
			n.next.Replace(oldOut, out)
		} else {
			n.addOne(out)
		}
	case 3:
		oldOut := n.announced[op.old.Net]
		delete(n.announced, op.old.Net)
		if n.next != nil && oldOut != nil {
			n.next.Delete(oldOut)
		}
	}
}

// invalidate handles a "cache invalidated" event for a covering subnet:
// affected nexthops are re-queried and announced routes re-annotated —
// the §4 path where "a RIP route change must immediately notify BGP".
func (n *NexthopResolver) invalidate(covering netip.Prefix) {
	var nhs []netip.Addr
	for c, list := range n.byCovering {
		if c.Overlaps(covering) {
			nhs = append(nhs, list...)
			delete(n.byCovering, c)
		}
	}
	for _, nh := range nhs {
		delete(n.cache, nh)
		if n.inflight[nh] {
			continue
		}
		n.inflight[nh] = true
		nh := nh
		n.src.LookupNexthop(nh, func(info NexthopInfo) { n.requeryDone(nh, info) })
	}
}

// requeryDone applies a post-invalidation answer: cache it, drain any
// queues that started waiting meanwhile, and re-announce affected routes
// whose annotation changed.
func (n *NexthopResolver) requeryDone(nh netip.Addr, info NexthopInfo) {
	old := n.cacheSnapshot(nh)
	n.resolvedNexthop(nh, info)
	if old != nil && old.Resolvable == info.Resolvable && old.Metric == info.Metric {
		return
	}
	for net, r := range n.announced {
		if r.Attrs.NextHop != nh {
			continue
		}
		if len(n.queues[net]) > 0 {
			// A newer op for this net is queued; it will re-announce.
			continue
		}
		out := n.annotate(r, info)
		n.announced[net] = out
		if n.next != nil {
			n.next.Replace(r, out)
		}
	}
}

func (n *NexthopResolver) cacheSnapshot(nh netip.Addr) *NexthopInfo {
	if info, ok := n.cache[nh]; ok {
		return &info
	}
	return nil
}

// Lookup implements Stage: answers come from the announced table, so they
// agree exactly with the message stream (queued routes are invisible).
func (n *NexthopResolver) Lookup(net netip.Prefix) *Route {
	return n.announced[net]
}
