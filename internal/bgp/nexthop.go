package bgp

import (
	"net/netip"

	"xorp/internal/core"
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
// An add has no old side and a delete no new one; only a new side needs a
// nexthop and can wait. call is the stage call that queued the op: the
// PeerIn's sole mark holds only if the op leaves within it.
type pendingOp struct {
	op       core.Op
	old, new Route
	call     uint64
}

// held returns what downstream holds while the op waits: its old side.
func (p pendingOp) held() (Route, bool) {
	p.old.sole = false
	return p.old, p.op != core.OpAdd
}

// nexthopEntry is what the resolver knows about one nexthop. Every route via
// the nexthop that downstream holds carries exactly info, so an entry is
// never dropped once routes have passed: an invalidated one is marked stale
// and keeps answering for them until the re-query replaces it.
type nexthopEntry struct {
	info  NexthopInfo
	stale bool
}

// NexthopResolver annotates routes with IGP metric and resolvability
// before they reach the decision process. One resolver sits at the end of
// each peering's input branch (Figure 5). Ops for a net with queued
// predecessors queue behind them, so downstream always sees a consistent
// per-net stream.
//
// The stage stores no routes (§5.1: only the PeerIn does). The annotation
// depends on the nexthop alone, so it is kept per nexthop and stamped into
// each route on its way downstream, and Lookup asks upstream and stamps the
// answer the same way. Only ops still waiting for an answer hold routes
// here.
//
// The stage keeps one emitter for its lifetime instead of one per call: an
// answer may arrive synchronously, inside the call that asked, and what it
// releases must queue behind what that call has emitted so far, in the same
// run where it can join it.
type NexthopResolver struct {
	core.Base[Route]
	em  core.Emitter[Route]
	src MetricSource

	nexthops   map[netip.Addr]*nexthopEntry
	byCovering map[netip.Prefix][]netip.Addr

	// queues holds per-net FIFO op queues; inflight marks nexthops with
	// an outstanding LookupNexthop; waiters maps a nexthop to the nets
	// whose queue head waits on it.
	queues   map[netip.Prefix][]pendingOp
	inflight map[netip.Addr]bool
	waiters  map[netip.Addr][]netip.Prefix
	// busy, once the resolver feeds a Decision, is its count of branches
	// whose resolver has ops queued: this one counts itself while queues
	// is not empty.
	busy *int
	// inCall is set while stage call number call runs: an answer arriving
	// inside it (a synchronous source) leaves what it releases in the run
	// the call is building, which the call flushes.
	inCall bool
	call   uint64
}

// NewNexthopResolver returns a resolver stage backed by src.
func NewNexthopResolver(name string, src MetricSource) *NexthopResolver {
	r := &NexthopResolver{
		Base:       newBase(name),
		src:        src,
		nexthops:   make(map[netip.Addr]*nexthopEntry),
		byCovering: make(map[netip.Prefix][]netip.Addr),
		queues:     make(map[netip.Prefix][]pendingOp),
		inflight:   make(map[netip.Addr]bool),
		waiters:    make(map[netip.Addr][]netip.Prefix),
	}
	r.em = r.Emitter()
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

// resolved reports whether nh has an answer new routes may use.
func (n *NexthopResolver) resolved(nh netip.Addr) bool {
	e := n.nexthops[nh]
	return e != nil && !e.stale
}

// stamp writes e's annotation into r.
func (e *nexthopEntry) stamp(r *Route) {
	r.Resolvable, r.IGPMetric = e.info.Resolvable, e.info.Metric
}

// annotate stamps r from its nexthop's entry and reports whether there is
// one: a route without has never gone downstream. The empty side of an add
// or a delete has neither.
func (n *NexthopResolver) annotate(r *Route) bool {
	if r.Attrs == nil {
		return false
	}
	e := n.nexthops[r.Attrs.NextHop]
	if e != nil {
		e.stamp(r)
	}
	return e != nil
}

// Add implements Stage. A run shares one attribute set and thus one
// nexthop: with the answer at hand the whole run is annotated from the one
// entry and forwarded in one pass; a route with queued predecessors goes
// through the queue at its position, and an unresolved nexthop queues
// every route (the first issues the query, the rest wait behind it).
func (n *NexthopResolver) Add(run []Route) {
	n.begin()
	nh := run[0].Attrs.NextHop
	e := n.nexthops[nh]
	resolved := e != nil && !e.stale
	for _, r := range run {
		if !resolved || len(n.queues) > 0 && len(n.queues[r.Net]) > 0 {
			n.submit(pendingOp{op: core.OpAdd, new: r})
			e = n.nexthops[nh] // an answer may have come in meanwhile
			resolved = e != nil && !e.stale
			continue
		}
		e.stamp(&r)
		n.em.Add(r)
	}
	n.flush()
}

// Replace implements Stage.
func (n *NexthopResolver) Replace(old, new Route) {
	n.begin()
	n.submit(pendingOp{op: core.OpReplace, old: old, new: new})
	n.flush()
}

// Delete implements Stage: the withdrawals with nothing queued ahead of
// them go on as one run.
func (n *NexthopResolver) Delete(run []Route) {
	n.begin()
	for _, r := range run {
		n.submit(pendingOp{op: core.OpDelete, old: r})
	}
	n.flush()
}

// begin starts a stage call.
func (n *NexthopResolver) begin() {
	n.inCall = true
	n.call++
}

// flush ends a stage call: it sends the run the call built.
func (n *NexthopResolver) flush() {
	n.inCall = false
	n.em.Flush()
}

// submit queues op behind its net's earlier ops and sends on what is ready.
// An op with nothing ahead of it and nothing to wait for goes straight out.
func (n *NexthopResolver) submit(op pendingOp) {
	net := op.new.Net
	if op.op == core.OpDelete {
		net = op.old.Net
	}
	if len(n.queues[net]) == 0 && (op.op == core.OpDelete || n.resolved(op.new.Attrs.NextHop)) {
		n.forward(op)
	} else {
		if len(n.queues) == 0 && n.busy != nil {
			*n.busy++
		}
		op.call = n.call
		n.queues[net] = append(n.queues[net], op)
		n.drain(net)
	}
}

// drain forwards ops from the head of net's queue while they are ready:
// deletes always, adds/replaces once their nexthop is resolved. When the
// head needs an unresolved nexthop, a query is issued (once) and the queue
// waits. An op leaves the queue before it goes out, because downstream
// looks back up through this stage while handling it; one that leaves after
// the stage call that queued it loses the PeerIn's sole mark, which speaks
// only for the moment the PeerIn sent it. Ready adds join the
// run being built, which goes out before any other op leaves the queue:
// an add in it must look up as what that op replaces. A delete joins a
// run too, which goes out before the next op of its net leaves.
func (n *NexthopResolver) drain(net netip.Prefix) {
	for q := n.queues[net]; len(q) > 0; q = n.queues[net] {
		op := q[0]
		if op.op != core.OpDelete && !n.resolved(op.new.Attrs.NextHop) {
			n.wait(op.new.Attrs.NextHop, net)
			return
		}
		if op.op != core.OpAdd {
			n.em.Flush()
		}
		if len(q) == 1 {
			if delete(n.queues, net); len(n.queues) == 0 && n.busy != nil {
				*n.busy--
			}
		} else {
			n.queues[net] = q[1:]
		}
		if !n.inCall || op.call != n.call {
			op.old.sole, op.new.sole = false, false
		}
		n.forward(op)
		if op.op == core.OpDelete && len(q) > 1 {
			n.em.Flush() // the op after it may make net look up as held again
		}
	}
}

// wait records that net's queue head waits on nh and makes sure a query is
// in flight. A net may be recorded twice; its second drain finds nothing.
func (n *NexthopResolver) wait(nh netip.Addr, net netip.Prefix) {
	n.waiters[nh] = append(n.waiters[nh], net)
	n.query(nh)
}

// query asks the source about nh unless an answer is already on its way.
func (n *NexthopResolver) query(nh netip.Addr) {
	if n.inflight[nh] {
		return
	}
	n.inflight[nh] = true
	n.src.LookupNexthop(nh, func(info NexthopInfo) { n.answered(nh, info) })
}

// answered handles an asynchronous answer, first or post-invalidation. The
// entry is updated before anything is emitted: the decision process looks
// back up through this stage while it handles each message, and must see
// the new answer. Then routes downstream are re-announced if the answer
// changed what they carry, and every net whose queue head was waiting on
// nh drains — in that order, so a waiting Replace finds its old side
// already carrying the entry it is about to be stamped from. The adds the
// drains release go out as runs.
func (n *NexthopResolver) answered(nh netip.Addr, info NexthopInfo) {
	delete(n.inflight, nh)
	prev := n.nexthops[nh]
	n.nexthops[nh] = &nexthopEntry{info: info}
	if info.Covering.IsValid() {
		n.byCovering[info.Covering] = append(n.byCovering[info.Covering], nh)
	}
	if prev != nil && n.Next() != nil && (prev.info.Resolvable != info.Resolvable || prev.info.Metric != info.Metric) {
		n.em.Flush()
		n.reannounce(nh, prev.info)
	}
	nets := n.waiters[nh]
	delete(n.waiters, nh)
	for _, net := range nets {
		n.drain(net)
	}
	if !n.inCall {
		n.em.Flush()
	}
}

// forward annotates and emits one op; the emitter cuts an add run where
// the attribute set or source changes. The old side is stamped too: it
// comes from upstream bare, and what downstream holds of it carries its
// nexthop's entry.
func (n *NexthopResolver) forward(op pendingOp) {
	n.annotate(&op.old)
	n.annotate(&op.new)
	switch op.op {
	case core.OpAdd:
		n.em.Add(op.new)
	case core.OpDelete:
		n.em.Delete(op.old)
	default:
		n.em.Replace(op.old, op.new)
	}
}

// invalidate handles a "cache invalidated" event for a covering subnet:
// affected nexthops go stale and are re-queried — the §4 path where "a RIP
// route change must immediately notify BGP". Until the answer arrives,
// routes downstream keep the annotation they were emitted with and new
// ones via those nexthops queue.
func (n *NexthopResolver) invalidate(covering netip.Prefix) {
	var nhs []netip.Addr
	for c, list := range n.byCovering {
		if c.Overlaps(covering) {
			nhs = append(nhs, list...)
			delete(n.byCovering, c)
		}
	}
	for _, nh := range nhs {
		n.nexthops[nh].stale = true
		n.query(nh)
	}
}

// routeHolder is a stage of the input branch that stores routes: the
// PeerIn, and a DeletionStage for as long as it drains.
type routeHolder interface{ Walk(func(Route) bool) }

// reannounce replaces every route via nh that downstream holds — the entry
// has just moved from prev — with the same route under the new annotation.
// Those are the old side of each queue head, and, for nets with nothing
// queued, whatever the stages upstream that store routes answer for through
// the branch (so damping suppression and filter drops are honoured). The
// walk is O(table) per changed nexthop; a nexthop → prefixes index would
// cost about as much per route as the clone table this stage used to keep.
func (n *NexthopResolver) reannounce(nh netip.Addr, prev NexthopInfo) {
	was, now := nexthopEntry{info: prev}, n.nexthops[nh]
	emit := func(r Route) {
		if r.Attrs.NextHop == nh {
			old := r
			was.stamp(&old)
			now.stamp(&r)
			n.em.Replace(old, r)
		}
	}
	for _, q := range n.queues {
		if old, ok := q[0].held(); ok {
			emit(old)
		}
	}
	var r Route
	for s := n.Parent(); s != nil; s = s.Parent() {
		h, ok := s.(routeHolder)
		if !ok {
			continue
		}
		h.Walk(func(held Route) bool {
			if len(n.queues[held.Net]) == 0 && n.LookupParent(held.Net, &r) {
				emit(r)
			}
			return true
		})
	}
}

// Lookup implements core.Table: what downstream last saw of net. With ops
// queued that is the old side of the head (nothing, for a queued add:
// queued routes are invisible); otherwise upstream's answer, annotated.
func (n *NexthopResolver) Lookup(net netip.Prefix, r *Route) bool {
	ok := n.LookupParent(net, r)
	if len(n.queues) > 0 {
		if q := n.queues[net]; len(q) > 0 {
			*r, ok = q[0].held()
		}
	}
	return ok && n.annotate(r)
}
