package bgp

import (
	"net/netip"

	"xorp/internal/eventloop"
	"xorp/internal/telemetry"
	"xorp/internal/trie"
)

// PeerIn is the origin stage of one peering's input branch (§5.1): it
// stores the original routes received from the peer — the only place input
// routes are stored, so filters can be re-run at any time — and emits
// Add/Replace/Delete messages downstream.
type PeerIn struct {
	base
	loop *eventloop.Loop
	inTable
	ask bool // its branch holds the prefix the decision is deciding
	// tracer, when set, stamps StagePeerIn as each announced prefix lands
	// in the table and each withdrawn one arrives (nil-safe).
	tracer *telemetry.Tracer
	// loopRoutes counts the NLRI of UPDATEs whose AS_PATH holds the local
	// AS. A Process points its PeerIns at its bgp_in_as_loop_routes_total.
	loopRoutes *telemetry.Counter
}

// NewPeerIn returns the input stage for peer, which stores in pool's RIB-in
// or, with pool nil, unpooled in one of its own.
func NewPeerIn(loop *eventloop.Loop, peer *PeerHandle, pool *AttrPool) *PeerIn {
	p := &PeerIn{
		base:       base{name: "peerin(" + peer.Name + ")"},
		loop:       loop,
		inTable:    inTable{peer: peer, rib: newRIBIn(), pool: pool},
		loopRoutes: new(telemetry.Counter),
	}
	if pool != nil {
		p.rib = pool.rib
	}
	p.who = &holder{in: p}
	return p
}

// Peer returns the peering handle.
func (p *PeerIn) Peer() *PeerHandle { return p.peer }

// ReceiveUpdate processes a decoded UPDATE from the peer: withdrawals,
// then announcements. An announcement whose AS_PATH contains localAS is a
// routing loop: the peer has replaced whatever it said before about each
// prefix with a route we must not use (RFC 4271 §9.1.2), so what we hold of
// them is withdrawn. Otherwise the attribute set is interned once per
// message, with one reference per NLRI, and shared (pointer-identical) by
// every announced route; consecutive fresh announcements leave as one run,
// cut where a prefix the peer already announced becomes a Replace, so
// downstream sees the UPDATE's own order.
func (p *PeerIn) ReceiveUpdate(m *UpdateMsg, localAS uint16) {
	for _, w := range m.Withdrawn {
		p.Withdraw(w)
	}
	if len(m.NLRI) == 0 {
		return
	}
	if m.Attrs.ASPath.Contains(localAS) {
		p.loopRoutes.Add(uint64(len(m.NLRI)))
		for _, n := range m.NLRI {
			p.Withdraw(n)
		}
		return
	}
	attrs := p.pool.Intern(m.Attrs)
	p.pool.retain(attrs, len(m.NLRI)-1)
	for _, n := range m.NLRI {
		p.store(n.Masked(), attrs)
	}
	p.flush()
}

// Announce stores one route and emits a run of one, or a Replace,
// downstream.
func (p *PeerIn) Announce(net netip.Prefix, attrs *PathAttrs) {
	p.store(net.Masked(), p.pool.Intern(attrs))
	p.flush()
}

// store puts attrs, with the reference the caller took for it, under net.
// A fresh prefix joins the run being collected, which the caller flushes; a
// prefix the peer already announced sends the run so far on and becomes a
// Replace. The run may go on after the store: one holding net stored these
// attrs.
func (p *PeerIn) store(net netip.Prefix, attrs *PathAttrs) {
	old, existed := p.rib.put(net, p.who, attrs)
	if existed {
		p.flush()
		p.pool.Release(old)
	}
	if p.tracer.On(telemetry.StagePeerIn) {
		p.tracer.Stamp(telemetry.StagePeerIn, net)
	}
	switch {
	case p.next == nil:
	case !existed:
		p.run = append(p.run, p.route(net, attrs))
	case !old.Equal(attrs): // else a duplicate announcement, nothing changed
		p.next.Replace(p.route(net, old), p.route(net, attrs))
	}
}

// Withdraw removes a route and emits Delete downstream. Unknown prefixes
// are ignored (RFC 4271 tolerates spurious withdrawals).
func (p *PeerIn) Withdraw(net netip.Prefix) {
	net = net.Masked()
	if p.tracer.On(telemetry.StagePeerIn) {
		p.tracer.StampOp(telemetry.StagePeerIn, net, true)
	}
	old, existed := p.rib.remove(net, p.who)
	if !existed {
		return
	}
	p.pool.Release(old)
	if p.next != nil {
		p.next.Delete(p.route(net, old))
	}
}

// PeerDown implements the dynamic deletion stage handoff (§5.1.2): the
// stored routes' holder identity passes to a fresh DeletionStage plumbed
// directly after the PeerIn, which takes a new one, and the background
// deletion begins. The PeerIn — and thus BGP as a whole — is immediately
// ready for the peering to come back up.
func (p *PeerIn) PeerDown() *DeletionStage {
	if p.Len() == 0 {
		return nil
	}
	d := &DeletionStage{base: base{name: "deletion(" + p.peer.Name + ")"}, loop: p.loop, inTable: p.inTable}
	p.who = &holder{in: p}
	Splice(p, d)
	d.it = d.rib.tbl.Iterate()
	d.task = d.loop.AddTask(d.name, d.step)
	return d
}

// Stage interface: a PeerIn is an origin; nothing is upstream of it.

// Add panics: PeerIn has no upstream.
func (p *PeerIn) Add([]Route) { panic("bgp: PeerIn has no upstream") }

// Replace panics: PeerIn has no upstream.
func (p *PeerIn) Replace(_, _ Route) { panic("bgp: PeerIn has no upstream") }

// Delete panics: PeerIn has no upstream.
func (p *PeerIn) Delete(Route) { panic("bgp: PeerIn has no upstream") }

// Lookup returns the stored original route.
func (p *PeerIn) Lookup(net netip.Prefix, r *Route) bool { return p.get(net, r) }

// deletionBatch is how many routes one background slice deletes: few enough
// to keep event latency low, enough to drain a full table in a few thousand
// slices. Stepping over another holder's entry costs 1/skipSpan as much.
const deletionBatch, skipSpan = 64, 16

// DeletionStage deletes a failed peering's routes in the background while
// preserving the §5.1 consistency rules for everything downstream. If the
// peering flaps repeatedly, multiple deletion stages stack, each holding
// the routes of one incarnation; each unplumbs and deletes itself when
// drained.
type DeletionStage struct {
	base
	loop    *eventloop.Loop
	inTable // the routes not yet deleted, which downstream still holds
	task    *eventloop.Task
	it      *trie.Iterator[ribSlot]
	done    bool
}

// Done reports whether the stage has drained and unplumbed itself.
func (d *DeletionStage) Done() bool { return d.done }

// step deletes one batch; it is a cooperative background slice (§4),
// using the safe iterator of §5.3 to survive concurrent route changes.
func (d *DeletionStage) step() bool {
	for work := 0; work < deletionBatch*skipSpan && d.it.Valid(); work++ {
		net, s, ok := d.it.Entry()
		d.it.Next()
		if !ok || d.rib.ref(&s, d.who) == nil {
			continue // another holder's, or gone while we were paused
		}
		work += skipSpan - 1
		attrs, _ := d.rib.remove(net, d.who)
		d.pool.Release(attrs)
		if d.next != nil {
			d.next.Delete(d.route(net, attrs))
		}
	}
	d.finishIfEmpty()
	return d.done
}

// finishIfEmpty unplumbs the drained stage and ends its task; downstream
// stages never knew it existed.
func (d *DeletionStage) finishIfEmpty() {
	if d.done || d.Len() > 0 && d.it.Valid() {
		return
	}
	d.done = true
	d.it.Close()
	Unsplice(d)
	d.task.Stop()
}

// Add handles fresh announcements from the revived PeerIn. Where we still
// hold a prefix, downstream believes the old route is current, so the run
// is cut there and the pair becomes a Replace; our copy is dropped (each
// route lives in at most one deletion stage).
func (d *DeletionStage) Add(run []Route) {
	start := 0
	for i, r := range run {
		old, held := d.rib.remove(r.Net, d.who)
		if !held {
			continue
		}
		d.pool.Release(old)
		if d.next != nil {
			if i > start {
				d.next.Add(run[start:i])
			}
			d.next.Replace(d.route(r.Net, old), r)
		}
		start = i + 1
	}
	if d.next != nil && len(run) > start {
		d.next.Add(run[start:])
	}
	d.finishIfEmpty()
}

// Replace passes through; if we somehow still hold the prefix, drop our
// stale copy first (downstream already saw the new route's Add).
func (d *DeletionStage) Replace(old, new Route) {
	if stale, held := d.rib.remove(new.Net, d.who); held {
		d.pool.Release(stale)
	}
	if d.next != nil {
		d.next.Replace(old, new)
	}
	d.finishIfEmpty()
}

// Delete passes through (the PeerIn only deletes routes it announced
// after the handoff, which we do not hold).
func (d *DeletionStage) Delete(r Route) {
	if d.next != nil {
		d.next.Delete(r)
	}
}

// Lookup: routes not yet deleted are still answered (rule 2), otherwise
// ask upstream.
func (d *DeletionStage) Lookup(net netip.Prefix, r *Route) bool {
	return d.get(net, r) || d.lookupParent(net, r)
}
