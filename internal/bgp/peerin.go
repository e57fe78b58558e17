package bgp

import (
	"net/netip"

	"xorp/internal/core"
	"xorp/internal/eventloop"
	"xorp/internal/telemetry"
)

// PeerIn is the origin of one peering's input branch (§5.1): it stores the
// original routes received from the peer — the only place input routes are
// stored, so filters can be re-run at any time — and emits Add/Replace/Delete
// messages downstream. It is a source, not a stage: routes enter it from the
// session (ReceiveUpdate), never as messages.
type PeerIn struct {
	core.Base[Route]
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
		Base:       newBase("peerin(" + peer.Name + ")"),
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

// ReceiveUpdate processes a decoded UPDATE from the peer: withdrawals,
// then announcements. An announcement whose AS_PATH contains localAS is a
// routing loop: the peer has replaced whatever it said before about each
// prefix with a route we must not use (RFC 4271 §9.1.2), so what we hold of
// them is withdrawn. Otherwise the attribute set is interned once per
// message, with one reference per NLRI, and shared (pointer-identical) by
// every announced route; consecutive fresh announcements leave as one run,
// cut where a prefix the peer already announced becomes a Replace, so
// downstream sees the UPDATE's own order. The withdrawals leave as one run
// before any announcement is stored: downstream looks back up here while
// it handles them.
func (p *PeerIn) ReceiveUpdate(m *UpdateMsg, localAS uint16) {
	p.Withdraw(m.Withdrawn...)
	if len(m.NLRI) == 0 {
		return
	}
	if m.Attrs.ASPath.Contains(localAS) {
		p.loopRoutes.Add(uint64(len(m.NLRI)))
		p.Withdraw(m.NLRI...)
		return
	}
	attrs := p.pool.Intern(m.Attrs)
	p.pool.retain(attrs, len(m.NLRI)-1)
	p.announce(attrs, m.NLRI...)
}

// Announce stores one route and emits a run of one, or a Replace,
// downstream.
func (p *PeerIn) Announce(net netip.Prefix, attrs *PathAttrs) {
	p.announce(p.pool.Intern(attrs), net)
}

// announce puts attrs, with a reference the caller took for each, under
// every one of nets. A fresh prefix joins the run being built; a prefix the
// peer already announced sends the run so far on and becomes a Replace.
// The run may go on after it: one holding the prefix stored these attrs.
// Each announced route is marked sole when the peer is the prefix's only
// holder.
func (p *PeerIn) announce(attrs *PathAttrs, nets ...netip.Prefix) {
	em := p.Emitter()
	for _, net := range nets {
		net = net.Masked()
		old, existed, sole := p.rib.put(net, p.who, attrs)
		if existed {
			em.Flush()
			p.pool.Release(old)
		}
		if p.tracer.On(telemetry.StagePeerIn) {
			p.tracer.Stamp(telemetry.StagePeerIn, net)
		}
		r := p.route(net, attrs)
		r.sole = sole
		switch {
		case !existed:
			em.Add(r)
		case !old.Equal(attrs): // else a duplicate announcement, nothing changed
			em.Replace(p.route(net, old), r)
		}
	}
	p.Release(&em)
}

// Withdraw removes routes and emits them downstream as one Delete run, each
// marked sole when no holder of its prefix is left. Unknown prefixes are
// ignored (RFC 4271 tolerates spurious withdrawals).
func (p *PeerIn) Withdraw(nets ...netip.Prefix) {
	em := p.Emitter()
	for _, net := range nets {
		net = net.Masked()
		if p.tracer.On(telemetry.StagePeerIn) {
			p.tracer.StampOp(telemetry.StagePeerIn, net, true)
		}
		old, existed, last := p.rib.remove(net, p.who)
		if !existed {
			continue
		}
		p.pool.Release(old)
		r := p.route(net, old)
		r.sole = last
		em.Delete(r)
	}
	p.Release(&em)
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
	d := &DeletionStage{Base: newBase("deletion(" + p.peer.Name + ")"), loop: p.loop, inTable: p.inTable}
	p.who = &holder{in: p}
	core.Splice[Route](p, d)
	d.task = d.loop.AddTask(d.Name(), d.step)
	return d
}

// Lookup implements core.Table: the stored original route.
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
	core.Base[Route]
	loop    *eventloop.Loop
	inTable // the routes not yet deleted, which downstream still holds
	task    *eventloop.Task
	last    netip.Prefix   // the cursor: the last prefix a slice visited
	batch   []netip.Prefix // a slice's routes, collected before any goes
	done    bool
}

// step deletes one batch; it is a cooperative background slice (§4). The
// safe iterator of §5.3 is a key: the slice resumes after the last prefix
// the one before it visited, wherever routes came and went meanwhile, and
// deletes only once its walk is over, since the RIB-in is not written
// inside its own walk.
func (d *DeletionStage) step() bool {
	work, more := 0, false
	d.batch = d.batch[:0]
	d.rib.tbl.WalkFrom(d.last, func(net netip.Prefix, s ribSlot) bool {
		if work >= deletionBatch*skipSpan {
			more = true
			return false
		}
		d.last, work = net, work+1
		if d.rib.ref(&s, d.who) != nil {
			d.batch = append(d.batch, net)
			work += skipSpan - 1
		}
		return true
	})
	em := d.Emitter()
	for _, net := range d.batch {
		attrs, _, _ := d.rib.remove(net, d.who)
		d.pool.Release(attrs)
		em.Delete(d.route(net, attrs))
	}
	d.Release(&em)
	if !more || d.Len() == 0 {
		d.finish()
	}
	return d.done
}

// finishIfEmpty finishes the stage once it holds nothing.
func (d *DeletionStage) finishIfEmpty() {
	if d.Len() == 0 {
		d.finish()
	}
}

// finish unplumbs the drained stage and ends its task; downstream stages
// never knew it existed.
func (d *DeletionStage) finish() {
	if d.done {
		return
	}
	d.done = true
	core.Unsplice[Route](d)
	d.task.Stop()
}

// Add handles fresh announcements from the revived PeerIn. Where we still
// hold a prefix, downstream believes the old route is current, so the run
// is cut there and the pair becomes a Replace; our copy is dropped (each
// route lives in at most one deletion stage).
func (d *DeletionStage) Add(run []Route) {
	em := d.Emitter()
	for _, r := range run {
		if old, held, _ := d.rib.remove(r.Net, d.who); held {
			d.pool.Release(old)
			em.Replace(d.route(r.Net, old), r)
		} else {
			em.Add(r)
		}
	}
	d.Release(&em)
	d.finishIfEmpty()
}

// Replace passes through; if we somehow still hold the prefix, drop our
// stale copy first (downstream already saw the new route's Add).
func (d *DeletionStage) Replace(old, new Route) {
	if stale, held, _ := d.rib.remove(new.Net, d.who); held {
		d.pool.Release(stale)
	}
	if next := d.Next(); next != nil {
		next.Replace(old, new)
	}
	d.finishIfEmpty()
}

// Delete passes through (the PeerIn only deletes routes it announced
// after the handoff, which we do not hold).
func (d *DeletionStage) Delete(run []Route) { d.Pass(core.OpDelete, run) }

// Lookup: routes not yet deleted are still answered (rule 2), otherwise
// ask upstream.
func (d *DeletionStage) Lookup(net netip.Prefix, r *Route) bool {
	return d.get(net, r) || d.LookupParent(net, r)
}
