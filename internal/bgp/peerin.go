package bgp

import (
	"net/netip"

	"xorp/internal/eventloop"
	"xorp/internal/telemetry"
	"xorp/internal/trie"
)

// PeerIn is the origin stage of one peering's input branch (§5.1): it
// stores the original, unfiltered routes received from the peer — the only
// place input routes are stored, so filters can be re-run at any time —
// and emits Add/Replace/Delete messages downstream.
type PeerIn struct {
	base
	loop *eventloop.Loop
	peer *PeerHandle
	tbl  *trie.Trie[*Route]
	// pool interns attribute sets: each stored route holds one reference
	// on its (canonical, shared) attrs. May be nil (tests).
	pool *AttrPool
	// tracer, when set and enabled, opens a RouteTrace at StagePeerIn as
	// each announced prefix lands in the table (nil-safe).
	tracer *telemetry.Tracer
}

// NewPeerIn returns the input stage for peer. pool may be nil to store
// attrs unpooled.
func NewPeerIn(loop *eventloop.Loop, peer *PeerHandle, pool *AttrPool) *PeerIn {
	return &PeerIn{
		base: base{name: "peerin(" + peer.Name + ")"},
		loop: loop,
		peer: peer,
		tbl:  trie.New[*Route](),
		pool: pool,
	}
}

// Peer returns the peering handle.
func (p *PeerIn) Peer() *PeerHandle { return p.peer }

// Len returns the number of stored routes.
func (p *PeerIn) Len() int { return p.tbl.Len() }

// ReceiveUpdate processes a decoded UPDATE from the peer: withdrawals,
// then announcements. Routes whose AS_PATH contains localAS are dropped
// (loop prevention). The attribute set is interned once per message and
// shared (pointer-identical) by every announced route; consecutive fresh
// announcements leave as one run, cut where a prefix the peer already
// announced becomes a Replace, so downstream sees the UPDATE's own order.
func (p *PeerIn) ReceiveUpdate(m *UpdateMsg, localAS uint16) {
	for _, w := range m.Withdrawn {
		p.Withdraw(w)
	}
	if len(m.NLRI) == 0 {
		return
	}
	if m.Attrs.ASPath.Contains(localAS) {
		return // our own AS in the path: routing loop
	}
	attrs := m.Attrs
	if p.pool != nil {
		attrs = p.pool.Intern(attrs)
		defer p.pool.Release(attrs) // stored routes hold their own refs
	}
	for _, n := range m.NLRI {
		net := n.Masked()
		if _, existed := p.tbl.Get(net); existed {
			p.flush()
			p.Announce(net, attrs)
			continue
		}
		r := &Route{Net: net, Attrs: attrs, Src: p.peer}
		p.tbl.Insert(net, r)
		p.pool.Retain(attrs)
		if p.tracer.Enabled() {
			p.tracer.Stamp(telemetry.StagePeerIn, net)
		}
		if p.next != nil {
			p.run = append(p.run, r)
		}
	}
	p.flush()
}

// Announce stores one route and emits a run of one, or a Replace,
// downstream.
func (p *PeerIn) Announce(net netip.Prefix, attrs *PathAttrs) {
	if p.pool != nil {
		attrs = p.pool.Intern(attrs) // the stored route's reference
	}
	r := &Route{Net: net.Masked(), Attrs: attrs, Src: p.peer}
	old, existed := p.tbl.Get(r.Net)
	p.tbl.Insert(r.Net, r)
	if p.tracer.Enabled() {
		p.tracer.Stamp(telemetry.StagePeerIn, r.Net)
	}
	if existed {
		p.pool.Release(old.Attrs)
	}
	if p.next == nil {
		return
	}
	if existed {
		if SameRoute(old, r) {
			return // duplicate announcement, nothing changed
		}
		p.next.Replace(old, r)
	} else {
		p.addOne(r)
	}
}

// Withdraw removes a route and emits Delete downstream. Unknown prefixes
// are ignored (RFC 4271 tolerates spurious withdrawals).
func (p *PeerIn) Withdraw(net netip.Prefix) {
	old, existed := p.tbl.Delete(net.Masked())
	if !existed {
		return
	}
	p.pool.Release(old.Attrs)
	if p.next != nil {
		p.next.Delete(old)
	}
}

// Walk visits the stored original routes.
func (p *PeerIn) Walk(fn func(*Route) bool) {
	p.tbl.Walk(func(_ netip.Prefix, r *Route) bool { return fn(r) })
}

// PeerDown implements the dynamic deletion stage handoff (§5.1.2): the
// stored table moves into a fresh DeletionStage plumbed directly after the
// PeerIn, a new empty table takes its place, and the background deletion
// begins. The PeerIn — and thus BGP as a whole — is immediately ready for
// the peering to come back up.
func (p *PeerIn) PeerDown() *DeletionStage {
	if p.tbl.Len() == 0 {
		return nil
	}
	d := newDeletionStage(p.loop, p.peer, p.tbl, p.pool)
	p.tbl = trie.New[*Route]()
	Splice(p, d)
	d.start()
	return d
}

// Stage interface: a PeerIn is an origin; nothing is upstream of it.

// Add panics: PeerIn has no upstream.
func (p *PeerIn) Add([]*Route) { panic("bgp: PeerIn has no upstream") }

// Replace panics: PeerIn has no upstream.
func (p *PeerIn) Replace(_, _ *Route) { panic("bgp: PeerIn has no upstream") }

// Delete panics: PeerIn has no upstream.
func (p *PeerIn) Delete(*Route) { panic("bgp: PeerIn has no upstream") }

// Lookup returns the stored original route.
func (p *PeerIn) Lookup(net netip.Prefix) *Route {
	r, ok := p.tbl.Get(net)
	if !ok {
		return nil
	}
	return r
}

// deletionBatch is how many routes one background slice deletes. Small
// enough to keep event latency low, large enough to finish a full table
// in a few thousand slices.
const deletionBatch = 64

// DeletionStage deletes a failed peering's routes in the background while
// preserving the §5.1 consistency rules for everything downstream. If the
// peering flaps repeatedly, multiple deletion stages stack, each holding
// the routes of one incarnation; each unplumbs and deletes itself when
// drained.
type DeletionStage struct {
	base
	loop *eventloop.Loop
	tbl  *trie.Trie[*Route]
	pool *AttrPool
	task *eventloop.Task
	it   *trie.Iterator[*Route]
	done bool
}

func newDeletionStage(loop *eventloop.Loop, peer *PeerHandle, tbl *trie.Trie[*Route], pool *AttrPool) *DeletionStage {
	return &DeletionStage{
		base: base{name: "deletion(" + peer.Name + ")"},
		loop: loop,
		tbl:  tbl,
		pool: pool,
	}
}

func (d *DeletionStage) start() {
	d.it = d.tbl.Iterate()
	d.task = d.loop.AddTask(d.name, d.step)
}

// Done reports whether the stage has drained and unplumbed itself.
func (d *DeletionStage) Done() bool { return d.done }

// Walk visits the routes not yet deleted, which downstream still holds.
func (d *DeletionStage) Walk(fn func(*Route) bool) {
	d.tbl.Walk(func(_ netip.Prefix, r *Route) bool { return fn(r) })
}

// step deletes one batch; it is a cooperative background slice (§4),
// using the safe iterator of §5.3 to survive concurrent route changes.
func (d *DeletionStage) step() bool {
	for i := 0; i < deletionBatch; i++ {
		if !d.it.Valid() {
			d.finish()
			return true
		}
		net, r, ok := d.it.Entry()
		d.it.Next()
		if !ok {
			continue // entry vanished while we were paused
		}
		d.tbl.Delete(net)
		d.pool.Release(r.Attrs)
		if d.next != nil {
			d.next.Delete(r)
		}
	}
	if d.tbl.Len() == 0 {
		d.finish()
		return true
	}
	return false
}

// finish unplumbs the stage; downstream stages never knew it existed.
func (d *DeletionStage) finish() {
	if d.done {
		return
	}
	d.done = true
	d.it.Close()
	Unsplice(d)
}

// Add handles fresh announcements from the revived PeerIn. Where we still
// hold a prefix, downstream believes the old route is current, so the run
// is cut there and the pair becomes a Replace; our copy is dropped (each
// route lives in at most one deletion stage).
func (d *DeletionStage) Add(run []*Route) {
	start := 0
	for i, r := range run {
		old, held := d.tbl.Delete(r.Net)
		if !held {
			continue
		}
		d.pool.Release(old.Attrs)
		if d.next != nil {
			if i > start {
				d.next.Add(run[start:i])
			}
			d.next.Replace(old, r)
		}
		start = i + 1
	}
	if d.next != nil && len(run) > start {
		d.next.Add(run[start:])
	}
	d.maybeFinishEarly()
}

// Replace passes through; if we somehow still hold the prefix, drop our
// stale copy first (downstream already saw the new route's Add).
func (d *DeletionStage) Replace(old, new *Route) {
	if stale, held := d.tbl.Delete(new.Net); held {
		d.pool.Release(stale.Attrs)
	}
	if d.next != nil {
		d.next.Replace(old, new)
	}
	d.maybeFinishEarly()
}

// Delete passes through (the PeerIn only deletes routes it announced
// after the handoff, which we do not hold).
func (d *DeletionStage) Delete(r *Route) {
	if d.next != nil {
		d.next.Delete(r)
	}
}

// Lookup: routes not yet deleted are still answered (rule 2), otherwise
// ask upstream.
func (d *DeletionStage) Lookup(net netip.Prefix) *Route {
	if r, ok := d.tbl.Get(net); ok {
		return r
	}
	return d.lookupParent(net)
}

func (d *DeletionStage) maybeFinishEarly() {
	if d.tbl.Len() == 0 && !d.done {
		d.finish()
		if d.task != nil {
			d.task.Stop()
		}
	}
}
