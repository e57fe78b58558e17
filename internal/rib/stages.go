// Package rib implements the XORP Routing Information Base (paper §5.2):
// the plumbing between routing protocols. Like BGP, the RIB is a network
// of stages through which routes flow — origin tables storing each
// protocol's routes, pairwise merge stages arbitrating by administrative
// distance, an ExtInt stage composing external (BGP) routes with internal
// routes and resolving their nexthops recursively, redist stages feeding
// route redistribution, and register stages implementing the interest
// registration protocol of §5.2.1 (Figure 8).
//
// A route lives in two tables, one per role: its origin table (what the
// protocol said — merge lookups and graceful-restart retention read it)
// and the ExtInt stage's announced table (what the RIB decided — the diff
// base, and what LookupBest, Len, redistribution priming and Figure 8
// answers read). Every other stage is plumbing: it asks upstream (Table)
// or keeps an index of prefixes and nexthops, never a route.Entry.
//
// One message shape flows through the network: the run, 1..n entries
// sharing an op. Stage has one Add(run), one Replace(old, new) and one
// Delete(run); a single route is a run of one, and cutting a stream into
// different runs never changes what the FIB sees. The network ends the
// same way: FIBClient is the one method FIBApplyBatch, and a single push
// is a batch of one.
package rib

import (
	"net/netip"
	"slices"

	"xorp/internal/route"
	"xorp/internal/trie"
)

// Stage is one element of the RIB's stage network: something routes flow
// into. Semantics mirror bgp.Stage; routes are route.Entry values. The RIB
// makes decisions "purely on the basis of a single administrative distance
// metric", allowing the distributed pairwise merge design.
//
// Add and Delete take a run: one or more entries, applied in order. A run
// is valid only for the duration of the call — the caller reuses the
// buffer — so a stage that keeps an entry copies it. A stage may re-cut
// what it emits into different runs than it received; it may not reorder.
type Stage interface {
	Name() string
	Add(run []route.Entry)
	Replace(old, new route.Entry)
	Delete(run []route.Entry)
	source
}

// source is anything routes flow out of.
type source interface{ setDownstream(s Stage) }

// Table is a source that can answer for the routes it announces: the
// origin tables, which store them, and the merge and ExtInt stages, which
// ask their parents (the paper's lookup_route). Routes enter a Table
// through its own inputs, so it is not a Stage; a stage that stores
// nothing answers nothing, so a Stage is not a Table.
type Table interface {
	source
	// Lookup returns the announced route exactly matching net.
	Lookup(net netip.Prefix) (route.Entry, bool)
	// LookupBest returns the announced longest-prefix match.
	LookupBest(addr netip.Addr) (route.Entry, bool)
}

var _ = []Table{(*OriginTable)(nil), (*MergeStage)(nil), (*ExtIntStage)(nil)}

// base supplies plumbing and the stage-owned emission scratch.
type base struct {
	name string
	next Stage
	// buf backs the stage's runEmitter between calls. A call detaches it
	// (see emitter), so a client that re-enters the RIB synchronously from
	// inside a flush finds nil here and grows a buffer of its own instead
	// of overwriting the run in flight.
	buf []route.Entry
}

func (b *base) Name() string          { return b.name }
func (b *base) setDownstream(s Stage) { b.next = s }

// emitter detaches the stage's scratch into an emitter for one call;
// release hands it back.
func (b *base) emitter() runEmitter {
	em := runEmitter{next: b.next, run: b.buf[:0]}
	b.buf = nil
	return em
}

// release flushes em and returns its buffer to the stage.
func (b *base) release(em *runEmitter) {
	em.Flush()
	b.buf = em.run
}

// Plumb wires head into stages left-to-right.
func Plumb(head source, stages ...Stage) {
	for _, s := range stages {
		head.setDownstream(s)
		head = s
	}
}

// stageEmpty reports whether a table is known to announce nothing; false
// when unknown. Merge inputs use it to skip per-route other-side lookups
// wholesale during table loads.
func stageEmpty(s Table) bool {
	if e, ok := s.(interface{ Empty() bool }); ok {
		return e.Empty()
	}
	return false
}

// runEmitter coalesces a stage's emissions into runs: consecutive Adds
// (or Deletes) accumulate and ship downstream as one run; a Replace or a
// kind switch flushes first, so the downstream stream is the same however
// the input was cut. Callers must Flush (base.release) when done.
type runEmitter struct {
	next Stage
	run  []route.Entry
	kind byte // 'a' or 'd'
}

func (em *runEmitter) Add(e route.Entry) {
	if em.kind != 'a' {
		em.Flush()
		em.kind = 'a'
	}
	em.run = append(em.run, e)
}

func (em *runEmitter) Delete(e route.Entry) {
	if em.kind != 'd' {
		em.Flush()
		em.kind = 'd'
	}
	em.run = append(em.run, e)
}

func (em *runEmitter) Replace(old, new route.Entry) {
	em.Flush()
	if em.next != nil {
		em.next.Replace(old, new)
	}
}

// Flush ships the pending run downstream, then clears the buffer so the
// idle scratch pins no interface names or tag slices.
func (em *runEmitter) Flush() {
	if len(em.run) == 0 {
		return
	}
	if em.next != nil {
		if em.kind == 'a' {
			em.next.Add(em.run)
		} else {
			em.next.Delete(em.run)
		}
	}
	clear(em.run)
	em.run = em.run[:0]
}

// betterEntry decides between two entries for the same prefix: lower
// administrative distance, then lower metric, then stable (a wins ties).
func betterEntry(a, b route.Entry) route.Entry {
	if b.AdminDistance < a.AdminDistance {
		return b
	}
	if b.AdminDistance == a.AdminDistance && b.Metric < a.Metric {
		return b
	}
	return a
}

// OriginTable is the origin stage for one protocol (Figure 7): it stores
// that protocol's routes, a route.Stored under each prefix turned back into
// the route.Entry on every read, and emits changes downstream.
type OriginTable struct {
	base
	proto route.Protocol
	ad    uint8
	tbl   *trie.Table[route.Stored]

	// stale marks routes retained across their protocol's death (BGP
	// graceful-restart semantics, §3's survivability claim): when the
	// Finder reports the origin's process dead, the stored routes stay
	// resolvable and stay in the FIB but are flagged here; a re-learned
	// route clears its flag (an identical re-announcement short-circuits
	// in AddRoutes with zero downstream emission), and SweepStale removes
	// whatever the respawned process no longer announces. Staleness lives
	// beside route.Entry, not in it, precisely so Entry.Equal still
	// detects the identical re-announcement. Nil when nothing is stale.
	stale map[netip.Prefix]bool

	// batchGate, when set, vets read-ahead: a run upserts the table ahead
	// of the downstream flush, so a downstream stage that reads this table
	// mid-flush (the extint stage re-resolving dependent external routes
	// through the internal side) could observe entries whose announcements
	// it hasn't processed yet. Internal-side origins carry a gate that is
	// closed exactly when such dependent reads exist (external routes are
	// present); with the gate closed the emitter is flushed after every
	// entry, so trie writes and emissions advance in lockstep. External
	// origins need no gate: nothing re-reads their table mid-flush.
	batchGate func() bool
}

// NewOriginTable returns an origin table for proto with its default
// administrative distance.
func NewOriginTable(proto route.Protocol) *OriginTable {
	return &OriginTable{
		base:  base{name: "origin(" + proto.String() + ")"},
		proto: proto,
		ad:    route.AdminDistance(proto),
		tbl:   trie.New[route.Stored](),
	}
}

// lockstep reports whether the table may not run ahead of its emissions.
func (o *OriginTable) lockstep() bool { return o.batchGate != nil && !o.batchGate() }

// Len returns the number of stored routes.
func (o *OriginTable) Len() int { return o.tbl.Len() }

// MarkAllStale flags every stored route stale without emitting anything
// downstream: the routes remain announced and installed. Returns the
// number of routes marked.
func (o *OriginTable) MarkAllStale() int {
	if o.tbl.Len() == 0 {
		return 0
	}
	if o.stale == nil {
		o.stale = make(map[netip.Prefix]bool, o.tbl.Len())
	}
	n := 0
	o.tbl.Walk(func(net netip.Prefix, _ route.Stored) bool {
		if !o.stale[net] {
			o.stale[net] = true
			n++
		}
		return true
	})
	return n
}

// StaleCount returns the number of routes currently marked stale.
func (o *OriginTable) StaleCount() int { return len(o.stale) }

// clearStale un-flags one prefix (route re-learned or withdrawn).
func (o *OriginTable) clearStale(net netip.Prefix) {
	if o.stale != nil {
		delete(o.stale, net)
	}
}

// SweepStale deletes every route still marked stale, in prefix order (map
// order would hand the FEA a differently ordered delete list on identical
// runs), shipping the deletions downstream as coalesced runs (the grace
// window closed: the respawned process finished resyncing, or the grace
// timer expired). Returns the number of routes swept.
func (o *OriginTable) SweepStale() int {
	if len(o.stale) == 0 {
		return 0
	}
	// Collect first: DeleteRoutes mutates o.stale via clearStale.
	nets := make([]netip.Prefix, 0, len(o.stale))
	for net := range o.stale {
		nets = append(nets, net)
	}
	slices.SortFunc(nets, trie.ComparePrefix)
	swept := o.DeleteRoutes(nets)
	o.stale = nil
	return swept
}

// AddRoutes stores a run of routes from the protocol, stamping protocol
// and administrative distance, and emits Add runs and Replaces. The store
// and the previous-value fetch are one trie traversal (Upsert); a
// re-learned identical route un-stales with zero downstream (and zero
// FIB) churn.
func (o *OriginTable) AddRoutes(es []route.Entry) {
	lockstep := o.lockstep()
	em := o.emitter()
	for _, e := range es {
		e.Net = e.Net.Masked()
		e.Protocol = o.proto
		e.AdminDistance = o.ad
		stored, existed := o.tbl.Upsert(e.Net, e.Stored())
		o.clearStale(e.Net)
		if !existed {
			em.Add(e)
		} else if old := stored.Entry(e.Net); !old.Equal(e) {
			em.Replace(old, e)
		}
		if lockstep {
			em.Flush()
		}
	}
	o.release(&em)
}

// DeleteRoutes removes a run of routes and emits Delete runs. Missing
// prefixes are skipped. Returns the number of routes actually removed.
func (o *OriginTable) DeleteRoutes(nets []netip.Prefix) int {
	lockstep := o.lockstep()
	em := o.emitter()
	removed := 0
	for _, net := range nets {
		net = net.Masked()
		old, existed := o.tbl.Delete(net)
		o.clearStale(net)
		if !existed {
			continue
		}
		removed++
		em.Delete(old.Entry(net))
		if lockstep {
			em.Flush()
		}
	}
	o.release(&em)
	return removed
}

// Empty reports whether the table announces nothing.
func (o *OriginTable) Empty() bool { return o.tbl.Len() == 0 }

// Walk visits the stored routes.
func (o *OriginTable) Walk(fn func(route.Entry) bool) {
	o.tbl.Walk(func(net netip.Prefix, e route.Stored) bool { return fn(e.Entry(net)) })
}

// Lookup implements Table.
func (o *OriginTable) Lookup(net netip.Prefix) (route.Entry, bool) {
	return getEntry(o.tbl, net)
}

// LookupBest implements Table; a miss rebuilds the zero entry.
func (o *OriginTable) LookupBest(addr netip.Addr) (route.Entry, bool) {
	net, e, ok := o.tbl.LongestMatch(addr)
	return e.Entry(net), ok
}

// getEntry returns the route a table holds exactly at net, rebuilt from
// the key it is filed under — net masked, not net as the caller wrote it.
func getEntry(tbl *trie.Table[route.Stored], net netip.Prefix) (route.Entry, bool) {
	net = net.Masked()
	if e, ok := tbl.Get(net); ok {
		return e.Entry(net), true
	}
	return route.Entry{}, false
}

// MergeStage combines two route streams, preferring the lower
// administrative distance per prefix (§5.2: "pairwise decisions between
// Merge Stages... this single metric allows more distributed
// decision-making, which we prefer, since it better supports future
// extensions").
type MergeStage struct {
	base
	a, b Table // a is the preferred side on full ties
}

// NewMergeStage merges parents a and b.
func NewMergeStage(name string, a, b Table) *MergeStage {
	m := &MergeStage{base: base{name: name}, a: a, b: b}
	a.setDownstream(&mergeInput{m: m, other: b})
	b.setDownstream(&mergeInput{m: m, other: a})
	return m
}

// mergeInput adapts one parent's stream, remembering which side the
// message came from. It emits through the merge stage's scratch.
type mergeInput struct {
	base
	m     *MergeStage
	other Table
}

// Add arbitrates a run of routes new on this side. When the other parent
// announces nothing (the common case while one protocol loads a full
// table), the whole run passes through without per-route other-side
// lookups.
func (mi *mergeInput) Add(run []route.Entry) {
	if stageEmpty(mi.other) {
		if mi.m.next != nil {
			mi.m.next.Add(run)
		}
		return
	}
	em := mi.m.emitter()
	for _, e := range run {
		other, ok := mi.other.Lookup(e.Net)
		if !ok {
			em.Add(e)
			continue
		}
		// e is new on this side; other was the winner before.
		if winner := betterEntry(other, e); winner.Equal(e) && !other.Equal(e) {
			em.Replace(other, e)
		}
	}
	mi.m.release(&em)
}

func (mi *mergeInput) Replace(old, new route.Entry) {
	prev, next := old, new
	if other, ok := mi.other.Lookup(new.Net); ok {
		prev, next = betterEntry(other, old), betterEntry(other, new)
	}
	if mi.m.next != nil && !prev.Equal(next) {
		mi.m.next.Replace(prev, next)
	}
}

// Delete is the Delete counterpart of Add.
func (mi *mergeInput) Delete(run []route.Entry) {
	if stageEmpty(mi.other) {
		if mi.m.next != nil {
			mi.m.next.Delete(run)
		}
		return
	}
	em := mi.m.emitter()
	for _, e := range run {
		other, ok := mi.other.Lookup(e.Net)
		if !ok {
			em.Delete(e)
			continue
		}
		// If the deleted route was the winner, the other side takes over.
		if winner := betterEntry(other, e); winner.Equal(e) && !e.Equal(other) {
			em.Replace(e, other)
		}
	}
	mi.m.release(&em)
}

// Empty reports whether both parents announce nothing.
func (m *MergeStage) Empty() bool { return stageEmpty(m.a) && stageEmpty(m.b) }

// Lookup implements Table: the better of the two parents.
func (m *MergeStage) Lookup(net netip.Prefix) (route.Entry, bool) {
	ea, oka := m.a.Lookup(net)
	eb, okb := m.b.Lookup(net)
	switch {
	case oka && okb:
		return betterEntry(ea, eb), true
	case oka:
		return ea, true
	case okb:
		return eb, true
	}
	return route.Entry{}, false
}

// LookupBest implements Table: the more specific parent match wins; on
// equal specificity the better entry wins.
func (m *MergeStage) LookupBest(addr netip.Addr) (route.Entry, bool) {
	ea, oka := m.a.LookupBest(addr)
	eb, okb := m.b.LookupBest(addr)
	switch {
	case oka && okb:
		if ea.Net.Bits() != eb.Net.Bits() {
			if ea.Net.Bits() > eb.Net.Bits() {
				return ea, true
			}
			return eb, true
		}
		return betterEntry(ea, eb), true
	case oka:
		return ea, true
	case okb:
		return eb, true
	}
	return route.Entry{}, false
}
