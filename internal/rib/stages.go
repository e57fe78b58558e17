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
// answers read). Every other stage is plumbing: it asks upstream (core.Table)
// or keeps an index of prefixes and nexthops, never a route.Entry.
//
// Every element is a core stage or source of route.Entry values: one
// message shape flows, the run, 1..n entries sharing an op, and cutting a
// stream into different runs never changes what the FIB sees. The network
// ends the same way: FIBClient is the one method FIBApplyBatch, and a
// single push is a batch of one.
package rib

import (
	"net/netip"
	"slices"

	"xorp/internal/core"
	"xorp/internal/route"
	"xorp/internal/trie"
)

// Stage is one element of the RIB's stage network: a core.Stage of
// route.Entry values, with the semantics every stage shares (core.Stage).
// The RIB makes decisions "purely on the basis of a single administrative
// distance metric", allowing the distributed pairwise merge design.
type Stage = core.Stage[route.Entry]

// bestSource is a source that answers for the routes it announces, the
// longest match included: the origin tables, which store them, and the
// merge and ExtInt stages, which ask their parents. Routes enter an origin
// through its protocol, and a merge or ExtInt stage through inputs of its
// own, so none of them is a Stage; a stage that stores nothing answers
// nothing, so no Stage is one of these.
type bestSource interface {
	core.Source[route.Entry]
	// LookupBest returns the announced longest-prefix match.
	LookupBest(addr netip.Addr) (route.Entry, bool)
	// Empty reports whether the source announces nothing: a merge input
	// whose other side is empty (a table load) passes runs through
	// without a lookup per route.
	Empty() bool
}

var _ = []bestSource{(*OriginTable)(nil), (*MergeStage)(nil), (*ExtIntStage)(nil)}

// newBase returns a RIB stage's base: a run shares nothing but its op.
func newBase(name string) core.Base[route.Entry] { return core.NewBase[route.Entry](name, nil) }

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
	core.Base[route.Entry]
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
		Base:  newBase("origin(" + proto.String() + ")"),
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
	em := o.Emitter()
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
	o.Release(&em)
}

// DeleteRoutes removes a run of routes and emits Delete runs. Missing
// prefixes are skipped. Returns the number of routes actually removed.
func (o *OriginTable) DeleteRoutes(nets []netip.Prefix) int {
	lockstep := o.lockstep()
	em := o.Emitter()
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
	o.Release(&em)
	return removed
}

// Empty implements bestSource.
func (o *OriginTable) Empty() bool { return o.tbl.Len() == 0 }

// Walk visits the stored routes.
func (o *OriginTable) Walk(fn func(route.Entry) bool) {
	o.tbl.Walk(func(net netip.Prefix, e route.Stored) bool { return fn(e.Entry(net)) })
}

// Lookup implements core.Table.
func (o *OriginTable) Lookup(net netip.Prefix, e *route.Entry) bool {
	return getEntry(o.tbl, net, e)
}

// LookupBest implements bestSource; a miss rebuilds the zero entry.
func (o *OriginTable) LookupBest(addr netip.Addr) (route.Entry, bool) {
	net, e, ok := o.tbl.LongestMatch(addr)
	return e.Entry(net), ok
}

// getEntry writes the route a table holds exactly at net into e, rebuilt
// from the key it is filed under — net masked, not net as the caller wrote
// it.
func getEntry(tbl *trie.Table[route.Stored], net netip.Prefix, e *route.Entry) bool {
	net = net.Masked()
	s, ok := tbl.Get(net)
	if ok {
		*e = s.Entry(net)
	}
	return ok
}

// MergeStage combines two route streams, preferring the lower
// administrative distance per prefix (§5.2: "pairwise decisions between
// Merge Stages... this single metric allows more distributed
// decision-making, which we prefer, since it better supports future
// extensions").
type MergeStage struct {
	core.Base[route.Entry]
	a, b bestSource // a is the preferred side on full ties
	// answer is where b's Lookup answer lands (see mergeInput.answer).
	answer route.Entry
}

// NewMergeStage merges parents a and b.
func NewMergeStage(name string, a, b bestSource) *MergeStage {
	m := &MergeStage{Base: newBase(name), a: a, b: b}
	core.Plumb[route.Entry](a, &mergeInput{Base: newBase(name), m: m, other: b})
	core.Plumb[route.Entry](b, &mergeInput{Base: newBase(name), m: m, other: a})
	return m
}

// mergeInput adapts one parent's stream, remembering which side the
// message came from. It emits through the merge stage's scratch.
type mergeInput struct {
	core.Base[route.Entry]
	m     *MergeStage
	other bestSource
	// answer is where the other side's Lookup answer lands: a local handed
	// to an interface method would be on the heap, one allocation per call.
	answer route.Entry
}

// Add arbitrates a run of routes new on this side. When the other parent
// announces nothing (the common case while one protocol loads a full
// table), the whole run passes through without per-route other-side
// lookups.
func (mi *mergeInput) Add(run []route.Entry) {
	if mi.other.Empty() {
		mi.m.Pass(core.OpAdd, run)
		return
	}
	em := mi.m.Emitter()
	for _, e := range run {
		if !mi.other.Lookup(e.Net, &mi.answer) {
			em.Add(e)
			continue
		}
		// e is new on this side; other was the winner before.
		other := mi.answer
		if winner := betterEntry(other, e); winner.Equal(e) && !other.Equal(e) {
			em.Replace(other, e)
		}
	}
	mi.m.Release(&em)
}

func (mi *mergeInput) Replace(old, new route.Entry) {
	prev, next := old, new
	if mi.other.Lookup(new.Net, &mi.answer) {
		prev, next = betterEntry(mi.answer, old), betterEntry(mi.answer, new)
	}
	if s := mi.m.Next(); s != nil && !prev.Equal(next) {
		s.Replace(prev, next)
	}
}

// Delete is the Delete counterpart of Add.
func (mi *mergeInput) Delete(run []route.Entry) {
	if mi.other.Empty() {
		mi.m.Pass(core.OpDelete, run)
		return
	}
	em := mi.m.Emitter()
	for _, e := range run {
		if !mi.other.Lookup(e.Net, &mi.answer) {
			em.Delete(e)
			continue
		}
		// If the deleted route was the winner, the other side takes over.
		other := mi.answer
		if winner := betterEntry(other, e); winner.Equal(e) && !e.Equal(other) {
			em.Replace(e, other)
		}
	}
	mi.m.Release(&em)
}

// Empty reports whether both parents announce nothing.
func (m *MergeStage) Empty() bool { return m.a.Empty() && m.b.Empty() }

// Lookup implements core.Table: the better of the two parents.
func (m *MergeStage) Lookup(net netip.Prefix, e *route.Entry) bool {
	oka, okb := m.a.Lookup(net, e), m.b.Lookup(net, &m.answer)
	switch {
	case oka && okb:
		*e = betterEntry(*e, m.answer)
	case okb:
		*e = m.answer
	}
	return oka || okb
}

// LookupBest implements bestSource: the more specific parent match wins; on
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
