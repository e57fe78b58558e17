package rib

import (
	"encoding/binary"
	"net/netip"
	"slices"

	"xorp/internal/core"
	"xorp/internal/route"
	"xorp/internal/trie"
)

// ExtIntStage composes a set of external routes (BGP, whose nexthops are
// remote routers) with a set of internal routes (connected/static/IGP,
// whose nexthops are on-link), per Figure 7. External routes are
// recursively resolved against the internal side: an IBGP route "via
// 10.0.9.9" only becomes usable once an internal route tells us which
// interface and gateway reach 10.0.9.9. When internal routing changes,
// dependent external routes are re-resolved and re-announced — the
// event-driven dependency tracking that route scanners approximate with
// periodic rescans (§4).
//
// The stage stores what it decided, not what it was told: announced is the
// RIB's final table, the only route store outside the origin tables, and
// like them it keeps a route.Stored under each prefix. The external routes
// stay in their origin tables (ext.Lookup); the stage keeps only the
// nexthop index that resolves them.
type ExtIntStage struct {
	core.Base[route.Entry]
	ext, int bestSource

	// announced is the stage's downstream view (both sides merged),
	// updated in reconcile ahead of the flush that carries the change.
	announced *trie.Table[route.Stored]
	// nexthops indexes the external routes that need resolving by their
	// nexthop as announced: how it resolves now and the prefixes riding on
	// it — a pointer-free key per route (a word for IPv4), so the collector
	// never scans the sets, and a struct per nexthop (full-table feeds use
	// a handful). extInput keeps the sets in step with the external stream;
	// intInput.changed re-resolves an entry whenever an internal change can
	// move it, so a resolution stays good across runs.
	nexthops map[netip.Addr]*nhState
	// spare is the last entry that emptied, reused by the next new nexthop
	// so that a lone route flapping allocates nothing.
	spare *nhState
	// nExt counts the external routes the stage has been told about.
	nExt int
	// answer is where a parent's Lookup answer lands: a local handed to an
	// interface method would be on the heap, one allocation per call.
	// reconcile empties it, so between calls it holds nothing.
	answer route.Entry
}

// nhResult is how one nexthop resolves through the internal side.
type nhResult struct {
	ifName string
	gw     netip.Addr // valid when the nexthop is reached via a gateway
	via    netip.Prefix
	ok     bool
}

// nhState is one nexthop's index entry: how it resolves, and the prefixes
// riding on it, each family in a set of its own keys.
type nhState struct {
	nhResult
	deps4 map[uint64]struct{} // IPv4 prefixes as address<<8 | length
	deps6 map[key6]struct{}   // IPv6 prefixes; nil until the first
}

// key6 is an IPv6 prefix as a set key with no pointer in it: a
// netip.Prefix holds one, for its address's zone.
type key6 struct {
	hi, lo uint64
	bits   uint8
}

func key4Of(p netip.Prefix) uint64 {
	a := p.Addr().As4()
	return uint64(binary.BigEndian.Uint32(a[:]))<<8 | uint64(p.Bits())
}

func key6Of(p netip.Prefix) key6 {
	a := p.Addr().As16()
	return key6{binary.BigEndian.Uint64(a[:8]), binary.BigEndian.Uint64(a[8:]), uint8(p.Bits())}
}

// add puts p in the state's set.
func (st *nhState) add(p netip.Prefix) {
	if p.Addr().Is4() {
		st.deps4[key4Of(p)] = struct{}{}
		return
	}
	if st.deps6 == nil {
		st.deps6 = make(map[key6]struct{})
	}
	st.deps6[key6Of(p)] = struct{}{}
}

// remove takes p out of the state's set, and reports whether the set is
// left empty.
func (st *nhState) remove(p netip.Prefix) (empty bool) {
	if p.Addr().Is4() {
		delete(st.deps4, key4Of(p))
	} else {
		delete(st.deps6, key6Of(p))
	}
	return len(st.deps4) == 0 && len(st.deps6) == 0
}

// appendDeps appends the prefixes in the state's set to dst, in no order.
func (st *nhState) appendDeps(dst []netip.Prefix) []netip.Prefix {
	for k := range st.deps4 {
		var a [4]byte
		binary.BigEndian.PutUint32(a[:], uint32(k>>8))
		dst = append(dst, netip.PrefixFrom(netip.AddrFrom4(a), int(k&0xff)))
	}
	for k := range st.deps6 {
		var a [16]byte
		binary.BigEndian.PutUint64(a[:8], k.hi)
		binary.BigEndian.PutUint64(a[8:], k.lo)
		dst = append(dst, netip.PrefixFrom(netip.AddrFrom16(a), int(k.bits)))
	}
	return dst
}

// NewExtIntStage composes parents ext and int.
func NewExtIntStage(name string, ext, int_ bestSource) *ExtIntStage {
	e := &ExtIntStage{
		Base:      newBase(name),
		ext:       ext,
		int:       int_,
		announced: trie.New[route.Stored](),
		nexthops:  make(map[netip.Addr]*nhState),
	}
	core.Plumb[route.Entry](ext, &extInput{Base: newBase(name), e: e})
	core.Plumb[route.Entry](int_, &intInput{Base: newBase(name), e: e})
	return e
}

// extInput receives the external stream. It reconciles with the entry in
// hand rather than ext.Lookup: the origin table runs ahead of its own
// stream within a call.
type extInput struct {
	core.Base[route.Entry]
	e *ExtIntStage
}

// Add indexes a run of new external routes and reconciles each prefix.
func (x *extInput) Add(run []route.Entry) {
	s := x.e
	s.nExt += len(run)
	em := s.Emitter()
	for i := range run {
		s.link(run[i])
		s.reconcile(run[i].Net, run[i], true, &em)
	}
	s.Release(&em)
}

// Replace moves the prefix to its new nexthop's set and reconciles it.
func (x *extInput) Replace(old, n route.Entry) {
	s := x.e
	em := s.Emitter()
	s.unlink(old)
	s.link(n)
	s.reconcile(n.Net, n, true, &em)
	s.Release(&em)
}

// Delete processes a run of external withdrawals.
func (x *extInput) Delete(run []route.Entry) {
	s := x.e
	s.nExt -= len(run)
	em := s.Emitter()
	for i := range run {
		s.unlink(run[i])
		s.reconcile(run[i].Net, route.Entry{}, false, &em)
	}
	s.Release(&em)
}

// intInput receives the internal stream. All three ops mean the same to
// the stage — the internal side changed at these prefixes.
type intInput struct {
	core.Base[route.Entry]
	e *ExtIntStage
}

func (x *intInput) Add(run []route.Entry)    { x.changed(run) }
func (x *intInput) Replace(_, n route.Entry) { x.changed([]route.Entry{n}) }
func (x *intInput) Delete(run []route.Entry) { x.changed(run) }

// changed applies a run of internal changes in order: each reconciles the
// changed prefix itself, then re-resolves the nexthops it can move and
// reconciles the external routes riding on those that did.
func (x *intInput) changed(run []route.Entry) {
	s := x.e
	em := s.Emitter()
	for i := range run {
		net := run[i].Net
		s.reconcileInt(net, &em)
		var affected []netip.Prefix
		for nh, st := range s.nexthops {
			// A nexthop resolves through the longest internal route that
			// contains it: only a change that contains it and is at least
			// that long can move it, and any cover resolves an unresolved one.
			if !net.Contains(nh) || (st.ok && net.Bits() < st.via.Bits()) {
				continue
			}
			if r := s.lookupNexthop(nh); r != st.nhResult {
				st.nhResult = r
				affected = st.appendDeps(affected)
			}
		}
		// Re-announce in prefix order: map iteration order would make the
		// downstream stream nondeterministic across otherwise identical runs.
		slices.SortFunc(affected, trie.ComparePrefix)
		for _, dep := range affected {
			s.reconcileInt(dep, &em)
		}
	}
	s.Release(&em)
}

// concrete reports whether an external route is usable as it stands: it
// names its interface, or has no nexthop to resolve (a discard route).
func concrete(e route.Entry) bool { return e.IfName != "" || !e.NextHop.IsValid() }

// lookupNexthop resolves nh against the internal side. One level of
// recursion suffices because internal routes are directly usable by
// construction.
func (s *ExtIntStage) lookupNexthop(nh netip.Addr) nhResult {
	via, ok := s.int.LookupBest(nh)
	if !ok {
		return nhResult{}
	}
	// A valid via.NextHop means the nexthop is reached through a gateway:
	// forward there.
	return nhResult{ifName: via.IfName, gw: via.NextHop, via: via.Net, ok: true}
}

// link adds external route e to its nexthop's set, resolving a nexthop
// the index has not seen.
func (s *ExtIntStage) link(e route.Entry) {
	if concrete(e) {
		return
	}
	st := s.nexthops[e.NextHop]
	if st == nil {
		if st, s.spare = s.spare, nil; st == nil {
			st = &nhState{deps4: make(map[uint64]struct{})}
		}
		st.nhResult = s.lookupNexthop(e.NextHop)
		s.nexthops[e.NextHop] = st
	}
	st.add(e.Net)
}

// unlink removes external route e from its nexthop's set, and the nexthop
// from the index when nothing rides on it any more.
func (s *ExtIntStage) unlink(e route.Entry) {
	if concrete(e) {
		return
	}
	st := s.nexthops[e.NextHop]
	if st.remove(e.Net) {
		delete(s.nexthops, e.NextHop)
		s.spare = st
	}
}

// resolved rewrites external route e through the index: interface and,
// when the nexthop sits behind one, gateway. A route ext.Lookup knows ahead
// of the external stream (a client re-entering the RIB mid-flush) has no
// index entry yet and counts as unresolved until it arrives.
func (s *ExtIntStage) resolved(e route.Entry) (route.Entry, bool) {
	if concrete(e) {
		return e, true
	}
	st := s.nexthops[e.NextHop]
	if st == nil || !st.ok {
		return e, false
	}
	e.IfName = st.ifName
	if st.gw.IsValid() {
		e.NextHop = st.gw
	}
	return e, true
}

// reconcileInt reconciles net with whatever the external side holds there.
func (s *ExtIntStage) reconcileInt(net netip.Prefix, em *core.Emitter[route.Entry]) {
	ok := s.ext.Lookup(net, &s.answer)
	s.reconcile(net, s.answer, ok, em)
}

// reconcile computes what downstream should see for net — the better of
// its internal route and, if extOK, its external route ext once resolved —
// diffs that against announced, and emits the change.
func (s *ExtIntStage) reconcile(net netip.Prefix, ext route.Entry, extOK bool, em *core.Emitter[route.Entry]) {
	wantOK := s.int.Lookup(net, &s.answer)
	want := s.answer
	s.answer = route.Entry{}
	if extOK {
		ext, extOK = s.resolved(ext)
	}
	switch {
	case extOK && wantOK:
		want = betterEntry(ext, want)
	case extOK:
		want, wantOK = ext, true
	}
	if wantOK {
		stored, haveOK := s.announced.Upsert(net, want.Stored())
		if !haveOK {
			em.Add(want)
		} else if have := stored.Entry(net); !want.Equal(have) {
			em.Replace(have, want)
		}
		return
	}
	if have, haveOK := s.announced.Delete(net); haveOK {
		em.Delete(have.Entry(net))
	}
}

// Lookup implements core.Table from the announced table.
func (s *ExtIntStage) Lookup(net netip.Prefix, e *route.Entry) bool {
	return getEntry(s.announced, net, e)
}

// LookupBest implements bestSource from the announced table.
func (s *ExtIntStage) LookupBest(addr netip.Addr) (route.Entry, bool) {
	net, e, ok := s.announced.LongestMatch(addr)
	return e.Entry(net), ok
}

// Walk visits the announced table in prefix order.
func (s *ExtIntStage) Walk(fn func(route.Entry) bool) {
	s.announced.Walk(func(net netip.Prefix, e route.Stored) bool { return fn(e.Entry(net)) })
}

// Empty implements bestSource.
func (s *ExtIntStage) Empty() bool { return s.announced.Len() == 0 }

// AnnouncedLen reports the downstream view's size.
func (s *ExtIntStage) AnnouncedLen() int { return s.announced.Len() }

// ExternalRouteCount reports how many external routes the stage tracks.
// Internal-side origins may batch only while this is zero: re-resolving
// the nexthop index reads the internal tables, and batching lets those
// tables run ahead of the announcement stream.
func (s *ExtIntStage) ExternalRouteCount() int { return s.nExt }
