package rib

import (
	"net/netip"
	"slices"

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
type ExtIntStage struct {
	base
	ext, int Stage

	// resolved tracks external routes: original, the resolved form
	// announced downstream (ok=false when unresolvable), and which
	// internal prefix resolved it.
	resolvedExt map[netip.Prefix]extState
	// announced is the stage's downstream view (both sides merged).
	announced *trie.Trie[route.Entry]
	// nhCache is extInput.Add's nexthop cache, empty between calls.
	nhCache map[netip.Addr]nhResult
}

type extState struct {
	orig     route.Entry
	resolved route.Entry
	ok       bool
	via      netip.Prefix
}

// NewExtIntStage composes parents ext and int.
func NewExtIntStage(name string, ext, int_ Stage) *ExtIntStage {
	e := &ExtIntStage{
		base:        base{name: name},
		ext:         ext,
		int:         int_,
		resolvedExt: make(map[netip.Prefix]extState),
		announced:   trie.New[route.Entry](),
	}
	ext.setDownstream(&extInput{e: e})
	int_.setDownstream(&intInput{e: e})
	return e
}

// extInput receives the external stream.
type extInput struct {
	base
	e *ExtIntStage
}

// Add resolves a run of external routes and reconciles each prefix. A
// run of two or more shares one nexthop cache (full-table feeds reuse a
// handful of nexthops); a run of one has nothing to share.
func (x *extInput) Add(run []route.Entry) {
	s := x.e
	var cache map[netip.Addr]nhResult
	if len(run) > 1 {
		// Detached like base.buf, and for the same reason.
		cache, s.nhCache = s.nhCache, nil
		if cache == nil {
			cache = make(map[netip.Addr]nhResult, 8)
		}
	}
	em := s.emitter()
	for i := range run {
		st := extState{orig: run[i]}
		st.resolved, st.via, st.ok = s.resolve(run[i], cache)
		s.resolvedExt[run[i].Net] = st
		s.reconcile(run[i].Net, &em)
	}
	s.release(&em)
	if cache != nil {
		clear(cache)
		s.nhCache = cache
	}
}

// Replace is an Add of one: the stage keys on the prefix and diffs
// against what it announced.
func (x *extInput) Replace(_, n route.Entry) { x.Add([]route.Entry{n}) }

// Delete processes a run of external withdrawals.
func (x *extInput) Delete(run []route.Entry) {
	s := x.e
	em := s.emitter()
	for i := range run {
		delete(s.resolvedExt, run[i].Net)
		s.reconcile(run[i].Net, &em)
	}
	s.release(&em)
}

func (x *extInput) Lookup(netip.Prefix) (route.Entry, bool)   { panic("rib: extInput lookup") }
func (x *extInput) LookupBest(netip.Addr) (route.Entry, bool) { panic("rib: extInput lookup") }

// intInput receives the internal stream. All three ops mean the same to
// the stage — the internal side changed at these prefixes.
type intInput struct {
	base
	e *ExtIntStage
}

func (x *intInput) Add(run []route.Entry)                     { x.changed(run) }
func (x *intInput) Replace(_, n route.Entry)                  { x.changed([]route.Entry{n}) }
func (x *intInput) Delete(run []route.Entry)                  { x.changed(run) }
func (x *intInput) Lookup(netip.Prefix) (route.Entry, bool)   { panic("rib: intInput lookup") }
func (x *intInput) LookupBest(netip.Addr) (route.Entry, bool) { panic("rib: intInput lookup") }

// changed applies a run of internal changes in order: each reconciles the
// changed prefix itself, then re-resolves the external routes it affects.
func (x *intInput) changed(run []route.Entry) {
	s := x.e
	em := s.emitter()
	for i := range run {
		net := run[i].Net
		s.reconcile(net, &em)
		var affected []netip.Prefix
		for extNet, st := range s.resolvedExt {
			hit := (st.ok && st.via.IsValid() && st.via.Overlaps(net)) ||
				(!st.ok && net.Contains(st.orig.NextHop)) ||
				(st.ok && net.Contains(st.orig.NextHop) && net.Bits() >= st.via.Bits())
			if hit {
				affected = append(affected, extNet)
			}
		}
		// Re-announce in prefix order: map iteration order would make the
		// downstream stream nondeterministic across otherwise identical runs.
		slices.SortFunc(affected, trie.ComparePrefix)
		for _, extNet := range affected {
			st := s.resolvedExt[extNet]
			// Uncached: the internal side is what is changing.
			st.resolved, st.via, st.ok = s.resolve(st.orig, nil)
			s.resolvedExt[extNet] = st
			s.reconcile(extNet, &em)
		}
	}
	s.release(&em)
}

// nhResult is one nexthop's resolution, cached for the duration of an
// external run: the run arrives from the external side only, so the
// internal tables — the sole input to resolve — cannot change under it.
type nhResult struct {
	ifName string
	gw     netip.Addr // valid when the nexthop is reached via a gateway
	via    netip.Prefix
	ok     bool
}

// resolve recursively resolves an external entry against the internal
// side, through cache when it is non-nil. One level of recursion suffices
// because internal routes are directly usable by construction.
func (s *ExtIntStage) resolve(orig route.Entry, cache map[netip.Addr]nhResult) (route.Entry, netip.Prefix, bool) {
	if orig.IfName != "" || !orig.NextHop.IsValid() {
		// Already concrete (or a discard route): usable as-is.
		return orig, netip.Prefix{}, true
	}
	r, hit := cache[orig.NextHop]
	if !hit {
		if via, ok := s.int.LookupBest(orig.NextHop); ok {
			// A valid via.NextHop means the nexthop is reached through a
			// gateway: forward there.
			r = nhResult{ifName: via.IfName, gw: via.NextHop, via: via.Net, ok: true}
		}
		if cache != nil {
			cache[orig.NextHop] = r
		}
	}
	if !r.ok {
		return orig, netip.Prefix{}, false
	}
	out := orig
	out.IfName = r.ifName
	if r.gw.IsValid() {
		out.NextHop = r.gw
	}
	return out, r.via, true
}

// desired computes what downstream should see for net.
func (s *ExtIntStage) desired(net netip.Prefix) (route.Entry, bool) {
	intE, intOK := s.int.Lookup(net)
	var extE route.Entry
	extOK := false
	if st, ok := s.resolvedExt[net]; ok && st.ok {
		extE, extOK = st.resolved, true
	}
	switch {
	case intOK && extOK:
		return betterEntry(extE, intE), true
	case intOK:
		return intE, true
	case extOK:
		return extE, true
	}
	return route.Entry{}, false
}

// reconcile diffs desired vs announced for net and emits the change.
func (s *ExtIntStage) reconcile(net netip.Prefix, em *runEmitter) {
	want, wantOK := s.desired(net)
	if wantOK {
		have, haveOK := s.announced.Upsert(net, want)
		switch {
		case !haveOK:
			em.Add(want)
		case !want.Equal(have):
			em.Replace(have, want)
		}
		return
	}
	if have, haveOK := s.announced.Delete(net); haveOK {
		em.Delete(have)
	}
}

// Add panics: use the parents.
func (s *ExtIntStage) Add([]route.Entry) { panic("rib: ExtIntStage has adapter inputs") }

// Replace panics: use the parents.
func (s *ExtIntStage) Replace(_, _ route.Entry) { panic("rib: ExtIntStage has adapter inputs") }

// Delete panics: use the parents.
func (s *ExtIntStage) Delete([]route.Entry) { panic("rib: ExtIntStage has adapter inputs") }

// Lookup implements Stage from the announced table.
func (s *ExtIntStage) Lookup(net netip.Prefix) (route.Entry, bool) {
	return s.announced.Get(net)
}

// LookupBest implements Stage from the announced table.
func (s *ExtIntStage) LookupBest(addr netip.Addr) (route.Entry, bool) {
	_, e, ok := s.announced.LongestMatch(addr)
	return e, ok
}

// AnnouncedLen reports the downstream view's size.
func (s *ExtIntStage) AnnouncedLen() int { return s.announced.Len() }

// ExternalRouteCount reports how many external routes the stage tracks.
// Internal-side origins may batch only while this is zero: the rescan
// that re-resolves dependent external routes reads the internal tables,
// and batching lets those tables run ahead of the announcement stream.
func (s *ExtIntStage) ExternalRouteCount() int { return len(s.resolvedExt) }
