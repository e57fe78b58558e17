package bgp

import (
	"net/netip"
	"slices"

	"xorp/internal/eventloop"
	"xorp/internal/trie"
)

// Filter judges a route by its attribute set: it returns the route's own
// set to pass it, a rewritten set, or nil to drop it. Prefix and source are
// not a filter's to change; the input set is immutable, so a rewrite is a
// new set, which may share what it leaves alone with the input. The route a
// filter is handed is valid only for the call. Filters must be
// deterministic so lookups replay to the same answers the message stream
// produced (rule 2). A filter may keep state between calls (the export
// transforms remember their last rewrite), so a Filter value belongs to
// one bank.
type Filter func(*Route) *PathAttrs

// FilterBank is a filter-bank stage (§5.1): an ordered chain of filters
// applied to every route flowing downstream and to every lookup answer
// flowing back up. The policy framework (§8.3) and the default
// import/export transforms are expressed as filters.
//
// A route the chain rewrote goes on as the same value under the new set.
type FilterBank struct {
	base
	filters []Filter
	// view is the route the filter being run is shown: the bank's own copy,
	// under the answer of the filter before it.
	view Route
	// refilter is the Refilter reconciliation under way, if any.
	refilter *refilter
}

// refilter is a Refilter's reconciliation: the prefixes upstream held when
// the chain was replaced, in prefix order, and how far its task has got.
// Downstream holds what the replaced chain made of the prefixes not yet
// reached, so their routes go through that chain until the task gets there.
type refilter struct {
	was     []Filter
	pending []netip.Prefix
	next    int
}

// chain returns the filters net's routes go through now.
func (f *FilterBank) chain(net netip.Prefix) []Filter {
	if f.refilter == nil {
		return f.filters
	}
	rf := f.refilter
	if _, ahead := slices.BinarySearchFunc(rf.pending[rf.next:], net, trie.ComparePrefix); ahead {
		return rf.was
	}
	return f.filters
}

// NewFilterBank returns an empty (pass-everything) filter bank.
func NewFilterBank(name string, filters ...Filter) *FilterBank {
	return &FilterBank{base: base{name: name}, filters: filters}
}

// apply runs filters over r and returns what they make of its attribute
// set: r's own when none rewrote it, nil when one dropped it, else the last
// rewrite. Later filters see the route under the earlier ones' answer.
func (f *FilterBank) apply(filters []Filter, r Route) *PathAttrs {
	if len(filters) == 0 {
		return r.Attrs
	}
	f.view = r
	for _, flt := range filters {
		if f.view.Attrs = flt(&f.view); f.view.Attrs == nil {
			break
		}
	}
	return f.view.Attrs
}

// Add implements Stage. A filter may build a set per route, which would
// splinter the run's shared attribute pointer; filters are deterministic,
// so two run members with pointer-identical input attrs produce deep-equal
// output attrs — the bank memoizes the last (in, out) attrs pair and
// substitutes the canonical output pointer, keeping runs shareable
// downstream. If a filter's rewrite genuinely depends on the prefix, the
// memo misses and the run is cut at the divergence point.
func (f *FilterBank) Add(run []Route) {
	if f.next == nil {
		return
	}
	// Results are collected in f.run, never written back into run (the
	// fanout hands the same run to every branch), and only once a filter
	// drops or rewrites a route: an untouched run is forwarded as it came.
	var lastIn, lastOut *PathAttrs
	out, changed := f.run, false
	for i, r := range run {
		a := f.apply(f.chain(r.Net), r)
		if a != nil && a != r.Attrs {
			if lastIn == r.Attrs && a.Equal(lastOut) {
				a = lastOut
			} else {
				lastIn, lastOut = r.Attrs, a
			}
		}
		if !changed {
			if a == r.Attrs {
				continue
			}
			changed = true
			out = append(out, run[:i]...)
		}
		if a != nil {
			r.Attrs = a
			out = append(out, r)
		}
	}
	if !changed {
		f.next.Add(run)
		return
	}
	// Maximal consecutive sub-runs sharing one attrs pointer.
	for i := 0; i < len(out); {
		j := i + 1
		for j < len(out) && out[j].Attrs == out[i].Attrs {
			j++
		}
		f.next.Add(out[i:j])
		i = j
	}
	f.run = out[:0]
}

// Replace implements Stage, degrading to Add/Delete when filtering drops
// one side of the pair.
func (f *FilterBank) Replace(old, new Route) {
	if f.next != nil {
		chain := f.chain(new.Net)
		f.emit(chain, chain, old, new, false)
	}
}

// Delete implements Stage.
func (f *FilterBank) Delete(r Route) {
	if f.next == nil {
		return
	}
	if r.Attrs = f.apply(f.chain(r.Net), r); r.Attrs != nil {
		f.next.Delete(r)
	}
}

// emit sends downstream what becomes of old under the chain was and of new
// under now. A pair that filters to the same route is still a Replace —
// upstream said it changed — unless skipSame is set.
func (f *FilterBank) emit(was, now []Filter, old, new Route, skipSame bool) {
	old.Attrs, new.Attrs = f.apply(was, old), f.apply(now, new)
	switch {
	case old.Attrs == nil && new.Attrs == nil:
	case old.Attrs == nil:
		f.addOne(new)
	case new.Attrs == nil:
		f.next.Delete(old)
	case !skipSame || !SameRoute(&old, &new):
		f.next.Replace(old, new)
	}
}

// Lookup implements Stage: upstream answers are passed through the chain
// so they match what was announced downstream.
func (f *FilterBank) Lookup(net netip.Prefix, r *Route) bool {
	if !f.lookupParent(net, r) {
		return false
	}
	r.Attrs = f.apply(f.chain(net), *r)
	return r.Attrs != nil
}

// walk passes the replay upstream and what it visits through the chain,
// leaving out what the chain drops.
func (f *FilterBank) walk(from Stage, fn func(Route) bool) {
	if w, ok := f.parent.(walker); ok {
		w.walk(from, func(r Route) bool {
			r.Attrs = f.apply(f.chain(r.Net), r)
			return r.Attrs == nil || fn(r)
		})
	}
}

// Refilter atomically replaces the filter chain and reconciles downstream
// with a background task (§5.1.2: "routing policy filters are changed by
// the operator and many routes need to be re-filtered and reevaluated").
// walk must iterate the upstream origin table (e.g. PeerIn.Walk). Until
// the task reaches a prefix walk visited, the prefix's routes, and its
// lookups, still go through the old chain, because that is what downstream
// holds of it; the task then reconciles it against upstream's current
// route. A reconciliation still under way completes before the chain is
// replaced again. The returned task completes when reconciliation is done.
func (f *FilterBank) Refilter(loop *eventloop.Loop, newFilters []Filter, walk func(func(Route) bool)) *eventloop.Task {
	if f.refilter != nil {
		f.reconcile(len(f.refilter.pending))
	}
	rf := &refilter{was: f.filters}
	walk(func(r Route) bool {
		rf.pending = append(rf.pending, r.Net)
		return true
	})
	slices.SortFunc(rf.pending, trie.ComparePrefix)
	f.filters, f.refilter = newFilters, rf
	return loop.AddTask("refilter("+f.name+")", func() bool {
		return f.refilter != rf || f.reconcile(deletionBatch)
	})
}

// reconcile moves up to n prefixes the reconciliation has not reached
// under the new chain and reports whether it is done. A prefix counts as
// reached before its change goes out: downstream looks back up through
// this bank while handling it.
func (f *FilterBank) reconcile(n int) bool {
	rf := f.refilter
	var cur Route
	for ; n > 0 && rf.next < len(rf.pending); n-- {
		net := rf.pending[rf.next]
		rf.next++
		if f.next != nil && f.lookupParent(net, &cur) {
			f.emit(rf.was, f.filters, cur, cur, true)
		}
	}
	if rf.next < len(rf.pending) {
		return false
	}
	f.refilter = nil
	return true
}

// Common default filters used when assembling peer pipelines.

// FilterDropIfNexthopEquals drops routes whose NEXT_HOP equals addr
// (e.g. our own address: RFC 4271 §9.1.2).
func FilterDropIfNexthopEquals(addr netip.Addr) Filter {
	return func(r *Route) *PathAttrs {
		if r.Attrs.NextHop == addr {
			return nil
		}
		return r.Attrs
	}
}

// rewriteOnce makes a filter of an attribute rewrite. Consecutive routes
// sharing one input set share one output set: the last (in → out) pair is
// consulted before anything is built, so a run, or a burst of withdrawals
// of one, costs one rewrite. Holding in keeps its address from being reused
// for another set.
func rewriteOnce(rewrite func(in *PathAttrs) *PathAttrs) Filter {
	var in, out *PathAttrs
	return func(r *Route) *PathAttrs {
		if r.Attrs != in {
			in, out = r.Attrs, rewrite(r.Attrs)
		}
		return out
	}
}

// FilterEBGPExport prepends the local AS, rewrites NEXT_HOP to the local
// peering address and strips LOCAL_PREF — the standard EBGP export
// transform. Only the leading AS segment is new; the rest of the path and
// the communities are the input's.
func FilterEBGPExport(localAS uint16, localAddr netip.Addr) Filter {
	return rewriteOnce(func(in *PathAttrs) *PathAttrs {
		a := *in
		a.ASPath = in.ASPath.Prepend(localAS)
		a.NextHop = localAddr
		a.HasLocalPref = false
		a.LocalPref = 0
		return &a
	})
}

// FilterIBGPExport ensures LOCAL_PREF is set (default 100) for routes sent
// to IBGP peers.
func FilterIBGPExport() Filter {
	return rewriteOnce(func(in *PathAttrs) *PathAttrs {
		if in.HasLocalPref {
			return in
		}
		a := *in
		a.HasLocalPref = true
		a.LocalPref = 100
		return &a
	})
}
