package bgp

import (
	"net/netip"

	"xorp/internal/core"
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
	core.Base[Route]
	filters []Filter
	// view is the route the filter being run is shown: the bank's own copy,
	// under the answer of the filter before it.
	view Route
}

// NewFilterBank returns an empty (pass-everything) filter bank.
func NewFilterBank(name string, filters ...Filter) *FilterBank {
	return &FilterBank{Base: newBase(name), filters: filters}
}

// apply runs the chain over r and returns what it makes of r's attribute
// set: r's own when no filter rewrote it, nil when one dropped it, else the
// last rewrite. Later filters see the route under the earlier ones' answer.
func (f *FilterBank) apply(r Route) *PathAttrs {
	if len(f.filters) == 0 {
		return r.Attrs
	}
	f.view = r
	for _, flt := range f.filters {
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
// memo misses and the emitter cuts the run at the divergence point.
func (f *FilterBank) Add(run []Route) { f.filter(core.OpAdd, run) }

// Delete implements Stage, like Add.
func (f *FilterBank) Delete(run []Route) { f.filter(core.OpDelete, run) }

// filter emits what the chain makes of each route of a run of op. A run
// the chain leaves as it came goes on as it came; otherwise the results go
// through the emitter, never back into run (the fanout hands the same run
// to every branch).
func (f *FilterBank) filter(op core.Op, run []Route) {
	var lastIn, lastOut *PathAttrs
	em, changed := f.Emitter(), false
	for i, r := range run {
		a := f.apply(r)
		if a != nil && a != r.Attrs {
			if lastIn == r.Attrs && a.Equal(lastOut) {
				a = lastOut
			} else {
				lastIn, lastOut = r.Attrs, a
			}
		}
		if !changed && a == r.Attrs {
			continue
		}
		if !changed {
			changed = true
			for _, r := range run[:i] {
				em.Push(op, r)
			}
		}
		if r.Attrs = a; a != nil {
			em.Push(op, r)
		}
	}
	f.Release(&em)
	if !changed {
		f.Pass(op, run)
	}
}

// Replace implements Stage, degrading to Add/Delete when filtering drops
// one side of the pair. A pair that filters to the same route is still a
// Replace: upstream said it changed.
func (f *FilterBank) Replace(old, new Route) {
	old.Attrs, new.Attrs = f.apply(old), f.apply(new)
	em := f.Emitter()
	switch {
	case old.Attrs == nil && new.Attrs == nil:
	case old.Attrs == nil:
		em.Add(new)
	case new.Attrs == nil:
		em.Delete(old)
	default:
		em.Replace(old, new)
	}
	f.Release(&em)
}

// Lookup implements core.Table: upstream answers are passed through the
// chain so they match what was announced downstream.
func (f *FilterBank) Lookup(net netip.Prefix, r *Route) bool {
	if !f.LookupParent(net, r) {
		return false
	}
	r.Attrs = f.apply(*r)
	return r.Attrs != nil
}

// walk passes the replay upstream and what it visits through the chain,
// leaving out what the chain drops.
func (f *FilterBank) walk(from Stage, fn func(Route) bool) {
	if w, ok := f.Parent().(walker); ok {
		w.walk(from, func(r Route) bool {
			r.Attrs = f.apply(r)
			return r.Attrs == nil || fn(r)
		})
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
// the communities are the input's. The rewrite is one attribute block,
// leading segment included, when that segment fits it.
func FilterEBGPExport(localAS uint16, localAddr netip.Addr) Filter {
	return rewriteOnce(func(in *PathAttrs) *PathAttrs {
		b := &attrBlock{attrs: *in}
		a := &b.attrs
		a.ASPath = b.prepend(in.ASPath, localAS)
		a.NextHop = localAddr
		a.HasLocalPref = false
		a.LocalPref = 0
		return a
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
