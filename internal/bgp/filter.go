package bgp

import (
	"net/netip"

	"xorp/internal/core"
)

// Filter judges a route by its attribute set: Apply returns the route's own
// set to pass it, a rewritten set, or nil to drop it. Prefix and source are
// not a filter's to change; the input set is immutable, so a rewrite is a
// new set, which may share what it leaves alone with the input. The route a
// filter is handed is valid only for the call. Filters must be
// deterministic so lookups replay to the same answers the message stream
// produced (rule 2). A filter may keep state between calls (the export
// transforms remember their last rewrite), so a Filter value belongs to
// one bank.
//
// Drops reports whether Apply can ever return nil. A filter that cannot is
// a transform, and a withdrawal does not need it (FilterBank).
type Filter interface {
	Apply(r *Route) *PathAttrs
	Drops() bool
}

// FilterFunc adapts a function to a Filter that may drop, as
// http.HandlerFunc adapts one to a Handler.
type FilterFunc func(*Route) *PathAttrs

// Apply implements Filter.
func (f FilterFunc) Apply(r *Route) *PathAttrs { return f(r) }

// Drops implements Filter: a function may drop.
func (FilterFunc) Drops() bool { return true }

// FilterBank is a filter-bank stage (§5.1): an ordered chain of filters
// applied to every route flowing downstream and to every lookup answer
// flowing back up. The policy framework (§8.3) and the default
// import/export transforms are expressed as filters.
//
// A route the chain rewrote goes on as the same value under the new set.
// A withdrawal — a Delete, or a Replace's old side — needs only the chain's
// verdict, so it runs the filters up to the last that can drop and goes on
// under what they made of it: the transforms after them are not run, and a
// chain of transforms alone, every export bank the Process builds, passes
// a withdrawal run on untouched. Nothing below an export bank reads a
// withdrawn route's set (the group withdraws by prefix, a cache stage
// deletes by prefix); Lookup and walk answers come through the whole chain.
type FilterBank struct {
	core.Base[Route]
	filters []Filter
	// view is the route the filter being run is shown: the bank's own copy,
	// under the answer of the filter before it.
	view Route
}

// NewFilterBank returns a filter bank running filters in order; with none
// it passes everything.
func NewFilterBank(name string, filters ...Filter) *FilterBank {
	return &FilterBank{Base: newBase(name), filters: filters}
}

// judges returns how many filters a withdrawal runs: the chain up to its
// last filter that can drop.
func (f *FilterBank) judges() int {
	n := len(f.filters)
	for n > 0 && !f.filters[n-1].Drops() {
		n--
	}
	return n
}

// apply runs the first n filters of the chain over r and returns what they
// make of r's attribute set: r's own when none rewrote it, nil when one
// dropped it, else the last rewrite. Later filters see the route under the
// earlier ones' answer.
func (f *FilterBank) apply(r Route, n int) *PathAttrs {
	if n == 0 {
		return r.Attrs
	}
	f.view = r
	for _, flt := range f.filters[:n] {
		if f.view.Attrs = flt.Apply(&f.view); f.view.Attrs == nil {
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
func (f *FilterBank) Add(run []Route) { f.filter(core.OpAdd, run, len(f.filters)) }

// Delete implements Stage: the run is judged, not rewritten (FilterBank).
func (f *FilterBank) Delete(run []Route) {
	if n := f.judges(); n > 0 {
		f.filter(core.OpDelete, run, n)
	} else {
		f.Pass(core.OpDelete, run)
	}
}

// filter emits what the first n filters make of each route of a run of op.
// A run they leave as it came goes on as it came; otherwise the results go
// through the emitter, never back into run (the fanout hands the same run
// to every branch).
func (f *FilterBank) filter(op core.Op, run []Route, n int) {
	var lastIn, lastOut *PathAttrs
	em, changed := f.Emitter(), false
	for i, r := range run {
		a := f.apply(r, n)
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
// Replace: upstream said it changed. The old side is only judged, as a
// Delete is.
func (f *FilterBank) Replace(old, new Route) {
	old.Attrs, new.Attrs = f.apply(old, f.judges()), f.apply(new, len(f.filters))
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
	r.Attrs = f.apply(*r, len(f.filters))
	return r.Attrs != nil
}

// walk passes the replay upstream and what it visits through the chain,
// leaving out what the chain drops.
func (f *FilterBank) walk(from Stage, fn func(Route) bool) {
	if w, ok := f.Parent().(walker); ok {
		w.walk(from, func(r Route) bool {
			r.Attrs = f.apply(r, len(f.filters))
			return r.Attrs == nil || fn(r)
		})
	}
}

// rewriter is a transform: a filter that rewrites every route it is shown
// and drops none. Consecutive routes sharing one input set share one output
// set: the last (in → out) pair is consulted before anything is built, so a
// run costs one rewrite. Holding in keeps its address from being reused for
// another set.
type rewriter struct {
	rewrite func(in *PathAttrs) *PathAttrs
	in, out *PathAttrs
}

// Apply implements Filter.
func (w *rewriter) Apply(r *Route) *PathAttrs {
	if r.Attrs != w.in {
		w.in, w.out = r.Attrs, w.rewrite(r.Attrs)
	}
	return w.out
}

// Drops implements Filter: a transform never drops.
func (*rewriter) Drops() bool { return false }

// FilterEBGPExport prepends the local AS, rewrites NEXT_HOP to the local
// peering address and strips LOCAL_PREF — the standard EBGP export
// transform. Only the leading AS segment is new; the rest of the path and
// the communities are the input's. The rewrite is one attribute block,
// leading segment included, when that segment fits it.
func FilterEBGPExport(localAS uint16, localAddr netip.Addr) Filter {
	return &rewriter{rewrite: func(in *PathAttrs) *PathAttrs {
		b := &attrBlock{attrs: *in}
		a := &b.attrs
		a.ASPath = b.prepend(in.ASPath, localAS)
		a.NextHop = localAddr
		a.HasLocalPref = false
		a.LocalPref = 0
		return a
	}}
}

// FilterIBGPExport ensures LOCAL_PREF is set (default 100) for routes sent
// to IBGP peers.
func FilterIBGPExport() Filter {
	return &rewriter{rewrite: func(in *PathAttrs) *PathAttrs {
		if in.HasLocalPref {
			return in
		}
		a := *in
		a.HasLocalPref = true
		a.LocalPref = 100
		return &a
	}}
}
