package bgp

import "net/netip"

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
}

// NewFilterBank returns an empty (pass-everything) filter bank.
func NewFilterBank(name string, filters ...Filter) *FilterBank {
	return &FilterBank{base: base{name: name}, filters: filters}
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
		a := f.apply(r)
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
// one side of the pair. A pair that filters to the same route is still a
// Replace: upstream said it changed.
func (f *FilterBank) Replace(old, new Route) {
	if f.next == nil {
		return
	}
	old.Attrs, new.Attrs = f.apply(old), f.apply(new)
	switch {
	case old.Attrs == nil && new.Attrs == nil:
	case old.Attrs == nil:
		f.addOne(new)
	case new.Attrs == nil:
		f.next.Delete(old)
	default:
		f.next.Replace(old, new)
	}
}

// Delete implements Stage.
func (f *FilterBank) Delete(r Route) {
	if f.next == nil {
		return
	}
	if r.Attrs = f.apply(r); r.Attrs != nil {
		f.next.Delete(r)
	}
}

// Lookup implements Stage: upstream answers are passed through the chain
// so they match what was announced downstream.
func (f *FilterBank) Lookup(net netip.Prefix, r *Route) bool {
	if !f.lookupParent(net, r) {
		return false
	}
	r.Attrs = f.apply(*r)
	return r.Attrs != nil
}

// walk passes the replay upstream and what it visits through the chain,
// leaving out what the chain drops.
func (f *FilterBank) walk(from Stage, fn func(Route) bool) {
	if w, ok := f.parent.(walker); ok {
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
