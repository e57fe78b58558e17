package bgp

import (
	"net/netip"

	"xorp/internal/eventloop"
)

// Filter transforms a route: it returns the route unchanged, a modified
// clone, or nil to drop it. Filters must be deterministic so lookups
// replay to the same answers the message stream produced (rule 2).
type Filter func(*Route) *Route

// FilterBank is a filter-bank stage (§5.1): an ordered chain of filters
// applied to every route flowing downstream and to every lookup answer
// flowing back up. The policy framework (§8.3) and the default
// import/export transforms are expressed as filters.
type FilterBank struct {
	base
	filters []Filter
}

// NewFilterBank returns an empty (pass-everything) filter bank.
func NewFilterBank(name string, filters ...Filter) *FilterBank {
	return &FilterBank{base: base{name: name}, filters: filters}
}

// apply runs the chain; nil in, nil out.
func (f *FilterBank) apply(r *Route) *Route {
	for _, flt := range f.filters {
		if r == nil {
			return nil
		}
		r = flt(r)
	}
	return r
}

// Add implements Stage. Filters may clone attrs per route, which would
// splinter the run's shared attribute pointer; filters are deterministic,
// so two run members with pointer-identical input attrs produce deep-equal
// output attrs — the bank memoizes the last (in, out) attrs pair and
// substitutes the canonical output pointer, keeping runs shareable
// downstream. If a filter's rewrite genuinely depends on the prefix, the
// memo misses and the run is cut at the divergence point.
func (f *FilterBank) Add(run []*Route) {
	if f.next == nil {
		return
	}
	// Results are collected in f.run, never written back into run (the
	// fanout hands the same run to every branch), and only once a filter
	// drops or rewrites a route: an untouched run is forwarded as it came.
	var lastIn, lastOut *PathAttrs
	out, changed := f.run, false
	for i, r := range run {
		fr := f.apply(r)
		if fr != nil && fr.Attrs != r.Attrs {
			if lastIn == r.Attrs && fr.Attrs.Equal(lastOut) {
				fr.Attrs = lastOut
			} else {
				lastIn, lastOut = r.Attrs, fr.Attrs
			}
		}
		if !changed {
			if fr == r {
				continue
			}
			changed = true
			out = append(out, run[:i]...)
		}
		if fr != nil {
			out = append(out, fr)
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
	clear(out)
	f.run = out[:0]
}

// Replace implements Stage, degrading to Add/Delete when filtering drops
// one side of the pair.
func (f *FilterBank) Replace(old, new *Route) {
	fo, fn := f.apply(old), f.apply(new)
	if f.next == nil {
		return
	}
	switch {
	case fo == nil && fn == nil:
	case fo == nil:
		f.addOne(fn)
	case fn == nil:
		f.next.Delete(fo)
	default:
		f.next.Replace(fo, fn)
	}
}

// Delete implements Stage.
func (f *FilterBank) Delete(r *Route) {
	if out := f.apply(r); out != nil && f.next != nil {
		f.next.Delete(out)
	}
}

// Lookup implements Stage: upstream answers are passed through the chain
// so they match what was announced downstream.
func (f *FilterBank) Lookup(net netip.Prefix) *Route {
	return f.apply(f.lookupParent(net))
}

// Refilter atomically replaces the filter chain and reconciles downstream
// with a background task (§5.1.2: "routing policy filters are changed by
// the operator and many routes need to be re-filtered and reevaluated").
// walk must iterate the upstream origin table (e.g. PeerIn.Walk). The
// returned task completes when reconciliation is done.
func (f *FilterBank) Refilter(loop *eventloop.Loop, newFilters []Filter, walk func(func(*Route) bool)) *eventloop.Task {
	oldFilters := f.filters
	f.filters = newFilters
	applyWith := func(filters []Filter, r *Route) *Route {
		for _, flt := range filters {
			if r == nil {
				return nil
			}
			r = flt(r)
		}
		return r
	}
	// Snapshot the upstream routes; reconcile in slices.
	var pending []*Route
	walk(func(r *Route) bool {
		pending = append(pending, r)
		return true
	})
	i := 0
	return loop.AddTask("refilter("+f.name+")", func() bool {
		for n := 0; n < deletionBatch && i < len(pending); n++ {
			r := pending[i]
			i++
			fo := applyWith(oldFilters, r)
			fn := applyWith(newFilters, r)
			if f.next == nil {
				continue
			}
			switch {
			case fo == nil && fn == nil:
			case fo == nil:
				f.addOne(fn)
			case fn == nil:
				f.next.Delete(fo)
			case !SameRoute(fo, fn):
				f.next.Replace(fo, fn)
			}
		}
		return i >= len(pending)
	})
}

// Common default filters used when assembling peer pipelines.

// FilterDropIfNexthopEquals drops routes whose NEXT_HOP equals addr
// (e.g. our own address: RFC 4271 §9.1.2).
func FilterDropIfNexthopEquals(addr netip.Addr) Filter {
	return func(r *Route) *Route {
		if r.Attrs.NextHop == addr {
			return nil
		}
		return r
	}
}

// FilterEBGPExport prepends the local AS, rewrites NEXT_HOP to the local
// peering address and strips LOCAL_PREF — the standard EBGP export
// transform.
func FilterEBGPExport(localAS uint16, localAddr netip.Addr) Filter {
	return func(r *Route) *Route {
		out := r.Clone()
		a := r.Attrs.Clone()
		a.ASPath = a.ASPath.Prepend(localAS)
		a.NextHop = localAddr
		a.HasLocalPref = false
		a.LocalPref = 0
		out.Attrs = a
		return out
	}
}

// FilterIBGPExport ensures LOCAL_PREF is set (default 100) for routes sent
// to IBGP peers.
func FilterIBGPExport() Filter {
	return func(r *Route) *Route {
		if r.Attrs.HasLocalPref {
			return r
		}
		out := r.Clone()
		a := r.Attrs.Clone()
		a.HasLocalPref = true
		a.LocalPref = 100
		out.Attrs = a
		return out
	}
}
