package bgp

import (
	"net/netip"
	"slices"

	"xorp/internal/core"
	"xorp/internal/telemetry"
	"xorp/internal/trie"
)

// Decision is the simple decision-process stage of Figure 5: stripped of
// nexthop resolution (done upstream) and fanout (done downstream), it only
// chooses which route wins. It has one input branch per peering and emits
// winner changes downstream.
//
// Alternative routes are not stored here: the decision process looks up
// alternatives via calls upstream through the pipeline (§5.1), so filter
// changes automatically re-evaluate correctly. It finds the prefix in its
// PeerIns' RIB-in and asks, in AddParent order, the other branches holding
// it, any with resolver ops queued (they answer for routes the PeerIn may
// have dropped) and any rooted elsewhere. A route its PeerIn marked sole
// has no other holder, so while no branch has ops queued or is rooted
// elsewhere there is nobody to ask, and the decision does not look.
type Decision struct {
	core.Base[Route]
	parents []branch
	rib     *ribIn // the first PeerIn's
	// foreign counts the branches not rooted at a PeerIn of rib, busy
	// those whose resolver has ops queued (each resolver keeps it); a sole
	// route needs no alternative only while both are 0.
	foreign, busy int
	// gets counts RIB-in lookups, for tests.
	gets int
	// answer is where each branch's Lookup answer lands: a local handed to
	// an interface method would be on the heap, one allocation per call.
	answer Route

	// tracer, when set, stamps StageDecision as winners and withdrawals
	// emit downstream (nil-safe; losers are never stamped).
	tracer *telemetry.Tracer
}

// branch is an input branch with its resolver and its PeerIn, if in d.rib.
type branch struct {
	core.Source[Route]
	in  *PeerIn
	res *NexthopResolver
}

// NewDecision returns an empty decision stage.
func NewDecision(name string) *Decision {
	return &Decision{Base: newBase(name)}
}

// AddParent attaches an input branch: the end of a fully plumbed pipeline.
func (d *Decision) AddParent(s core.Source[Route]) {
	b := branch{Source: s}
	for u := s; u != nil; u = u.Parent() {
		switch u := u.(type) {
		case *NexthopResolver:
			b.res = u
		case *PeerIn:
			if d.rib == nil {
				d.rib = u.rib
			}
			if u.rib == d.rib {
				b.in = u
			}
		}
	}
	if b.in == nil {
		d.foreign++
	}
	if b.res != nil {
		b.res.busy = &d.busy
		if len(b.res.queues) > 0 {
			d.busy++
		}
	}
	d.parents = append(d.parents, b)
	core.Join[Route](s, d)
}

// RemoveParent detaches a branch.
func (d *Decision) RemoveParent(s core.Source[Route]) {
	for i, p := range d.parents {
		if p.Source == s {
			if p.in == nil {
				d.foreign--
			}
			if p.res != nil {
				if p.res.busy = nil; len(p.res.queues) > 0 {
					d.busy--
				}
			}
			d.parents = append(d.parents[:i], d.parents[i+1:]...)
			core.Join[Route](s, nil)
			return
		}
	}
}

// mark asks who's branch, unless it sent skip: it answers that or nothing.
func (d *Decision) mark(who *holder, skip *Route) {
	if in := who.in; in != nil && (skip == nil || in.peer != skip.Src) {
		in.ask = true
	}
}

// bestExcluding returns the best usable route for net among all branches,
// and whether there is one, skipping any branch answer identical to skip
// (the route whose change is being processed). A sole skip is net's only
// route when every branch answers only for what the RIB-in holds.
func (d *Decision) bestExcluding(net netip.Prefix, skip *Route) (best Route, ok bool) {
	if skip != nil && skip.sole && d.foreign == 0 && d.busy == 0 {
		return best, false
	}
	if d.rib != nil {
		d.gets++
		if s, held := d.rib.tbl.Get(net); held {
			d.mark(s.who, skip)
			for _, h := range s.who.list {
				d.mark(h.who, skip)
			}
		}
	}
	r := &d.answer
	for i := range d.parents {
		p := &d.parents[i]
		if p.in != nil && !p.in.ask && (p.res == nil || len(p.res.queues) == 0) {
			continue
		} else if p.in != nil {
			p.in.ask = false
		}
		if !p.Lookup(net, r) || !r.Resolvable {
			continue
		}
		if skip != nil && SameRoute(r, skip) {
			continue
		}
		if !ok || r.Better(&best) {
			best, ok = *r, true
		}
	}
	best.sole = false
	return best, ok
}

// winner picks between a branch's own route and alt, the best of the other
// branches, if there is one: unresolvable routes may flow through the
// pipeline but never win, and so never reach the forwarding plane.
func winner(own, alt Route, hasAlt bool) (Route, bool) {
	if !own.Resolvable || hasAlt && alt.Better(&own) {
		return alt, hasAlt
	}
	return own, true
}

// Add implements Stage: a branch announces routes it did not have. The
// winner is computed once per route against the other branches, losers
// are skipped without materializing anything downstream, and consecutive
// fresh winners stay one run. A winner that displaces a previous best
// cuts the run and becomes a Replace at its position. Nothing the
// decision emits carries a sole mark.
func (d *Decision) Add(run []Route) {
	em := d.Emitter()
	for i := range run {
		r := &run[i]
		prevBest, displaces := d.bestExcluding(r.Net, r)
		if !r.Resolvable || displaces && !r.Better(&prevBest) {
			continue // loser: never materialized downstream
		}
		d.stamp(r.Net, false)
		w := *r
		w.sole = false
		if displaces {
			em.Replace(prevBest, w)
		} else {
			em.Add(w)
		}
	}
	d.Release(&em)
}

// Replace implements Stage: a branch replaces its route for a net.
func (d *Decision) Replace(old, new Route) {
	alt, hasAlt := d.bestExcluding(new.Net, &new) // best among the other branches
	prev, hadPrev := winner(old, alt, hasAlt)
	next, hasNext := winner(new, alt, hasAlt)
	em := d.Emitter()
	d.emitTransition(prev, hadPrev, next, hasNext, &em)
	d.Release(&em)
}

// Delete implements Stage: a branch withdraws a run of its routes. The
// prefixes the withdrawals leave without a winner go on as one run.
func (d *Decision) Delete(run []Route) {
	em := d.Emitter()
	for i := range run {
		old := &run[i]
		alt, hasAlt := d.bestExcluding(old.Net, old)
		prev, hadPrev := winner(*old, alt, hasAlt)
		d.emitTransition(prev, hadPrev, alt, hasAlt, &em)
	}
	d.Release(&em)
}

// emitTransition emits the downstream messages for a winner change.
func (d *Decision) emitTransition(prev Route, hadPrev bool, next Route, hasNext bool, em *core.Emitter[Route]) {
	prev.sole, next.sole = false, false
	switch {
	case !hasNext && hadPrev:
		d.stamp(prev.Net, true)
		em.Delete(prev)
	case !hasNext || hadPrev && SameRoute(&prev, &next):
	case !hadPrev:
		d.stamp(next.Net, false)
		em.Add(next)
	default:
		d.stamp(next.Net, false)
		em.Replace(prev, next)
	}
}

// stamp records a winner, or with del a withdrawal, leaving the stage.
func (d *Decision) stamp(net netip.Prefix, del bool) {
	if d.tracer.On(telemetry.StageDecision) {
		d.tracer.StampOp(telemetry.StageDecision, net, del)
	}
}

// Lookup implements core.Table: the best route among all branches.
func (d *Decision) Lookup(net netip.Prefix, r *Route) (ok bool) {
	*r, ok = d.bestExcluding(net, nil)
	return ok
}

// walk visits the decision table in prefix order: the best route of every
// prefix a branch may answer for, one bestExcluding each. Those are the
// RIB-in's prefixes, plus any only a resolver's queue holds (a withdrawal
// queued behind an unresolved op) or only a branch rooted elsewhere does.
func (d *Decision) walk(_ Stage, fn func(Route) bool) {
	var extra []netip.Prefix
	for i := range d.parents {
		p := &d.parents[i]
		if p.res != nil {
			for net := range p.res.queues {
				extra = append(extra, net)
			}
		}
		if p.in != nil {
			continue
		}
		for s := p.Source; s != nil; s = s.Parent() {
			if h, ok := s.(routeHolder); ok {
				h.Walk(func(r Route) bool {
					extra = append(extra, r.Net)
					return true
				})
			}
		}
	}
	slices.SortFunc(extra, trie.ComparePrefix)
	extra = slices.Compact(extra)
	stop := false
	visit := func(net netip.Prefix) bool {
		best, ok := d.bestExcluding(net, nil)
		stop = ok && !fn(best)
		return !stop
	}
	if d.rib != nil { // the two ordered lists, merged
		d.rib.tbl.Walk(func(net netip.Prefix, _ ribSlot) bool {
			for ; len(extra) > 0 && trie.ComparePrefix(extra[0], net) < 0; extra = extra[1:] {
				if !visit(extra[0]) {
					return false
				}
			}
			if len(extra) > 0 && extra[0] == net {
				extra = extra[1:]
			}
			return visit(net)
		})
	}
	for ; !stop && len(extra) > 0; extra = extra[1:] {
		visit(extra[0])
	}
}
