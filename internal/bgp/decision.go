package bgp

import (
	"net/netip"

	"xorp/internal/telemetry"
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
// have dropped) and any rooted elsewhere.
type Decision struct {
	base
	parents []branch
	rib     *ribIn // the first PeerIn's
	// answer is where each branch's Lookup answer lands: a local handed to
	// an interface method would be on the heap, one allocation per call.
	answer Route

	// tracer, when set, stamps StageDecision as winners and withdrawals
	// emit downstream (nil-safe; losers are never stamped).
	tracer *telemetry.Tracer
}

// branch is an input branch with its resolver and its PeerIn, if in d.rib.
type branch struct {
	Stage
	in  *PeerIn
	res *NexthopResolver
}

// NewDecision returns an empty decision stage.
func NewDecision(name string) *Decision {
	return &Decision{base: base{name: name}}
}

// AddParent attaches an input branch: the end of a fully plumbed pipeline.
func (d *Decision) AddParent(s Stage) {
	b := branch{Stage: s}
	for u := s; u != nil; u = u.parentStage() {
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
	d.parents = append(d.parents, b)
	s.setDownstream(d)
}

// RemoveParent detaches a branch.
func (d *Decision) RemoveParent(s Stage) {
	for i, p := range d.parents {
		if p.Stage == s {
			d.parents = append(d.parents[:i], d.parents[i+1:]...)
			s.setDownstream(nil)
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
// (the route whose change is being processed).
func (d *Decision) bestExcluding(net netip.Prefix, skip *Route) (best Route, ok bool) {
	if d.rib != nil {
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
// cuts the run and becomes a Replace at its position.
func (d *Decision) Add(run []Route) {
	if d.next == nil {
		return
	}
	for i := range run {
		r := &run[i]
		prevBest, displaces := d.bestExcluding(r.Net, r)
		if !r.Resolvable || displaces && !r.Better(&prevBest) {
			continue // loser: never materialized downstream
		}
		if d.tracer.On(telemetry.StageDecision) {
			d.tracer.Stamp(telemetry.StageDecision, r.Net)
		}
		if !displaces {
			d.run = append(d.run, *r)
			continue
		}
		d.flush()
		d.next.Replace(prevBest, *r)
	}
	d.flush()
}

// Replace implements Stage: a branch replaces its route for a net.
func (d *Decision) Replace(old, new Route) {
	alt, hasAlt := d.bestExcluding(new.Net, &new) // best among the other branches
	prev, hadPrev := winner(old, alt, hasAlt)
	next, hasNext := winner(new, alt, hasAlt)
	d.emitTransition(prev, hadPrev, next, hasNext)
}

// Delete implements Stage: a branch withdraws its route.
func (d *Decision) Delete(old Route) {
	alt, hasAlt := d.bestExcluding(old.Net, &old)
	prev, hadPrev := winner(old, alt, hasAlt)
	d.emitTransition(prev, hadPrev, alt, hasAlt)
}

// emitTransition sends the downstream messages for a winner change.
func (d *Decision) emitTransition(prev Route, hadPrev bool, next Route, hasNext bool) {
	if d.next == nil {
		return
	}
	switch {
	case !hadPrev && !hasNext:
	case !hadPrev:
		if d.tracer.On(telemetry.StageDecision) {
			d.tracer.Stamp(telemetry.StageDecision, next.Net)
		}
		d.addOne(next)
	case !hasNext:
		if d.tracer.On(telemetry.StageDecision) {
			d.tracer.StampOp(telemetry.StageDecision, prev.Net, true)
		}
		d.next.Delete(prev)
	case SameRoute(&prev, &next):
	default:
		if d.tracer.On(telemetry.StageDecision) {
			d.tracer.Stamp(telemetry.StageDecision, next.Net)
		}
		d.next.Replace(prev, next)
	}
}

// Lookup implements Stage: the best route among all branches.
func (d *Decision) Lookup(net netip.Prefix, r *Route) (ok bool) {
	*r, ok = d.bestExcluding(net, nil)
	return ok
}
