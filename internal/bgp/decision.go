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
// changes automatically re-evaluate correctly.
type Decision struct {
	base
	parents []Stage

	// tracer, when set and enabled, stamps StageDecision as winners emit
	// downstream (nil-safe; losers are never stamped).
	tracer *telemetry.Tracer
}

// NewDecision returns an empty decision stage.
func NewDecision(name string) *Decision {
	return &Decision{base: base{name: name}}
}

// AddParent attaches an input branch (the end of a peering's pipeline).
func (d *Decision) AddParent(s Stage) {
	d.parents = append(d.parents, s)
	s.setDownstream(d)
}

// RemoveParent detaches a branch.
func (d *Decision) RemoveParent(s Stage) {
	for i, p := range d.parents {
		if p == s {
			d.parents = append(d.parents[:i], d.parents[i+1:]...)
			s.setDownstream(nil)
			return
		}
	}
}

// bestExcluding returns the best route for net among all branches,
// skipping any branch answer identical to skip (the route whose change is
// being processed).
func (d *Decision) bestExcluding(net netip.Prefix, skip *Route) *Route {
	var best *Route
	for _, p := range d.parents {
		r := p.Lookup(net)
		if r == nil || !r.Resolvable {
			continue
		}
		if skip != nil && SameRoute(r, skip) {
			continue
		}
		if r.Better(best) {
			best = r
		}
	}
	return best
}

// usable reports whether a route may win (unresolvable routes may flow
// through the pipeline but never to the forwarding plane).
func usable(r *Route) bool { return r != nil && r.Resolvable }

// Add implements Stage: a branch announces routes it did not have. The
// winner is computed once per route against the other branches, losers
// are skipped without materializing anything downstream, and consecutive
// fresh winners stay one run. A winner that displaces a previous best
// cuts the run and becomes a Replace at its position.
func (d *Decision) Add(run []*Route) {
	if d.next == nil {
		return
	}
	for _, r := range run {
		prevBest := d.bestExcluding(r.Net, r)
		if !usable(r) || !r.Better(prevBest) {
			continue // loser: never materialized downstream
		}
		if d.tracer.Enabled() {
			d.tracer.Stamp(telemetry.StageDecision, r.Net)
		}
		if prevBest == nil {
			d.run = append(d.run, r)
			continue
		}
		d.flush()
		d.next.Replace(prevBest, r)
	}
	d.flush()
}

// Replace implements Stage: a branch replaces its route for a net.
func (d *Decision) Replace(old, new *Route) {
	alt := d.bestExcluding(new.Net, new) // best among the other branches
	prevWinner := old
	if !usable(old) || (alt != nil && alt.Better(old)) {
		prevWinner = alt
	}
	newWinner := new
	if !usable(new) || (alt != nil && alt.Better(new)) {
		newWinner = alt
	}
	d.emitTransition(old.Net, prevWinner, newWinner)
}

// Delete implements Stage: a branch withdraws its route.
func (d *Decision) Delete(old *Route) {
	alt := d.bestExcluding(old.Net, old)
	prevWinner := old
	if !usable(old) || (alt != nil && alt.Better(old)) {
		prevWinner = alt
	}
	d.emitTransition(old.Net, prevWinner, alt)
}

// emitTransition sends the downstream messages for a winner change.
func (d *Decision) emitTransition(net netip.Prefix, prev, next *Route) {
	if !usable(prev) {
		prev = nil
	}
	if !usable(next) {
		next = nil
	}
	if d.next == nil {
		return
	}
	switch {
	case prev == nil && next == nil:
	case prev == nil:
		if d.tracer.Enabled() {
			d.tracer.Stamp(telemetry.StageDecision, next.Net)
		}
		d.addOne(next)
	case next == nil:
		d.next.Delete(prev)
	case SameRoute(prev, next):
	default:
		if d.tracer.Enabled() {
			d.tracer.Stamp(telemetry.StageDecision, next.Net)
		}
		d.next.Replace(prev, next)
	}
}

// Lookup implements Stage: the best route among all branches.
func (d *Decision) Lookup(net netip.Prefix) *Route {
	return d.bestExcluding(net, nil)
}
