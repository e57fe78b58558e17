package bgp

import (
	"net/netip"

	"xorp/internal/core"
	"xorp/internal/telemetry"
)

// Stage is one element of the BGP pipeline (§5.1). Routes flow downstream
// as Add/Replace/Delete messages; Lookup flows upstream. Stages share this
// API and are indifferent to their surroundings, so new stages can be
// plumbed in without disturbing their neighbours.
//
// Consistency rules (§5.1): a Delete must match a previous Add; Lookup
// answers must agree with the message stream already sent downstream.
//
// A route is a value (see Route): a message carries its own copy, and a
// Lookup answer is written into the Route the asker brings, so nobody owns
// anybody's object and what a stage is handed or answered is its own to
// keep. (Lookup fills the asker's Route instead of returning one because it
// is the decision process's inner loop — each branch holding a prefix is
// asked about it, for every change to it — and a 56-byte struct result is
// copied through memory at each stage on the way back.)
//
// The add message is a run: 1..n routes sharing one *PathAttrs pointer
// (interned attrs) and one Src, with distinct prefixes none of which the
// sender has announced. A run is read-only and valid only for the call —
// senders reuse their buffers, so a stage that keeps one past the call
// (only the Fanout does) copies it. A stage may re-cut a run into shorter
// ones, with Replaces in between where per-route semantics demand it, but
// never reorders it.
type Stage interface {
	// Name identifies the stage for diagnostics.
	Name() string
	// Add announces a run of new routes.
	Add(run []Route)
	// Replace substitutes the announced route for a prefix.
	Replace(old, new Route)
	// Delete withdraws the announced route for a prefix.
	Delete(r Route)
	// Lookup writes this stage's announced route for net (asking upstream
	// as needed) into r, which is the asker's, and reports whether there
	// is one; without one r holds nothing of use.
	Lookup(net netip.Prefix, r *Route) bool

	// setDownstream / setParent plumb the stage network; downstream and
	// parent expose the links for re-plumbing (dynamic stages, §5.1.2).
	setDownstream(s Stage)
	downstream() Stage
	setParent(s Stage)
	parentStage() Stage
}

// walker is a stage of an output branch that can replay its table down the
// branch: the way a session bounce is resynced, flowing upstream as Lookup
// does (GroupOut → FilterBank → Fanout → Decision).
type walker interface {
	// walk visits, in prefix order, every route this stage has announced
	// to the branch holding from, once that branch has been sent all it
	// is owed.
	walk(from Stage, fn func(Route) bool)
}

// base provides the plumbing shared by stage implementations.
type base struct {
	name   string
	next   Stage
	parent Stage
	// run collects the run being built for next; it is empty between
	// calls and its storage is reused, which is why receivers may not keep
	// a run.
	run []Route
}

// flush sends the collected run downstream.
func (b *base) flush() {
	if len(b.run) > 0 {
		b.next.Add(b.run)
		b.run = b.run[:0]
	}
}

// addOne sends r downstream as a run of one.
func (b *base) addOne(r Route) {
	b.run = append(b.run, r)
	b.flush()
}

func (b *base) Name() string          { return b.name }
func (b *base) setDownstream(s Stage) { b.next = s }
func (b *base) downstream() Stage     { return b.next }
func (b *base) setParent(s Stage)     { b.parent = s }
func (b *base) parentStage() Stage    { return b.parent }

// lookupParent forwards a lookup upstream, the default for stages that
// hold no routes of their own.
func (b *base) lookupParent(net netip.Prefix, r *Route) bool {
	return b.parent != nil && b.parent.Lookup(net, r)
}

// Plumb links stages left-to-right: Plumb(a, b, c) wires a → b → c and
// the corresponding upstream (lookup) pointers.
func Plumb(stages ...Stage) {
	for i := 0; i+1 < len(stages); i++ {
		stages[i].setDownstream(stages[i+1])
		stages[i+1].setParent(stages[i])
	}
}

// Splice inserts s between parent and parent's current downstream.
func Splice(parent, s Stage) {
	old := parent.downstream()
	parent.setDownstream(s)
	s.setParent(parent)
	s.setDownstream(old)
	if old != nil {
		old.setParent(s)
	}
}

// Unsplice removes s from the chain, reconnecting its neighbours.
func Unsplice(s Stage) {
	p, n := s.parentStage(), s.downstream()
	if p != nil {
		p.setDownstream(n)
	}
	if n != nil {
		n.setParent(p)
	}
	s.setParent(nil)
	s.setDownstream(nil)
}

// CacheStage is the consistency-checking cache stage of §5.1: it shadows
// the message stream in its own table, verifies the two consistency rules,
// and answers lookups locally. "While not intended for normal production
// use, this stage could aid with debugging if a consistency error is
// suspected" — all integration tests run with it plumbed in.
type CacheStage struct {
	base
	chk *core.Checker[Route]
	// Panic indicates a violation should panic (tests) rather than only be
	// counted.
	Panic bool
}

// NewCacheStage returns a cache stage labeled name, counting each
// violation in violations.
func NewCacheStage(name string, violations *telemetry.Counter) *CacheStage {
	return &CacheStage{base: base{name: name}, chk: core.NewChecker[Route](name, violations)}
}

func (c *CacheStage) check(v *core.ConsistencyError) {
	if v != nil && c.Panic {
		panic(v.Error())
	}
}

// Add implements Stage: every route in the run is checked against the
// consistency rules individually, then the run is forwarded intact.
func (c *CacheStage) Add(run []Route) {
	for _, r := range run {
		c.check(c.chk.Add(r.Net, r))
	}
	if c.next != nil {
		c.next.Add(run)
	}
}

// Replace implements Stage.
func (c *CacheStage) Replace(old, new Route) {
	c.check(c.chk.Replace(new.Net, new))
	if c.next != nil {
		c.next.Replace(old, new)
	}
}

// Delete implements Stage.
func (c *CacheStage) Delete(r Route) {
	c.check(c.chk.Delete(r.Net))
	if c.next != nil {
		c.next.Delete(r)
	}
}

// Lookup implements Stage: the cache answers from its shadow table.
func (c *CacheStage) Lookup(net netip.Prefix, r *Route) (ok bool) {
	*r, ok = c.chk.Lookup(net)
	return ok
}
