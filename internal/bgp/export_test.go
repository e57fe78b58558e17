package bgp

import (
	"fmt"
	"net/netip"

	"xorp/internal/core"
)

// Prepend is the EBGP export rewrite's prepend, built in a block of its own.
func (p ASPath) Prepend(as uint16) ASPath { return new(attrBlock).prepend(p, as) }

// WalkAnnounced visits, in prefix order, every route one member has been
// sent: the tests' view of the replay ResyncMember sends, asked of the
// stages upstream as the replay is. A member that is not live has been
// sent nothing.
func (g *GroupOut) WalkAnnounced(handle *PeerHandle, fn func(Route) bool) {
	if m := g.member(handle); m != nil && m.live {
		g.replay(m, func(r Route) bool { return !sendable(r.Src, handle) || fn(r) })
	}
}

// Len returns the number of distinct interned attribute sets.
func (p *AttrPool) Len() int {
	sets, _ := p.count()
	return sets
}

// Refs returns the total refcount across all entries.
func (p *AttrPool) Refs() int {
	_, refs := p.count()
	return refs
}

// count walks every chain.
func (p *AttrPool) count() (sets, refs int) {
	if p == nil {
		return 0, 0
	}
	for _, head := range p.sets {
		for e := &head; e != nil; e = e.next {
			sets++
			refs += e.refs
		}
	}
	return sets, refs
}

// Retain takes an additional reference on an interned set. Unknown (or
// never-interned) pointers are ignored, so callers need not track whether
// an attrs value came from the pool.
func (p *AttrPool) Retain(a *PathAttrs) { p.retain(a, 1) }

// Suppressed reports whether net is currently suppressed.
func (d *DampingStage) Suppressed(net netip.Prefix) bool {
	if d.state == nil {
		return false
	}
	s, ok := d.state.Get(net)
	return ok && s.suppressed
}

// QueueLen reports the single queue's current length.
func (f *Fanout) QueueLen() int { return f.q.Len() }

// Peer returns the peering handle.
func (p *PeerIn) Peer() *PeerHandle { return p.peer }

// Done reports whether the stage has drained and unplumbed itself.
func (d *DeletionStage) Done() bool { return d.done }

// AttrPool returns the process attribute pool.
func (p *Process) AttrPool() *AttrPool { return p.pool }

// sink is a terminal stage collecting messages. Below the decision process
// (belowDecision) a route reaching it with a sole mark is a mark that
// outlived its moment: it panics.
type sink struct {
	core.Base[Route]
	adds, replaces, deletes int
	tbl                     map[netip.Prefix]Route
	belowDecision           bool
}

func newSink(name string) *sink {
	return &sink{Base: newBase(name), tbl: make(map[netip.Prefix]Route)}
}

func (s *sink) Add(run []Route) {
	for _, r := range run {
		s.noMark(r)
		s.adds++
		s.tbl[r.Net] = r
	}
}

func (s *sink) Replace(old, new Route) {
	s.noMark(old)
	s.noMark(new)
	s.replaces++
	s.tbl[new.Net] = new
}

func (s *sink) Delete(run []Route) {
	for _, r := range run {
		s.noMark(r)
		s.deletes++
		delete(s.tbl, r.Net)
	}
}

func (s *sink) noMark(r Route) {
	if s.belowDecision && r.sole {
		panic(fmt.Sprintf("%v from %v reached the sink marked sole", r.Net, r.Src))
	}
}

func (s *sink) Lookup(net netip.Prefix, r *Route) (ok bool) {
	*r, ok = s.tbl[net]
	return ok
}

// HeldRuns returns the fanout's run storage: the routes it holds for the
// entries still queued, and the slots past them that it keeps.
func (f *Fanout) HeldRuns() (held, spare []Route) {
	return f.runs, f.runs[len(f.runs):cap(f.runs)]
}
