package bgp

import (
	"net/netip"

	"xorp/internal/core"
)

// Stage is one element of the BGP pipeline (§5.1), a core.Stage of Routes:
// runs of Add and Delete and single Replaces flow downstream, and Lookup
// (core.Table), which every stage but the RIB sink answers, upstream. A
// route is a value: a message carries its own copy and a Lookup fills the
// asker's, so what a stage is handed or answered is its own to keep.
//
// A withdrawal (a Delete, a Replace's old side) names a route by prefix and
// source. Below a FilterBank it carries the set the bank's judges made of
// it, not the export transforms' rewrite: nothing below an export bank reads
// a withdrawn route's set (the group withdraws by prefix, a cache stage
// deletes by prefix), and Lookup answers still come through the whole chain.
type Stage = core.Stage[Route]

// Plumb links a source and stages left-to-right: Plumb(a, b, c) wires
// a → b → c and the corresponding upstream (lookup) pointers.
var Plumb = core.Plumb[Route]

func newBase(name string) core.Base[Route] { return core.NewBase(name, joins) }

// joins is the BGP run rule: a run shares one Src, an add run also one
// interned *PathAttrs (and its prefixes are distinct and not yet
// announced); only the Fanout keeps a run past the call, in a copy.
func joins(last, r *Route, op core.Op) bool {
	return last.Src == r.Src && (op == core.OpDelete || last.Attrs == r.Attrs)
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

// Prefix names the route's prefix (core.Prefixed), for cache stages.
func (r Route) Prefix() netip.Prefix { return r.Net }
