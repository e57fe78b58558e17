package core

import (
	"net/netip"

	"xorp/internal/telemetry"
)

// Stage is one element of a stage network (§5): something routes flow
// into. BGP's pipeline (R = bgp.Route) and the RIB (R = route.Entry) are
// both made of these; stages share this API and are indifferent to their
// surroundings, so one can be plumbed in without disturbing its neighbours.
//
// One message shape flows: the run, 1..n routes sharing an op, applied in
// order; a single route is a run of one. A run is read-only and valid only
// for the call (senders reuse their buffers), so a stage that keeps a route
// copies it. A stage may re-cut what it emits into other runs, with
// Replaces in between where per-route semantics demand, but never reorders.
//
// Consistency rules (§5.1): a Delete must match a previous Add, and a
// Lookup answer must agree with the messages already sent downstream.
type Stage[R any] interface {
	Name() string
	Add(run []R)        // announce routes for prefixes not announced
	Replace(old, new R) // substitute new for old, the announced route
	Delete(run []R)     // withdraw announced routes
	links[R]
}

// Table is the lookup half (§5.1's lookup_route), flowing upstream: Lookup
// writes the route announced for exactly net into r, which is the asker's,
// and reports whether there is one. It fills rather than returns: the
// decision process asks each branch holding a prefix for every change to
// it, and a struct result would be copied at each stage on the way back.
type Table[R any] interface {
	Lookup(net netip.Prefix, r *R) bool
}

// Source is what a stage's parent link points at: an origin (a PeerIn, an
// origin table; fed by its protocol, not by messages) or a stage.
type Source[R any] interface {
	Table[R]
	links[R]
}

// links is the plumbing every element of a network has by embedding Base.
type links[R any] interface {
	Next() Stage[R]
	Parent() Source[R]
	base() *Base[R]
}

// Base is embedded by every stage and origin: its name, its links, and
// the scratch its Emitter builds runs in.
type Base[R any] struct {
	name   string
	next   Stage[R]
	parent Source[R]
	joins  func(last, r *R, op Op) bool // see NewBase
	// buf backs the Emitter between calls. A call detaches it, so a client
	// that re-enters the network synchronously from inside a flush finds
	// nil here and grows a buffer of its own instead of overwriting the
	// run in flight.
	buf []R
}

// NewBase returns the base of an element named name. joins, when set, says
// whether route r may follow last in a run of op (OpAdd or OpDelete) the
// element emits: what a run shares beyond its op.
func NewBase[R any](name string, joins func(last, r *R, op Op) bool) Base[R] {
	return Base[R]{name: name, joins: joins}
}

func (b *Base[R]) Name() string      { return b.name }
func (b *Base[R]) Next() Stage[R]    { return b.next }   // nil at the end
func (b *Base[R]) Parent() Source[R] { return b.parent } // nil at the top
func (b *Base[R]) base() *Base[R]    { return b }

// Pass sends a run of op (OpAdd or OpDelete) on downstream as it came, if
// there is a downstream: the forwarding half of a stage that changes
// nothing of it.
func (b *Base[R]) Pass(op Op, run []R) {
	switch {
	case b.next == nil:
	case op == OpAdd:
		b.next.Add(run)
	default:
		b.next.Delete(run)
	}
}

// LookupParent asks upstream: the lookup of a stage holding no routes.
func (b *Base[R]) LookupParent(net netip.Prefix, r *R) bool {
	return b.parent != nil && b.parent.Lookup(net, r)
}

// Emitter detaches the scratch into an emitter for one call; Release
// flushes it and hands the scratch back.
func (b *Base[R]) Emitter() Emitter[R] {
	em := Emitter[R]{b: b, run: b.buf[:0]}
	b.buf = nil
	return em
}

func (b *Base[R]) Release(em *Emitter[R]) {
	em.Flush()
	b.buf = em.run
}

// Emitter coalesces an element's emissions into runs: consecutive Adds (or
// Deletes) the joins rule accepts ship downstream as one run; a Replace, a
// switch of kind or a refused route flushes first, so the downstream
// stream is the same however the input was cut. It ships to the element's
// downstream of the moment, so a stage that unplumbs itself mid-call is
// passed by.
type Emitter[R any] struct {
	b   *Base[R]
	run []R
	op  Op
}

func (em *Emitter[R]) Add(r R)    { em.Push(OpAdd, r) }
func (em *Emitter[R]) Delete(r R) { em.Push(OpDelete, r) }

// Push appends r to a run of op (OpAdd or OpDelete), first shipping the run
// before it if r cannot join (the rule sees r in the buffer: &r would put
// every route on the heap).
func (em *Emitter[R]) Push(op Op, r R) {
	em.run = append(em.run, r)
	n := len(em.run)
	if n > 1 && (op != em.op || em.b.joins != nil && !em.b.joins(&em.run[n-2], &em.run[n-1], op)) {
		em.ship(em.run[:n-1])
		em.run[0] = em.run[n-1]
		clear(em.run[1:])
		em.run = em.run[:1]
	}
	em.op = op
}

func (em *Emitter[R]) Replace(old, new R) {
	em.Flush()
	if next := em.b.next; next != nil {
		next.Replace(old, new)
	}
}

// Flush ships the pending run, then clears the buffer so the idle scratch
// pins nothing.
func (em *Emitter[R]) Flush() {
	if len(em.run) > 0 {
		em.ship(em.run)
		clear(em.run)
		em.run = em.run[:0]
	}
}

// ship sends run, capped at its end so that no receiver can reach the
// buffer past it.
func (em *Emitter[R]) ship(run []R) { em.b.Pass(em.op, run[:len(run):len(run)]) }

// Plumb links head → stages[0] → stages[1] → …: each is its predecessor's
// downstream, and a predecessor that answers lookups its parent.
func Plumb[R any](head Source[R], stages ...Stage[R]) {
	from, parent := head.base(), head
	for _, s := range stages {
		from.next = s
		from = s.base()
		from.parent = parent
		parent, _ = s.(Source[R])
	}
}

// Join makes s the downstream of src, one of the inputs of a stage that
// keeps its own list of them (the decision process); nil unhooks src.
func Join[R any](src Source[R], s Stage[R]) { src.base().next = s }

// Adopt makes src the parent of s, one of the outputs of a stage that keeps
// its own list of them (the fanout); nil orphans s.
func Adopt[R any](src Source[R], s Stage[R]) { s.base().parent = src }

// Splice inserts s between parent and its downstream (a dynamic stage,
// §5.1.2).
func Splice[R any](parent Source[R], s interface {
	Stage[R]
	Table[R]
}) {
	old := parent.Next()
	Plumb[R](parent, s)
	if old != nil {
		Plumb[R](s, old)
	}
}

// Unsplice removes s from its chain, reconnecting its neighbours.
func Unsplice[R any](s Stage[R]) {
	b := s.base()
	if b.parent != nil {
		b.parent.base().next = b.next
	}
	if b.next != nil {
		b.next.base().parent = b.parent
	}
	b.parent, b.next = nil, nil
}

// Tap is a stage that watches the stream and changes nothing: see is
// shown each route of a message (a Replace's new one), then the message
// goes on as it came. The RIB's register and redistribution stages and the
// cache stage are taps.
type Tap[R any] struct {
	Base[R]
	see func(op Op, r R)
}

// NewTap returns a tap named name that shows routes to see.
func NewTap[R any](name string, see func(op Op, r R)) Tap[R] {
	return Tap[R]{Base: NewBase[R](name, nil), see: see}
}

func (t *Tap[R]) Add(run []R) {
	for _, r := range run {
		t.see(OpAdd, r)
	}
	t.Pass(OpAdd, run)
}

func (t *Tap[R]) Replace(old, new R) {
	t.see(OpReplace, new)
	if t.next != nil {
		t.next.Replace(old, new)
	}
}

func (t *Tap[R]) Delete(run []R) {
	for _, r := range run {
		t.see(OpDelete, r)
	}
	t.Pass(OpDelete, run)
}

// Prefixed is a route that names its prefix, which a cache stage files it
// under.
type Prefixed interface{ Prefix() netip.Prefix }

// CacheStage is the consistency-checking cache stage of §5.1: a tap that
// shadows the message stream in its own table, verifies the two
// consistency rules, and answers lookups locally. "While not intended for
// normal production use, this stage could aid with debugging if a
// consistency error is suspected": BGP plumbs one before its RIB branch on
// ConsistencyChecks, and tests anywhere.
type CacheStage[R Prefixed] struct {
	Tap[R]
	chk   *Checker[R]
	Panic bool // a violation panics (tests) rather than only counts
}

// NewCacheStage returns a cache stage labeled name, counting each
// violation in violations.
func NewCacheStage[R Prefixed](name string, violations *telemetry.Counter) *CacheStage[R] {
	c := &CacheStage[R]{chk: NewChecker[R](name, violations)}
	c.Tap = NewTap(name, c.check)
	return c
}

// check holds one route of the stream to the rules.
func (c *CacheStage[R]) check(op Op, r R) {
	var v *ConsistencyError
	switch op {
	case OpAdd:
		v = c.chk.Add(r.Prefix(), r)
	case OpReplace:
		v = c.chk.Replace(r.Prefix(), r)
	default:
		v = c.chk.Delete(r.Prefix())
	}
	if v != nil && c.Panic {
		panic(v.Error())
	}
}

// Lookup answers from the shadow table.
func (c *CacheStage[R]) Lookup(net netip.Prefix, r *R) (ok bool) {
	*r, ok = c.chk.Lookup(net)
	return ok
}
