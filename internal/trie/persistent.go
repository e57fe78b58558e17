// Persistent is the copy-on-write sibling of Trie: an immutable
// longest-prefix-match table where every mutation returns a new version
// sharing all untouched structure with its predecessor. One route change
// copies only the path from the root to the changed prefix, so a published
// version can be read forever — lock-free, from any goroutine — while
// arbitrarily many successors are built beside it.
//
// This is the structure underneath the kernel FIB (internal/kernel),
// whose versions internal/fwd publishes as RCU-style snapshots: the
// forwarding workers chase an atomic pointer to the current version; the
// write side derives version n+1 from n and flips the pointer. Readers never observe a half-applied batch because no
// reachable node is ever mutated.
//
// # Layout
//
// The first fanLevels nibbles of an address are resolved by 16-way fan
// nodes, one nibble a level. The last fan's sixteen slots are not fans but
// Patricia roots: each holds the trie of every prefix sharing those
// leading 16 bits, a /16's trie for IPv4. A prefix too short to name a
// slot of the fan it reaches (the ≤ 15 of length 4d…4d+3 at level d) lives
// in that fan's own small Patricia trie. In a full IPv4 table the top
// levels of a binary trie are an almost complete tree, so the fans replace
// ≈ 16 of the 18 nodes on the path to a route with fanLevels: those fans,
// plus the few Patricia nodes of the /16's trie, are what one route change
// copies. A fan above the last level and the last one are two allocation
// shapes, a header and an array of sixteen pointers, in the same 160-byte
// size class. Both families use the same code; IPv4 keys sit in the top
// 32 bits.
//
// A lookup goes down the fans to its /16's trie first, and reads the
// fans' own tries only when nothing there matched, deepest fan first: a
// deeper match is always the longer one. On the repo benchmark's forward
// workload (seed 1) the /16's trie answers 93.0 % of the timed lookups;
// 1.8 % are answered by a fan's own trie and 5.1 % miss, so only 6.9 %
// read the short-prefix tries at all (seed 2: 94.3, 0.8 and 4.9 %).
//
// A Patricia node is 48 bytes when it is glue. A valued node is one
// allocation of the same header followed by its value, the header's val
// pointing at its own tail; as in Trie, no node stores a netip.Prefix —
// key, length and the root it hangs under are the prefix, rebuilt on the
// way out of LongestMatch and Walk.
//
// # Edit sessions and the owner mark
//
// A batch of changes is built with an Edit session (Persistent.Edit …
// Edit.Publish). Every node and fan carries the id of the session that
// allocated it. A session writing one it owns mutates it in place —
// nothing else can reach it yet, because the session's roots stay
// private until Publish — and copies any other first, taking ownership
// of the copy. So a batch copies each touched node at most once instead
// of once per change, and a node reachable from a published version is
// still never written.
//
// Publish hands the version out by value. Edit returns a pointer, so a
// session is never copied, but one that does not outlive its caller stays
// on the stack: kernel.FIB.Commit's does, so internal/fwd's publish costs
// one allocation, its Snapshot, which holds the version in place.
//
// A valued node is copied with its value. Copying only the header and
// leaving val pointing into the old allocation would be 100 bytes
// cheaper per copy and would pin the old node — and through its stale
// child pointers one old version of the subtree below it — for as long
// as the copy lives: a table under churn grows by one dead subtree per
// valued interior node (TestPersistentChurnHoldsOneVersion). For the same
// reason a valued node that turns glue is replaced by a fresh 48-byte
// one, not kept with a dead tail.
//
// That last claim of the paragraph before rests on session ids never
// repeating. Ids come from one process-wide 48-bit counter (every
// Persistent of every element type, every fwd.Publisher, draws from it)
// and a session panics rather than wrap: at a million sessions a second
// the counter lasts nine years. A narrower or per-table mark (say
// uint32(generation)) would repeat, and a session whose id repeated would
// take nodes a reader still holds for its own. Publish zeroes the
// session's id, so the mark dies there: no later session can own what it
// built, and a published session cannot be edited further. Id 0 owns
// nothing; Insert and Delete run in that mode and therefore always copy.
//
// The mark is three uint16s so that it and the prefix length fill the
// header's last eight bytes (sizes pinned by TestPnodeSize).

package trie

import (
	"net/netip"
	"sync/atomic"
)

// editIDBits is the width of the owner mark.
const editIDBits = 48

// editIDs issues edit-session ids; see the file header.
var editIDs atomic.Uint64

// owner is an edit-session id as a node stores it.
type owner [3]uint16

func ownerMark(id uint64) owner {
	return owner{uint16(id), uint16(id >> 16), uint16(id >> 32)}
}

// is reports whether the mark is session id's. Id 0 owns nothing.
func (o owner) is(id uint64) bool { return id != 0 && o == ownerMark(id) }

// pnode is one Patricia node of a Persistent table. Like Trie's node it
// is either valued or structural glue, and carries its prefix bits
// precomputed as a 128-bit word key so traversal never touches address
// bytes. Unlike Trie's node it has no parent pointer (paths are copied
// root-down) and is never mutated once reachable from a published root.
type pnode[T any] struct {
	key   key128
	child [2]*pnode[T]
	val   *T // nil marks glue; otherwise the v of the valued[T] this node heads
	owner owner
	bits  uint8
}

// valued is the allocation behind a valued node.
type valued[T any] struct {
	pnode[T]
	v T
}

// newValued returns a node owned by session id with hdr's key, length and
// children, holding v.
func newValued[T any](id uint64, hdr pnode[T], v T) *pnode[T] {
	a := &valued[T]{pnode: hdr, v: v}
	a.val = &a.v
	a.owner = ownerMark(id)
	return &a.pnode
}

// newLeaf returns a valued, childless node owned by session id.
func newLeaf[T any](id uint64, k key128, pb uint8, v T) *pnode[T] {
	return newValued(id, pnode[T]{key: k, bits: pb}, v)
}

// newGlue returns a valueless node owned by session id.
func newGlue[T any](id uint64, k key128, bits uint8, child [2]*pnode[T]) *pnode[T] {
	return &pnode[T]{key: k, bits: bits, child: child, owner: ownerMark(id)}
}

// covers reports whether n's prefix covers (k, kb).
func (n *pnode[T]) covers(k key128, kb uint8) bool {
	return n.bits <= kb && k.hasPrefix(n.key, n.bits)
}

// own returns the node session id may write in n's place: n itself when
// the session allocated it, otherwise a copy — value included, see the
// file header — marked as the session's.
func (n *pnode[T]) own(id uint64) *pnode[T] {
	switch {
	case n.owner.is(id):
		return n
	case n.val != nil:
		return newValued(id, *n, *n.val)
	}
	return newGlue(id, n.key, n.bits, n.child)
}

// fanLevels is how many leading nibbles of an address the fans resolve.
// CHANGES.md (PR 22) has the table of 2, 3 and 4 it was chosen from.
const fanLevels = 4

// fan is one 16-way level of the top of a table. sub holds, for a fan at
// depth d, the prefixes of length 4d…4d+3 under it. Under a fan above the
// last level hang sixteen fans; under the last, at depth fanLevels−1,
// sixteen Patricia tries, one for each /16 (of IPv6, each leading 16 bits).
type fan[T any] struct {
	sub   *pnode[T]
	kids  *[16]*fan[T]   // the arr of the fanned[T] this fan heads; nil at the last level
	tries *[16]*pnode[T] // the arr of the rooted[T] this fan heads; nil above it
	owner owner
}

// fanned is the allocation behind a fan above the last level.
type fanned[T any] struct {
	fan[T]
	arr [16]*fan[T]
}

// rooted is the allocation behind a fan at the last level.
type rooted[T any] struct {
	fan[T]
	arr [16]*pnode[T]
}

// nibble returns nibble d (0 = most significant) of k, d < 16.
func (k key128) nibble(d uint8) int { return int(k.hi>>(60-4*d)) & 15 }

// own is pnode.own for a fan; a nil f yields an empty fan for depth.
func (f *fan[T]) own(id uint64, depth uint8) *fan[T] {
	switch {
	case f != nil && f.owner.is(id):
		return f
	case depth == fanLevels-1:
		a := &rooted[T]{}
		if f != nil {
			a.sub, a.arr = f.sub, *f.tries
		}
		a.tries, a.owner = &a.arr, ownerMark(id)
		return &a.fan
	}
	a := &fanned[T]{}
	if f != nil {
		a.sub, a.arr = f.sub, *f.kids
	}
	a.kids, a.owner = &a.arr, ownerMark(id)
	return &a.fan
}

// insert returns a fan equal to f, which sits at depth, with (k, pb, v)
// stored; what session id does not own on the way is copied.
func (f *fan[T]) insert(id uint64, depth uint8, k key128, pb uint8, v T, added *bool) *fan[T] {
	c := f.own(id, depth)
	i := k.nibble(depth)
	switch {
	case pb < 4*(depth+1):
		c.sub = insertP(c.sub, id, k, pb, v, added)
	case c.tries != nil:
		c.tries[i] = insertP(c.tries[i], id, k, pb, v, added)
	default:
		c.kids[i] = c.kids[i].insert(id, depth+1, k, pb, v, added)
	}
	return c
}

// remove returns a fan equal to f with the value at (k, pb) removed: f
// itself when there was none, nil when that empties it.
func (f *fan[T]) remove(id uint64, depth uint8, k key128, pb uint8, removed *bool) *fan[T] {
	if f == nil {
		return nil
	}
	var (
		sub = f.sub
		kid *fan[T]
		tri *pnode[T]
		i   = -1
	)
	switch {
	case pb < 4*(depth+1):
		sub = deleteP(sub, id, k, pb, removed)
	case f.tries != nil:
		i = k.nibble(depth)
		tri = deleteP(f.tries[i], id, k, pb, removed)
	default:
		i = k.nibble(depth)
		kid = f.kids[i].remove(id, depth+1, k, pb, removed)
	}
	if !*removed {
		return f
	}
	if sub == nil && kid == nil && tri == nil && !f.hasKidBut(i) {
		return nil
	}
	c := f.own(id, depth)
	c.sub = sub
	switch {
	case i < 0:
	case c.tries != nil:
		c.tries[i] = tri
	default:
		c.kids[i] = kid
	}
	return c
}

// hasKidBut reports whether f has a fan or a trie in any slot other than
// skip.
func (f *fan[T]) hasKidBut(skip int) bool {
	for i := range 16 {
		if i != skip && (f.kids != nil && f.kids[i] != nil || f.tries != nil && f.tries[i] != nil) {
			return true
		}
	}
	return false
}

// trieOf returns the Patricia trie under f, a root, that (k, pb) belongs
// in: a fan's own or a /16's.
func (f *fan[T]) trieOf(k key128, pb uint8) *pnode[T] {
	for depth := uint8(0); f != nil; depth++ {
		switch {
		case pb < 4*(depth+1):
			return f.sub
		case f.tries != nil:
			return f.tries[k.nibble(depth)]
		}
		f = f.kids[k.nibble(depth)]
	}
	return nil
}

// walk visits every entry under f, which sits at depth, in address order.
// A fan's own prefixes are shorter than anything under its slots, so each
// goes out after the slots whose addresses precede it and before the slot
// it covers the start of.
func (f *fan[T]) walk(depth uint8, v4 bool, fn func(netip.Prefix, T) bool) bool {
	if f == nil {
		return true
	}
	emit := func(n *pnode[T]) bool { return fn(prefixOf(n.key, n.bits, v4), *n.val) }
	next := 0
	slotsBelow := func(end int) bool {
		for ; next < end; next++ {
			if f.tries != nil && !walkP(f.tries[next], emit) || f.kids != nil && !f.kids[next].walk(depth+1, v4, fn) {
				return false
			}
		}
		return true
	}
	return walkP(f.sub, func(n *pnode[T]) bool {
		return slotsBelow(n.key.nibble(depth)) && emit(n)
	}) && slotsBelow(16)
}

// Persistent is an immutable LPM table version. The zero value is the
// usable empty table; Insert and Delete return new versions and never
// modify the receiver. Methods on a *Persistent are safe for concurrent
// use by any number of readers while writers build successors.
type Persistent[T any] struct {
	root4 *fan[T]
	root6 *fan[T]
	size  int
}

// NewPersistent returns the empty table version.
func NewPersistent[T any]() *Persistent[T] { return &Persistent[T]{} }

// Len returns the number of valued entries.
func (t *Persistent[T]) Len() int { return t.size }

// Edit is a transient edit session: a private successor of one version,
// changed in place where the session owns the nodes, and turned into the
// next immutable version by Publish. A session belongs to one goroutine.
type Edit[T any] struct {
	tbl Persistent[T] // private until Publish hands it out
	id  uint64        // 0 once published
}

// Edit opens an edit session on t. t itself never changes.
func (t *Persistent[T]) Edit() *Edit[T] {
	id := editIDs.Add(1)
	if id >= 1<<editIDBits {
		panic("trie: edit-session ids exhausted")
	}
	return &Edit[T]{tbl: *t, id: id}
}

// Len returns the number of valued entries the session holds.
func (e *Edit[T]) Len() int { return e.tbl.size }

// Insert stores v at p (masked first), replacing any existing value. An
// invalid prefix is ignored.
func (e *Edit[T]) Insert(p netip.Prefix, v T) {
	e.mustBeOpen()
	e.tbl.insert(e.id, p, v)
}

// Delete removes the entry exactly at p and reports whether it existed.
func (e *Edit[T]) Delete(p netip.Prefix) bool {
	e.mustBeOpen()
	return e.tbl.remove(e.id, p)
}

// Publish ends the session and returns its contents as an immutable
// version. The session cannot be used afterwards. The version comes back
// by value, so a caller that keeps it in a struct of its own and a
// session that stays on the stack make a publish cost that one allocation.
func (e *Edit[T]) Publish() Persistent[T] {
	e.mustBeOpen()
	e.id = 0
	return e.tbl
}

// mustBeOpen guards the owner-mark invariant: a published session's
// table is in readers' hands, and id 0 would copy where the caller
// expects in-place edits to accumulate.
func (e *Edit[T]) mustBeOpen() {
	if e.id == 0 {
		panic("trie: Edit used after Publish")
	}
}

// root returns the slot holding the root of p's family, and whether that
// is IPv4.
func (t *Persistent[T]) root(a netip.Addr) (**fan[T], bool) {
	if a.Is4() {
		return &t.root4, true
	}
	return &t.root6, false
}

// Insert returns a new version with v stored at p (masked first),
// replacing any existing value. An invalid prefix returns the receiver
// unchanged.
func (t *Persistent[T]) Insert(p netip.Prefix, v T) *Persistent[T] {
	if !p.IsValid() {
		return t
	}
	nt := *t
	nt.insert(0, p, v)
	return &nt
}

// insert stores (p, v) in t itself on behalf of session id; t must not
// be published yet.
func (t *Persistent[T]) insert(id uint64, p netip.Prefix, v T) {
	if !p.IsValid() {
		return
	}
	p = p.Masked()
	added := false
	root, _ := t.root(p.Addr())
	*root = (*root).insert(id, 0, keyOf(p.Addr()), uint8(p.Bits()), v, &added)
	if added {
		t.size++
	}
}

// insertP returns the root of a subtree equal to n with v stored at
// (k, pb). Nodes on the descent path that session id does not own are
// copied; the ones it owns are changed in place.
func insertP[T any](n *pnode[T], id uint64, k key128, pb uint8, v T, added *bool) *pnode[T] {
	if n == nil {
		*added = true
		return newLeaf(id, k, pb, v)
	}
	if n.bits == pb && n.key == k {
		if n.val != nil && n.owner.is(id) {
			*n.val = v
			return n
		}
		*added = n.val == nil
		return newValued(id, *n, v)
	}
	if n.covers(k, pb) {
		// n strictly covers p: descend.
		b := k.bit(n.bits)
		c := n.own(id)
		c.child[b] = insertP(n.child[b], id, k, pb, v, added)
		return c
	}
	*added = true
	if pb < n.bits && n.key.hasPrefix(k, pb) {
		// p covers n: the new node takes n as its child.
		nn := newLeaf(id, k, pb, v)
		nn.child[n.key.bit(pb)] = n
		return nn
	}
	// Diverge: glue node at the longest common prefix of p and n.
	gb := commonPrefixLen(k, n.key, min(pb, n.bits))
	g := newGlue(id, k.masked(gb), gb, [2]*pnode[T]{})
	g.child[n.key.bit(gb)] = n
	g.child[k.bit(gb)] = newLeaf(id, k, pb, v)
	return g
}

// Delete returns a new version with the entry exactly at p removed, and
// reports whether it existed. When it does not, the receiver itself is
// returned (no copying).
func (t *Persistent[T]) Delete(p netip.Prefix) (*Persistent[T], bool) {
	nt := *t
	if !nt.remove(0, p) {
		return t, false
	}
	out := nt // allocate only on this path
	return &out, true
}

// remove deletes the entry at p from t itself on behalf of session id,
// and reports whether it existed; t must not be published yet.
func (t *Persistent[T]) remove(id uint64, p netip.Prefix) bool {
	if !p.IsValid() {
		return false
	}
	p = p.Masked()
	removed := false
	root, _ := t.root(p.Addr())
	*root = (*root).remove(id, 0, keyOf(p.Addr()), uint8(p.Bits()), &removed)
	if removed {
		t.size--
	}
	return removed
}

// deleteP returns the root of a subtree equal to n with the value at
// (k, pb) removed, splicing out nodes that become structurally
// unnecessary. Returns n itself when nothing changed; otherwise nodes
// session id does not own are copied, the ones it owns changed in place.
func deleteP[T any](n *pnode[T], id uint64, k key128, pb uint8, removed *bool) *pnode[T] {
	if n == nil {
		return nil
	}
	if n.bits == pb && n.key == k {
		if n.val == nil {
			return n
		}
		*removed = true
		switch {
		case n.child[0] != nil && n.child[1] != nil:
			// Still needed as a branch point: a glue node takes its place.
			return newGlue(id, n.key, n.bits, n.child)
		case n.child[0] != nil:
			return n.child[0]
		default:
			return n.child[1]
		}
	}
	if !n.covers(k, pb) {
		return n
	}
	b := k.bit(n.bits)
	nc := deleteP(n.child[b], id, k, pb, removed)
	if !*removed {
		return n
	}
	if n.val == nil {
		// A glue node left with one (or zero) children splices out.
		other := n.child[1-b]
		switch {
		case nc == nil:
			return other
		case other == nil:
			return nc
		}
	}
	c := n.own(id)
	c.child[b] = nc
	return c
}

// Get returns the value stored exactly at p.
func (t *Persistent[T]) Get(p netip.Prefix) (T, bool) {
	var zero T
	if !p.IsValid() {
		return zero, false
	}
	p = p.Masked()
	root, _ := t.root(p.Addr())
	k, pb := keyOf(p.Addr()), uint8(p.Bits())
	for cur := (*root).trieOf(k, pb); cur != nil && cur.covers(k, pb); cur = cur.child[k.bit(cur.bits)] {
		if cur.bits == pb {
			if cur.val == nil {
				return zero, false
			}
			return *cur.val, true
		}
	}
	return zero, false
}

// LongestMatch returns the most specific entry covering addr. This is
// the forwarding-worker hot path: a pure pointer walk over immutable
// nodes, no locks, no allocation.
func (t *Persistent[T]) LongestMatch(addr netip.Addr) (netip.Prefix, T, bool) {
	root, v4 := t.root(addr)
	k := keyOf(addr)
	// Down the fans to the address's /16 first: what matches there is
	// longer than anything a fan holds. Only when nothing does are the
	// fans' own tries read, deepest first, and the first match wins.
	var (
		path [fanLevels]*fan[T]
		n    uint8
		best *pnode[T]
	)
	f := *root
	for ; f != nil && f.kids != nil; n++ {
		path[n], f = f, f.kids[k.nibble(n)]
	}
	if f != nil {
		best = matchP(f.tries[k.nibble(n)], k)
		path[n], n = f, n+1
	}
	for ; best == nil && n > 0; n-- {
		best = matchP(path[n-1].sub, k)
	}
	if best == nil {
		var zero T
		return netip.Prefix{}, zero, false
	}
	return prefixOf(best.key, best.bits, v4), *best.val, true
}

// matchP returns the longest valued node under n that covers k. It
// remembers the node, not its contents: prefix and value are built once,
// by the caller, instead of at every valued ancestor.
func matchP[T any](n *pnode[T], k key128) (best *pnode[T]) {
	for ; n != nil && k.hasPrefix(n.key, n.bits); n = n.child[k.bit(n.bits)] {
		if n.val != nil {
			best = n
		}
	}
	return best
}

// Walk visits every valued entry in lexicographic (DFS pre-)order. fn
// returning false stops the walk. Safe to call on any version at any
// time; versions never change.
func (t *Persistent[T]) Walk(fn func(netip.Prefix, T) bool) {
	if t.root4.walk(0, true, fn) {
		t.root6.walk(0, false, fn)
	}
}

// walkP visits the valued nodes under n in pre-order.
func walkP[T any](n *pnode[T], visit func(*pnode[T]) bool) bool {
	if n == nil {
		return true
	}
	var buf [48]*pnode[T]
	stack := append(buf[:0], n)
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if n.val != nil && !visit(n) {
			return false
		}
		if n.child[1] != nil {
			stack = append(stack, n.child[1])
		}
		if n.child[0] != nil {
			stack = append(stack, n.child[0])
		}
	}
	return true
}
