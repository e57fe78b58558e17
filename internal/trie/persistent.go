// Persistent is the copy-on-write sibling of Trie: an immutable
// longest-prefix-match table where every mutation returns a new version
// sharing all untouched structure with its predecessor. One route change
// copies only the path from the root to the changed prefix, so a published
// version can be read forever — lock-free, from any goroutine — while
// arbitrarily many successors are built beside it.
//
// This is the structure underneath internal/fwd's RCU-style FIB
// snapshots: the forwarding workers chase an atomic pointer to the
// current version; the write side derives version n+1 from n and flips
// the pointer. Readers never observe a half-applied batch because no
// reachable node is ever mutated.
//
// # Layout
//
// The first fanLevels nibbles of an address are resolved by 16-way fan
// nodes, one nibble a level; what hangs under the last level is a bucket
// holding a Patricia trie of every prefix that shares those leading bits.
// A prefix too short to name a kid of the fan it reaches (the ≤ 15 of
// length 4d…4d+3 at level d) lives in that fan's own small Patricia trie.
// In a full IPv4 table the top levels of a binary trie are an almost
// complete tree, so the fans replace ≈ 16 of the 18 nodes on the path to a
// route with fanLevels+1: that many fans and buckets, plus the few
// Patricia nodes under the bucket, are what one route change copies. Both
// families use the same code; IPv4 keys sit in the top 32 bits.
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

// fan is one 16-way level of the top of a table, or — with kids nil — a
// bucket under the last level. sub holds, for a fan at depth d, the
// prefixes of length 4d…4d+3 under it; for a bucket, everything under it.
type fan[T any] struct {
	sub   *pnode[T]
	kids  *[16]*fan[T] // the arr of the fanned[T] this fan heads
	owner owner
}

// fanned is the allocation behind a fan that is not a bucket.
type fanned[T any] struct {
	fan[T]
	arr [16]*fan[T]
}

// nibble returns nibble d (0 = most significant) of k, d < 16.
func (k key128) nibble(d uint8) int { return int(k.hi>>(60-4*d)) & 15 }

// own is pnode.own for a fan; a nil f yields an empty fan for depth.
func (f *fan[T]) own(id uint64, depth uint8) *fan[T] {
	switch {
	case f == nil && depth == fanLevels:
		return &fan[T]{owner: ownerMark(id)}
	case f == nil:
		a := &fanned[T]{}
		a.kids, a.owner = &a.arr, ownerMark(id)
		return &a.fan
	case f.owner.is(id):
		return f
	case f.kids == nil:
		return &fan[T]{sub: f.sub, owner: ownerMark(id)}
	}
	a := &fanned[T]{arr: *f.kids}
	a.sub, a.kids, a.owner = f.sub, &a.arr, ownerMark(id)
	return &a.fan
}

// holds reports whether (k, pb) belongs in f's own Patricia trie rather
// than under one of its kids.
func (f *fan[T]) holds(depth, pb uint8) bool { return f.kids == nil || pb < 4*(depth+1) }

// insert returns a fan equal to f, which sits at depth, with (k, pb, v)
// stored; what session id does not own on the way is copied.
func (f *fan[T]) insert(id uint64, depth uint8, k key128, pb uint8, v T, added *bool) *fan[T] {
	c := f.own(id, depth)
	if c.holds(depth, pb) {
		c.sub = insertP(c.sub, id, k, pb, v, added)
	} else {
		i := k.nibble(depth)
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
		i   = -1
	)
	if f.holds(depth, pb) {
		sub = deleteP(sub, id, k, pb, removed)
	} else {
		i = k.nibble(depth)
		kid = f.kids[i].remove(id, depth+1, k, pb, removed)
	}
	if !*removed {
		return f
	}
	if sub == nil && kid == nil && !f.hasKidBut(i) {
		return nil
	}
	c := f.own(id, depth)
	c.sub = sub
	if i >= 0 {
		c.kids[i] = kid
	}
	return c
}

// hasKidBut reports whether f has a kid in any slot other than skip.
func (f *fan[T]) hasKidBut(skip int) bool {
	if f.kids != nil {
		for i, k := range f.kids {
			if k != nil && i != skip {
				return true
			}
		}
	}
	return false
}

// walk visits every entry under f, which sits at depth, in address order.
// A fan's own prefixes are shorter than anything under its kids, so each
// goes out after the kids whose addresses precede it and before the kid
// it covers the start of.
func (f *fan[T]) walk(depth uint8, v4 bool, fn func(netip.Prefix, T) bool) bool {
	if f == nil {
		return true
	}
	next := 0
	kidsBelow := func(end int) bool {
		for ; f.kids != nil && next < end; next++ {
			if !f.kids[next].walk(depth+1, v4, fn) {
				return false
			}
		}
		return true
	}
	return walkP(f.sub, func(n *pnode[T]) bool {
		return kidsBelow(n.key.nibble(depth)) && fn(prefixOf(n.key, n.bits, v4), *n.val)
	}) && kidsBelow(16)
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
// version. The session cannot be used afterwards.
func (e *Edit[T]) Publish() *Persistent[T] {
	e.mustBeOpen()
	e.id = 0
	return &e.tbl
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
	k := keyOf(p.Addr())
	pb := uint8(p.Bits())
	f := *root
	for depth := uint8(0); f != nil && !f.holds(depth, pb); depth++ {
		f = f.kids[k.nibble(depth)]
	}
	if f == nil {
		return zero, false
	}
	for cur := f.sub; cur != nil && cur.covers(k, pb); cur = cur.child[k.bit(cur.bits)] {
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
	maxBits := uint8(128)
	if v4 {
		maxBits = 32
	}
	k := keyOf(addr)
	// Remember the best node, not its contents: prefix and value are
	// built once on return instead of at every valued ancestor. Whatever
	// matches further down is longer than anything a fan above it holds.
	var best *pnode[T]
	for f, depth := *root, uint8(0); f != nil; depth++ {
		for cur := f.sub; cur != nil; cur = cur.child[k.bit(cur.bits)] {
			if cur.bits > maxBits || !k.hasPrefix(cur.key, cur.bits) {
				break
			}
			if cur.val != nil {
				best = cur
			}
		}
		if f.kids == nil {
			break
		}
		f = f.kids[k.nibble(depth)]
	}
	if best == nil {
		var zero T
		return netip.Prefix{}, zero, false
	}
	return prefixOf(best.key, best.bits, v4), *best.val, true
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
