// Persistent is the copy-on-write sibling of Trie: an immutable
// longest-prefix-match table where every mutation returns a new version
// sharing all untouched structure with its predecessor. One route change
// copies only the nodes on the path from the root to the changed prefix
// (≤ 33 nodes for IPv4, ≤ 129 for IPv6), so a published version can be
// read forever — lock-free, from any goroutine — while arbitrarily many
// successors are built beside it.
//
// This is the structure underneath internal/fwd's RCU-style FIB
// snapshots: the forwarding workers chase an atomic pointer to the
// current version; the write side derives version n+1 from n and flips
// the pointer. Readers never observe a half-applied batch because no
// reachable node is ever mutated.
//
// # Edit sessions and the owner mark
//
// A batch of changes is built with an Edit session (Persistent.Edit …
// Edit.Publish). Every node carries the id of the session that
// allocated it. A session writing a node it owns mutates it in place —
// nothing else can reach that node yet, because the session's roots stay
// private until Publish — and copies any other node first, taking
// ownership of the copy. So a batch copies each touched node at most
// once instead of once per change, and a node reachable from a published
// version is still never written.
//
// That last claim rests on session ids never repeating. Ids come from
// one process-wide 48-bit counter (every Persistent of every element
// type, every fwd.Publisher, draws from it) and a session panics rather
// than wrap: at a million sessions a second the counter lasts nine years.
// A narrower or per-table mark (say uint32(generation)) would repeat, and
// a session whose id repeated would take nodes a reader still holds for
// its own. Publish zeroes the session's id, so the mark dies there: no
// later session can own what it built, and a published session cannot be
// edited further. Id 0 owns nothing; Insert and Delete run in that mode
// and therefore always copy.
//
// The id lives in what used to be padding after bits/hasVal, so pnode
// stays in its allocator size class (pinned by TestPnodeSize).

package trie

import (
	"net/netip"
	"sync/atomic"
)

// editIDBits is the width of the owner mark.
const editIDBits = 48

// editIDs issues edit-session ids; see the file header.
var editIDs atomic.Uint64

// pnode is one node of a Persistent table. Like Trie's node it is either
// valued or structural glue, and carries its prefix bits precomputed as a
// 128-bit word key so traversal never touches address bytes. Unlike
// Trie's node it has no parent pointer (paths are copied root-down) and
// is never mutated once reachable from a published root.
type pnode[T any] struct {
	key     key128
	child   [2]*pnode[T]
	ownerLo uint32 // edit-session id, low 32 bits
	ownerHi uint16 // edit-session id, high 16 bits
	bits    uint8
	hasVal  bool
	prefix  netip.Prefix
	val     T
}

// covers reports whether n's prefix covers (k, kb).
func (n *pnode[T]) covers(k key128, kb uint8) bool {
	return n.bits <= kb && k.hasPrefix(n.key, n.bits)
}

// ownedBy reports whether session id allocated n. Id 0 owns nothing.
func (n *pnode[T]) ownedBy(id uint64) bool {
	return id != 0 && n.ownerLo == uint32(id) && n.ownerHi == uint16(id>>32)
}

func (n *pnode[T]) setOwner(id uint64) {
	n.ownerLo, n.ownerHi = uint32(id), uint16(id>>32)
}

// own returns the node session id may write in n's place: n itself when
// the session allocated it, otherwise a copy marked as the session's.
func (n *pnode[T]) own(id uint64) *pnode[T] {
	if n.ownedBy(id) {
		return n
	}
	c := *n
	c.setOwner(id)
	return &c
}

// newLeaf returns a valued, childless node owned by session id.
func newLeaf[T any](id uint64, p netip.Prefix, k key128, pb uint8, v T) *pnode[T] {
	n := &pnode[T]{key: k, bits: pb, hasVal: true, prefix: p, val: v}
	n.setOwner(id)
	return n
}

// Persistent is an immutable LPM table version. The zero value is the
// usable empty table; Insert and Delete return new versions and never
// modify the receiver. Methods on a *Persistent are safe for concurrent
// use by any number of readers while writers build successors.
type Persistent[T any] struct {
	root4 *pnode[T]
	root6 *pnode[T]
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
	k := keyOf(p.Addr())
	pb := uint8(p.Bits())
	added := false
	if p.Addr().Is4() {
		t.root4 = insertP(t.root4, id, p, k, pb, v, &added)
	} else {
		t.root6 = insertP(t.root6, id, p, k, pb, v, &added)
	}
	if added {
		t.size++
	}
}

// insertP returns the root of a subtree equal to n with (p, v) stored.
// Nodes on the descent path that session id does not own are copied;
// the ones it owns are changed in place.
func insertP[T any](n *pnode[T], id uint64, p netip.Prefix, k key128, pb uint8, v T, added *bool) *pnode[T] {
	if n == nil {
		*added = true
		return newLeaf(id, p, k, pb, v)
	}
	if n.bits == pb && n.key == k {
		*added = !n.hasVal
		c := n.own(id)
		c.val = v
		c.hasVal = true
		c.prefix = p
		return c
	}
	if n.covers(k, pb) {
		// n strictly covers p: descend.
		b := k.bit(n.bits)
		c := n.own(id)
		c.child[b] = insertP(n.child[b], id, p, k, pb, v, added)
		return c
	}
	if pb < n.bits && n.key.hasPrefix(k, pb) {
		// p covers n: the new node takes n as its child.
		*added = true
		nn := newLeaf(id, p, k, pb, v)
		nn.child[n.key.bit(pb)] = n
		return nn
	}
	// Diverge: glue node at the longest common prefix of p and n.
	gb := commonPrefixLen(k, n.key, min(pb, n.bits))
	gp, err := p.Addr().Prefix(int(gb))
	if err != nil {
		return n
	}
	*added = true
	g := &pnode[T]{key: keyOf(gp.Addr()), bits: gb, prefix: gp}
	g.setOwner(id)
	g.child[n.key.bit(gb)] = n
	g.child[k.bit(gb)] = newLeaf(id, p, k, pb, v)
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
	k := keyOf(p.Addr())
	pb := uint8(p.Bits())
	removed := false
	if p.Addr().Is4() {
		t.root4 = deleteP(t.root4, id, k, pb, &removed)
	} else {
		t.root6 = deleteP(t.root6, id, k, pb, &removed)
	}
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
		if !n.hasVal {
			return n
		}
		*removed = true
		switch {
		case n.child[0] != nil && n.child[1] != nil:
			// Still needed as a branch point: keep as glue.
			c := n.own(id)
			var zero T
			c.val = zero
			c.hasVal = false
			return c
		case n.child[0] != nil:
			return n.child[0]
		case n.child[1] != nil:
			return n.child[1]
		default:
			return nil
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
	if !n.hasVal {
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
	cur := t.root6
	if p.Addr().Is4() {
		cur = t.root4
	}
	k := keyOf(p.Addr())
	pb := uint8(p.Bits())
	for cur != nil {
		if cur.bits == pb && cur.key == k {
			if !cur.hasVal {
				return zero, false
			}
			return cur.val, true
		}
		if !cur.covers(k, pb) {
			return zero, false
		}
		cur = cur.child[k.bit(cur.bits)]
	}
	return zero, false
}

// LongestMatch returns the most specific entry covering addr. This is
// the forwarding-worker hot path: a pure pointer walk over immutable
// nodes, no locks, no allocation.
func (t *Persistent[T]) LongestMatch(addr netip.Addr) (netip.Prefix, T, bool) {
	cur := t.root6
	maxBits := uint8(128)
	if addr.Is4() {
		cur = t.root4
		maxBits = 32
	}
	k := keyOf(addr)
	// Remember the best node, not its contents: prefix and value are
	// copied once on return instead of at every valued ancestor.
	var best *pnode[T]
	for cur != nil {
		if cur.bits > maxBits || !k.hasPrefix(cur.key, cur.bits) {
			break
		}
		if cur.hasVal {
			best = cur
		}
		cur = cur.child[k.bit(cur.bits)]
	}
	if best == nil {
		var zero T
		return netip.Prefix{}, zero, false
	}
	return best.prefix, best.val, true
}

// Walk visits every valued entry in lexicographic (DFS pre-)order. fn
// returning false stops the walk. Safe to call on any version at any
// time; versions never change.
func (t *Persistent[T]) Walk(fn func(netip.Prefix, T) bool) {
	if walkP(t.root4, fn) {
		walkP(t.root6, fn)
	}
}

func walkP[T any](n *pnode[T], fn func(netip.Prefix, T) bool) bool {
	if n == nil {
		return true
	}
	var buf [48]*pnode[T]
	stack := append(buf[:0], n)
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if n.hasVal && !fn(n.prefix, n.val) {
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
