// Package trie implements the path-compressed binary (Patricia) trie used
// for every routing table in this XORP reproduction, together with the
// paper's "safe route iterators" (§5.3): iterators that remain valid while
// a background task is paused, even if the route they point at is deleted.
//
// Deletion defers physical node removal while iterators reference a node.
// Each node carries an iterator reference count held in what the paper
// calls "spare bits"; the last iterator to leave a previously-deleted node
// performs the removal.
//
// A Trie transparently holds both IPv4 and IPv6 prefixes (one internal
// root per family — the Go analogue of XORP's per-family C++ template
// instantiations, behind one API).
//
// Traversal never touches address bytes: every node carries its prefix
// bits precomputed as a 128-bit word key, so branch decisions, containment
// checks and divergence points are single word compares
// (bits.LeadingZeros64) instead of per-bit byte extraction.
//
// # Layout
//
// A node is 56 bytes whatever T is: key, two children, parent, a value
// pointer (nil marks glue), the iterator count, the prefix length and a
// family flag. The netip.Prefix is not stored — key, bits and family are
// it, and prefixOf rebuilds it on the way out of LongestMatch, Walk and the
// iterators. Values live in a slab of their own, so the 0.77 glue nodes a
// full table carries per route pay for a pointer, not for a T. Both slabs
// recycle through free lists; a freed value slot is zeroed so what it
// pointed at can be collected.
//
// Beside the tree sits a /16 index: per family, 256 × 256 slots, each the
// topmost node of length ≥ 16 under its /16, or nil. An exact-prefix walk
// (Get, Update and so Upsert and Insert, Delete) for a prefix of /16 or
// longer starts at its slot instead of the root, skipping the top sixteen
// levels — in a full table a near-complete binary tree, sixteen dependent
// loads before the first node that tells two routes apart. The index is a
// 2 KiB array of /8s allocated at the family's first /16-or-longer node,
// and a 2 KiB array of slots per /8 that has held one; arrays are kept once
// allocated, so a full IPv4 table's index is ≈ 450 KiB (3 B per route) and
// churn allocates nothing. Two hooks keep it: a node Update creates under
// a parent shorter than /16 takes its slot, and cleanup hands a removed
// slot node's slot to its only child, or clears it. LongestMatch, Walk,
// WalkCovered and the iterators walk from the root as before.
package trie

import (
	"encoding/binary"
	"fmt"
	mathbits "math/bits"
	"net/netip"
)

// key128 is a prefix's address bits as two big-endian words: bit 0 is the
// most significant bit of hi. IPv4 addresses occupy the top 32 bits of hi
// (families never share a root, so the mapping only needs to be
// order-preserving within a family).
type key128 struct{ hi, lo uint64 }

// keyOf extracts a's bits.
func keyOf(a netip.Addr) key128 {
	if a.Is4() {
		b := a.As4()
		return key128{hi: uint64(binary.BigEndian.Uint32(b[:])) << 32}
	}
	b := a.As16()
	return key128{hi: binary.BigEndian.Uint64(b[:8]), lo: binary.BigEndian.Uint64(b[8:])}
}

// bit returns bit i (0 = most significant) of k. Out-of-range bits read
// as 0, so callers may ask for the branch bit "below" a full-length
// prefix without special-casing (/32 and /128 nodes never have children).
func (k key128) bit(i uint8) int {
	if i < 64 {
		return int(k.hi>>(63-i)) & 1
	}
	if i < 128 {
		return int(k.lo>>(127-i)) & 1
	}
	return 0
}

// hasPrefix reports whether the first n bits of k equal the first n bits
// of p (p is assumed masked to n bits).
func (k key128) hasPrefix(p key128, n uint8) bool {
	switch {
	case n == 0:
		return true
	case n <= 64:
		return (k.hi^p.hi)>>(64-n) == 0
	default:
		return k.hi == p.hi && (k.lo^p.lo)>>(128-n) == 0
	}
}

// masked returns k with every bit past the first n cleared.
func (k key128) masked(n uint8) key128 {
	switch {
	case n == 0:
		return key128{}
	case n <= 64:
		return key128{hi: k.hi &^ (^uint64(0) >> n)}
	case n < 128:
		return key128{hi: k.hi, lo: k.lo &^ (^uint64(0) >> (n - 64))}
	}
	return k
}

// prefixOf rebuilds the prefix a node stands for from its key, length and
// family. It does not allocate.
func prefixOf(k key128, bits uint8, v4 bool) netip.Prefix {
	if v4 {
		var b [4]byte
		binary.BigEndian.PutUint32(b[:], uint32(k.hi>>32))
		return netip.PrefixFrom(netip.AddrFrom4(b), int(bits))
	}
	var b [16]byte
	binary.BigEndian.PutUint64(b[:8], k.hi)
	binary.BigEndian.PutUint64(b[8:], k.lo)
	return netip.PrefixFrom(netip.AddrFrom16(b), int(bits))
}

// less orders keys lexicographically (most significant word first).
func (k key128) less(o key128) bool {
	if k.hi != o.hi {
		return k.hi < o.hi
	}
	return k.lo < o.lo
}

// commonPrefixLen returns the length of the longest common prefix of a
// and b, capped at max.
func commonPrefixLen(a, b key128, max uint8) uint8 {
	n := uint8(mathbits.LeadingZeros64(a.hi ^ b.hi))
	if n == 64 {
		n += uint8(mathbits.LeadingZeros64(a.lo ^ b.lo))
	}
	if n > max {
		return max
	}
	return n
}

// node is a trie node. A node either carries a value (a real route) or is
// structural "glue" at a branch point. Glue nodes with fewer than two
// children are spliced out as soon as no iterator references them.
type node[T any] struct {
	key     key128 // the prefix's address bits
	child   [2]*node[T]
	parent  *node[T]
	val     *T // into the trie's value slab; nil marks glue
	iterRef int32
	bits    uint8 // the prefix's length
	v4      bool  // family: the root a node hangs under never changes
}

// prefix returns the prefix n stands for.
func (n *node[T]) prefix() netip.Prefix { return prefixOf(n.key, n.bits, n.v4) }

// covers reports whether n's prefix covers (k, kb): equal or less specific.
func (n *node[T]) covers(k key128, kb uint8) bool {
	return n.bits <= kb && k.hasPrefix(n.key, n.bits)
}

// Trie is a longest-prefix-match table mapping netip.Prefix to values of
// type T. IPv4 and IPv6 prefixes coexist (separate internal roots). The
// zero value is not usable; call New.
type Trie[T any] struct {
	root4 *node[T] // created on first v4 insert; never removed
	root6 *node[T] // created on first v6 insert; never removed
	size  int

	// Nodes come from slab blocks with removed nodes recycled through a
	// freelist, so a full-table load costs one heap allocation per
	// nodeSlabSize inserts instead of one per node, and steady-state churn
	// costs none. Recycled memory stays with the trie — the right trade
	// for long-lived, churning routing tables.
	slab []node[T]
	free *node[T] // freelist threaded through the parent pointer

	// Values likewise, in blocks of their own: only valued nodes take one.
	vals  []T
	vfree []*T // freed slots, zeroed

	// jump is the /16 index (see Layout), [0] IPv4 and [1] IPv6: per /16,
	// the topmost node of length ≥ 16 under it, or nil.
	jump [2]*[256]*[256]*node[T]
}

// jumpBits is the prefix length the index resolves.
const jumpBits = 16

// family is a node's index into jump.
func family(v4 bool) int {
	if v4 {
		return 0
	}
	return 1
}

// jumpTo returns the slot's node for key k's /16, or nil.
func (t *Trie[T]) jumpTo(k key128, v4 bool) *node[T] {
	if top := t.jump[family(v4)]; top != nil {
		if sub := top[k.hi>>56]; sub != nil {
			return sub[k.hi>>48&0xff]
		}
	}
	return nil
}

// slot returns n's /16 slot, allocating its levels of the index if new.
func (t *Trie[T]) slot(n *node[T]) **node[T] {
	top := &t.jump[family(n.v4)]
	if *top == nil {
		*top = new([256]*[256]*node[T])
	}
	sub := &(*top)[n.key.hi>>56]
	if *sub == nil {
		*sub = new([256]*node[T])
	}
	return &(*sub)[n.key.hi>>48&0xff]
}

// reslot hands n's slot, if n holds one, to c (nil clears it). n is
// leaving the tree and c, if any, takes its place under n's parent.
func (t *Trie[T]) reslot(n, c *node[T]) {
	if n.bits >= jumpBits && n.parent.bits < jumpBits {
		*t.slot(n) = c
	}
}

// nodeSlabSize is the growth quantum of both slabs. A block of 255 nodes
// and the allocator's 8-byte header fill the 14,336-byte size class
// exactly; a 256th node would spill every block into the 16 KB class and
// waste an eighth of it (likewise 255 pointer-sized values and 2,048, and
// 255 of the RIB's 48-byte route.Stored and 12,288: a 256th makes it 13,568).
const nodeSlabSize = 255

// newNode returns a zeroed node from the freelist or the current slab.
func (t *Trie[T]) newNode() *node[T] {
	if n := t.free; n != nil {
		t.free = n.parent
		n.parent = nil
		return n
	}
	if len(t.slab) == 0 {
		t.slab = make([]node[T], nodeSlabSize)
	}
	n := &t.slab[0]
	t.slab = t.slab[1:]
	return n
}

// freeNode recycles a detached node. Callers guarantee it is out of the
// tree, valueless and unreferenced by iterators.
func (t *Trie[T]) freeNode(n *node[T]) {
	*n = node[T]{parent: t.free}
	t.free = n
}

// newVal returns a slot holding v from the value freelist or slab.
func (t *Trie[T]) newVal(v T) *T {
	var p *T
	if last := len(t.vfree) - 1; last >= 0 {
		p, t.vfree = t.vfree[last], t.vfree[:last]
	} else {
		if len(t.vals) == 0 {
			t.vals = make([]T, nodeSlabSize)
		}
		p, t.vals = &t.vals[0], t.vals[1:]
	}
	*p = v
	return p
}

// freeVal recycles a value slot, zeroing it: the slot outlives the entry,
// and must not keep what the entry pointed at alive.
func (t *Trie[T]) freeVal(p *T) {
	var zero T
	*p = zero
	t.vfree = append(t.vfree, p)
}

// New returns an empty trie.
func New[T any]() *Trie[T] { return &Trie[T]{} }

// Len returns the number of valued entries.
func (t *Trie[T]) Len() int { return t.size }

// rootFor returns the root for p's family (nil if never created).
func (t *Trie[T]) rootFor(p netip.Prefix) *node[T] {
	if p.Addr().Is4() {
		return t.root4
	}
	return t.root6
}

// ensureRoot returns (creating if needed) the root for p's family.
func (t *Trie[T]) ensureRoot(p netip.Prefix) *node[T] {
	if p.Addr().Is4() {
		if t.root4 == nil {
			t.root4 = &node[T]{v4: true}
		}
		return t.root4
	}
	if t.root6 == nil {
		t.root6 = &node[T]{}
	}
	return t.root6
}

// isRoot reports whether n is one of the family roots.
func (t *Trie[T]) isRoot(n *node[T]) bool { return n == t.root4 || n == t.root6 }

// Insert adds or replaces the value for p (which is masked first). It
// reports whether an existing value was replaced, and returns an error on
// an invalid prefix.
func (t *Trie[T]) Insert(p netip.Prefix, v T) (replaced bool, err error) {
	if !p.IsValid() {
		return false, fmt.Errorf("trie: invalid prefix %v", p)
	}
	_, replaced = t.Upsert(p, v)
	return replaced, nil
}

// Upsert adds or replaces the value for p (masked first) in a single
// traversal, returning the previous value if one existed — the combined
// Get+Insert the RIB's origin tables perform per arriving route. An
// invalid prefix is a no-op reporting existed=false.
func (t *Trie[T]) Upsert(p netip.Prefix, v T) (old T, existed bool) {
	t.Update(p, func(s *T, had bool) bool {
		old, existed, *s = *s, had, v
		return true
	})
	return old, existed
}

// Update is find-or-insert on p's value slot (p masked first) in one walk:
// fn may change the stored value (existed) or a zeroed new one, and says
// whether p keeps an entry. A stored one not kept is deleted; for a new one
// not kept nothing is built. fn must not touch the trie.
func (t *Trie[T]) Update(p netip.Prefix, fn func(v *T, existed bool) (keep bool)) {
	if !p.IsValid() {
		return
	}
	p = p.Masked()
	n, k, pb := t.deepest(p)
	if n != nil && n.bits == pb && n.val != nil {
		if !fn(n.val, true) {
			t.drop(n)
		}
		return
	}
	v := t.newVal(*new(T))
	if !fn(v, false) {
		t.freeVal(v)
		return
	}
	if n == nil {
		n = t.ensureRoot(p)
	}
	for n.bits != pb {
		// Invariant: n strictly covers p and no child of n does.
		b := k.bit(n.bits)
		c := n.child[b]
		if c == nil {
			c = t.newNode()
			c.key, c.bits, c.v4, c.parent = k, pb, n.v4, n
			n.child[b] = c
		} else {
			// p and c part at their longest common prefix: a glue node
			// there, between n and c, which is p's own when p covers c.
			gb := commonPrefixLen(k, c.key, min(pb, c.bits))
			g := t.newNode()
			g.key, g.bits, g.v4, g.parent = k.masked(gb), gb, n.v4, n
			g.child[c.key.bit(gb)] = c
			n.child[b], c.parent, c = g, g, g
		}
		if n.bits < jumpBits && c.bits >= jumpBits {
			*t.slot(c) = c // the topmost node of its /16
		}
		n = c
	}
	n.val = v
	t.size++
}

// deepest returns the deepest node covering p (masked), which is p's own
// if p has a node, or nil if p's family has no root; and p's key and length.
// A prefix of at least jumpBits starts at its /16's slot: every node under
// that /16 is in the slot node's subtree, and every node above it is
// shorter than /16, so if the slot's node does not cover p its parent is
// the deepest node that does.
func (t *Trie[T]) deepest(p netip.Prefix) (n *node[T], k key128, pb uint8) {
	k, pb = keyOf(p.Addr()), uint8(p.Bits())
	c := t.rootFor(p)
	if pb >= jumpBits {
		if s := t.jumpTo(k, p.Addr().Is4()); s != nil {
			if !s.covers(k, pb) {
				return s.parent, k, pb
			}
			c = s
		}
	}
	for ; c != nil && c.covers(k, pb); c = c.child[k.bit(c.bits)] {
		if n = c; c.bits == pb {
			break
		}
	}
	return n, k, pb
}

// find returns the node holding an entry exactly at p, or nil.
func (t *Trie[T]) find(p netip.Prefix) *node[T] {
	if !p.IsValid() {
		return nil
	}
	if n, _, pb := t.deepest(p.Masked()); n != nil && n.bits == pb && n.val != nil {
		return n
	}
	return nil
}

// Get returns the value stored exactly at p.
func (t *Trie[T]) Get(p netip.Prefix) (v T, ok bool) {
	if n := t.find(p); n != nil {
		v, ok = *n.val, true
	}
	return v, ok
}

// Delete removes the entry stored exactly at p, returning the removed
// value; a miss only reads the trie.
func (t *Trie[T]) Delete(p netip.Prefix) (v T, existed bool) {
	if n := t.find(p); n != nil {
		v, existed = *n.val, true
		t.drop(n)
	}
	return v, existed
}

// drop deletes n's entry; an iterator on n defers the node's removal until
// the last one leaves (§5.3).
func (t *Trie[T]) drop(n *node[T]) {
	t.freeVal(n.val)
	n.val = nil
	t.size--
	t.cleanup(n)
}

// cleanup physically removes n if it is valueless, unreferenced, and
// structurally unnecessary, cascading to parents that become removable.
func (t *Trie[T]) cleanup(n *node[T]) {
	for n != nil && !t.isRoot(n) && n.val == nil && n.iterRef == 0 {
		switch {
		case n.child[0] != nil && n.child[1] != nil:
			return // needed as a branch point
		case n.child[0] == nil && n.child[1] == nil:
			t.reslot(n, nil)
			p := n.parent
			if p.child[0] == n {
				p.child[0] = nil
			} else {
				p.child[1] = nil
			}
			t.freeNode(n)
			n = p
		default:
			c := n.child[0]
			if c == nil {
				c = n.child[1]
			}
			t.reslot(n, c)
			p := n.parent
			if p.child[0] == n {
				p.child[0] = c
			} else {
				p.child[1] = c
			}
			c.parent = p
			t.freeNode(n)
			return
		}
	}
}

// LongestMatch returns the most specific entry covering addr.
func (t *Trie[T]) LongestMatch(addr netip.Addr) (netip.Prefix, T, bool) {
	cur := t.root6
	maxBits := uint8(128)
	if addr.Is4() {
		cur = t.root4
		maxBits = 32
	}
	k := keyOf(addr)
	// Remember the best node, not its contents: prefix and value are
	// built once on return instead of at every valued ancestor.
	var best *node[T]
	for cur != nil {
		if cur.bits > maxBits || !k.hasPrefix(cur.key, cur.bits) {
			break
		}
		if cur.val != nil {
			best = cur
		}
		cur = cur.child[k.bit(cur.bits)]
	}
	if best == nil {
		var zero T
		return netip.Prefix{}, zero, false
	}
	return best.prefix(), *best.val, true
}

// Walk visits every valued entry in lexicographic (DFS pre-)order. fn
// returning false stops the walk. The trie must not be mutated during the
// walk; use an Iterator for that.
func (t *Trie[T]) Walk(fn func(netip.Prefix, T) bool) {
	if t.root4 != nil && !t.walkSubtree(t.root4, fn) {
		return
	}
	if t.root6 != nil {
		t.walkSubtree(t.root6, fn)
	}
}

// walkSubtree is an iterative pre-order DFS with an explicit stack: a
// /0→/128 chain is 129 nodes deep, and recursing per node costs a call
// frame each. The stack holds pending right-hand subtrees, so its depth
// is bounded by the tree depth; the array backing keeps the common case
// allocation-free.
func (t *Trie[T]) walkSubtree(n *node[T], fn func(netip.Prefix, T) bool) bool {
	if n == nil {
		return true
	}
	var buf [48]*node[T]
	stack := append(buf[:0], n)
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if n.val != nil && !fn(n.prefix(), *n.val) {
			return false
		}
		// Push right first so the left subtree pops (and is visited) first.
		if n.child[1] != nil {
			stack = append(stack, n.child[1])
		}
		if n.child[0] != nil {
			stack = append(stack, n.child[0])
		}
	}
	return true
}

// WalkCovered visits every valued entry whose prefix is contained within p
// (including an entry exactly at p).
func (t *Trie[T]) WalkCovered(p netip.Prefix, fn func(netip.Prefix, T) bool) {
	p = p.Masked()
	cur := t.rootFor(p)
	if cur == nil || !p.IsValid() {
		return
	}
	k := keyOf(p.Addr())
	pb := uint8(p.Bits())
	for cur != nil {
		if cur.bits >= pb && cur.key.hasPrefix(k, pb) {
			t.walkSubtree(cur, fn)
			return
		}
		if !cur.covers(k, pb) {
			return
		}
		cur = cur.child[k.bit(cur.bits)]
	}
}

// HasEntryInside reports whether any valued entry lies strictly within p
// (more specific than p itself).
func (t *Trie[T]) HasEntryInside(p netip.Prefix) bool {
	found := false
	t.WalkCovered(p, func(q netip.Prefix, _ T) bool {
		if q.Bits() > p.Bits() {
			found = true
			return false
		}
		return true
	})
	return found
}
