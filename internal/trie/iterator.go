package trie

import "net/netip"

// Iterator walks a trie's valued entries in lexicographic order and stays
// safe across trie mutation: the node under the iterator is pinned by a
// reference count, so a paused background task (paper §4, §5.1.2) can
// resume iteration even if "its" route was deleted meanwhile. When the
// iterator leaves a node whose entry was deleted, it performs the deferred
// physical removal (§5.3).
//
// Iterators must be used from the goroutine that owns the trie (the
// process event loop), like every other trie operation.
type Iterator[T any] struct {
	t *Trie[T]
	n *node[T]
}

// Iterate returns an iterator positioned at the first valued entry (IPv4
// entries first, then IPv6). Callers must call Close when done (typically
// deferred), or the pinned node lingers.
func (t *Trie[T]) Iterate() *Iterator[T] {
	it := &Iterator[T]{t: t}
	n := t.root4
	if n == nil {
		n = t.root6
	}
	for n != nil && n.val == nil {
		n = it.successor(n)
	}
	it.pin(n)
	return it
}

// IterateFrom returns an iterator positioned at the first valued entry at
// or after p in lexicographic order. It descends from the root toward p —
// O(prefix length), not O(entries) — so a background task resuming an
// interrupted walk over a full BGP table (§5.1.2) seeks in constant-ish
// time instead of rescanning the table from the start.
func (t *Trie[T]) IterateFrom(p netip.Prefix) *Iterator[T] {
	if !p.IsValid() {
		return t.Iterate()
	}
	it := &Iterator[T]{t: t}
	p = p.Masked()
	n := t.seekFrom(t.rootFor(p), p)
	if n == nil && p.Addr().Is4() {
		// The IPv4 subtree holds nothing at or after p; IPv6 entries all
		// sort after IPv4 ones.
		n = t.root6
	}
	for n != nil && n.val == nil {
		n = it.successor(n)
	}
	it.pin(n)
	return it
}

// seekFrom returns the first node (valued or glue) of root's subtree
// whose prefix is >= p in DFS pre-order, by walking p's word key. At each
// branch point it remembers the deepest right-hand subtree passed over:
// if the descent dead-ends before reaching a node >= p, that subtree's
// head is the DFS successor of p's would-be position.
func (t *Trie[T]) seekFrom(root *node[T], p netip.Prefix) *node[T] {
	k := keyOf(p.Addr())
	pb := uint8(p.Bits())
	var nextRight *node[T]
	n := root
	for n != nil {
		if n.key == k && n.bits >= pb || k.less(n.key) {
			// n sorts at or after p. A node covering p always sorts <= p,
			// so n's subtree lies entirely at or after p and n heads it in
			// DFS order.
			return n
		}
		if !n.covers(k, pb) {
			// n sorts before p and does not cover it: its whole subtree
			// precedes p.
			break
		}
		b := k.bit(n.bits)
		if b == 0 && n.child[1] != nil {
			nextRight = n.child[1] // first subtree after p seen so far
		}
		n = n.child[b]
	}
	return nextRight
}

// ComparePrefix orders prefixes by address, then length — the trie's walk
// order, and the order stages use where they would otherwise emit in map
// iteration order.
func ComparePrefix(a, b netip.Prefix) int {
	if c := a.Addr().Compare(b.Addr()); c != 0 {
		return c
	}
	return a.Bits() - b.Bits()
}

// Valid reports whether the iterator references a node. Note the entry may
// have been deleted while the iterator was paused; Entry distinguishes.
func (it *Iterator[T]) Valid() bool { return it.n != nil }

// Entry returns the prefix and value under the iterator. ok is false if
// the entry was deleted while the iterator was paused on it (the position
// is still valid for Next).
func (it *Iterator[T]) Entry() (p netip.Prefix, v T, ok bool) {
	if it.n == nil {
		return p, v, false
	}
	if it.n.val != nil {
		v, ok = *it.n.val, true
	}
	return it.n.prefix(), v, ok
}

// Prefix returns the prefix under the iterator (zero if invalid).
func (it *Iterator[T]) Prefix() netip.Prefix {
	if it.n == nil {
		return netip.Prefix{}
	}
	return it.n.prefix()
}

// Next advances to the next valued entry, skipping nodes whose entries
// were deleted, and releases (possibly physically deleting) the node it
// leaves.
func (it *Iterator[T]) Next() {
	it.advance()
	for it.n != nil && it.n.val == nil {
		it.advance()
	}
}

// advance moves one node in DFS order regardless of value.
func (it *Iterator[T]) advance() {
	if it.n == nil {
		return
	}
	next := it.successor(it.n)
	old := it.n
	it.pin(next)
	it.unpin(old)
}

// successor is nextNode plus the family hop: when the IPv4 subtree is
// exhausted, iteration continues at the IPv6 root.
func (it *Iterator[T]) successor(n *node[T]) *node[T] {
	next := it.nextNode(n)
	if next == nil && n.v4 {
		return it.t.root6
	}
	return next
}

// Close releases the iterator's pin. Safe to call multiple times.
func (it *Iterator[T]) Close() {
	if it.n != nil {
		old := it.n
		it.n = nil
		it.unpin(old)
	}
}

func (it *Iterator[T]) pin(n *node[T]) {
	it.n = n
	if n != nil {
		n.iterRef++
	}
}

func (it *Iterator[T]) unpin(n *node[T]) {
	if n == nil {
		return
	}
	n.iterRef--
	if n.iterRef == 0 && n.val == nil {
		// Last iterator leaving a deleted node performs the deletion.
		it.t.cleanup(n)
	}
}

// nextNode returns n's DFS successor (child[0], child[1], then up-and-right).
func (it *Iterator[T]) nextNode(n *node[T]) *node[T] {
	if n.child[0] != nil {
		return n.child[0]
	}
	if n.child[1] != nil {
		return n.child[1]
	}
	for n != nil {
		p := n.parent
		if p != nil && p.child[0] == n && p.child[1] != nil {
			return p.child[1]
		}
		n = p
	}
	return nil
}
