package trie

import "net/netip"

// Table is a mutable longest-prefix-match table: the persistent layout
// held by one long-lived session, so its writes land in place, copying
// first only what a Pin holds. It belongs to one goroutine, and is never
// written inside its own Walk or WalkFrom: a write there panics, since it
// could recycle the node the walk stands on.
type Table[T any] struct {
	s       session[T]
	scratch T   // Update's value for an absent prefix; zero between writes
	walking int // walks in progress
}

// New returns an empty table.
func New[T any]() *Table[T] {
	t := &Table[T]{}
	t.s = session[T]{id: newID(), blocks: true, scratch: &t.scratch}
	return t
}

// Pin returns the table's contents as an immutable version, which no later
// write changes: it renews the table's owner id, so each later write
// copies what it touches of the version, once, before writing it. Until
// the next pin the table writes its own copies in place again.
func (t *Table[T]) Pin() Persistent[T] {
	t.s.id, t.s.blocks = newID(), false
	t.s.blockG, t.s.blockI, t.s.blockL = nil, nil, nil // a block's unused tail would keep its dead nodes alive
	return t.s.tbl
}

// Live returns the table's contents without a pin: the table itself,
// valid until its next write.
func (t *Table[T]) Live() Persistent[T] { return t.s.tbl }

// Len returns the number of valued entries.
func (t *Table[T]) Len() int { return t.s.tbl.size }

// Get returns the value stored exactly at p.
func (t *Table[T]) Get(p netip.Prefix) (T, bool) { return t.s.tbl.Get(p) }

// LongestMatch returns the most specific entry covering addr.
func (t *Table[T]) LongestMatch(addr netip.Addr) (netip.Prefix, T, bool) {
	return t.s.tbl.LongestMatch(addr)
}

// HasEntryInside reports whether any entry lies strictly within p (more
// specific than p itself).
func (t *Table[T]) HasEntryInside(p netip.Prefix) bool { return t.s.tbl.hasEntryInside(p) }

// Upsert stores v at p (masked first), returning the value it replaced,
// in one descent. An invalid prefix is a no-op reporting existed=false.
func (t *Table[T]) Upsert(p netip.Prefix, v T) (old T, existed bool) {
	w := write[T]{v: v}
	t.write(p, &w, nil)
	return w.old, w.existed
}

// Delete removes the entry stored exactly at p, returning the removed
// value; a miss only reads the table.
func (t *Table[T]) Delete(p netip.Prefix) (old T, existed bool) {
	w := write[T]{del: true}
	t.write(p, &w, nil)
	return w.old, w.existed
}

// Update is find-or-insert on p's value (p masked first) in one descent:
// fn may change the stored value (existed) in place, or a zeroed one for
// an absent prefix, and says whether p keeps an entry. A stored one not
// kept is deleted; for an absent one not kept nothing is built. fn must
// not touch the table.
func (t *Table[T]) Update(p netip.Prefix, fn func(v *T, existed bool) (keep bool)) {
	t.write(p, &write[T]{}, fn)
}

func (t *Table[T]) write(p netip.Prefix, w *write[T], fn update[T]) {
	if t.walking != 0 {
		panic("trie: table written inside its own walk")
	}
	t.s.write(p, w, fn)
}

// Walk visits every entry in ComparePrefix order, IPv4 first. fn returning
// false stops the walk; fn must not write the table.
func (t *Table[T]) Walk(fn func(netip.Prefix, T) bool) { t.WalkFrom(netip.Prefix{}, fn) }

// WalkFrom is Walk resumed after from: it visits the entries that follow
// from in ComparePrefix order, whether or not from itself is stored, and
// seeks there in O(depth). An invalid from walks the whole table.
func (t *Table[T]) WalkFrom(from netip.Prefix, fn func(netip.Prefix, T) bool) {
	t.walking++
	defer t.endWalk()
	t.s.tbl.walkFrom(from, fn)
}

func (t *Table[T]) endWalk() { t.walking-- }
