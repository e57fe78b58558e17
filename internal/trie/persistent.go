// Persistent is an immutable table version: a change copies only the path
// from the root to its prefix, so a version is read lock-free while the
// table it was pinned from goes on changing — the kernel FIB's table, whose
// pinned versions internal/fwd hands to readers that hold a snapshot.
//
// # Layout
//
// The first fanLevels nibbles of an address are resolved by 16-way fans,
// one nibble a level. The last fan's sixteen slots are Patricia roots,
// each the trie of every prefix sharing those leading 16 bits (a /16's
// trie for IPv4). A prefix too short to name a slot of the fan it reaches
// (length 4d…4d+3 at depth d) lives in that fan's own small trie. In a
// full IPv4 table the top of a binary trie is an almost complete tree, so
// the fans replace ≈ 16 of the 18 nodes on the path to a route. A lookup
// reads the /16's trie first and the fans' own tries only when nothing
// there matched, deepest fan first: a deeper match is the longer one.
//
// A node is one of three kinds, which its header's kind byte names:
// glue, valueless and always with two children; inner, valued with at
// least one child; and leaf, valued with none. The header is 16 bytes: the
// key's first word, the owner mark, the length and the kind. Glue and
// inner nodes carry their pair of children right after it (a branch); a
// leaf has no pair, and kids(), the one read of a node's children, answers
// none for it. A valued node is one allocation with its value, value()
// reaching its tail: with a 16-byte value a leaf is 32 bytes, an inner
// node 48 and glue 32. Every IPv4 prefix, and every IPv6 one of at most 64
// bits, is whole in the header's word. A longer node is wide: an 8-byte
// word after the header (after the child pair, if it has one) holds the
// second, before the value of a valued one, and its length alone (bits >
// 64) says so, so key() and value() read that word only then. No node
// stores a netip.Prefix or a pointer to itself: key, length and root are
// the prefix. A valued node is copied with its value, and a wide one with
// its second word: a copy pointing into the old allocation would pin one
// old version of the subtree below (TestPersistentChurnHoldsOneVersion).
//
// A node's kind follows its children, so the layout stays canonical under
// churn: a leaf that gains a child is copied into an inner node, an inner
// node that loses its last child is copied into a leaf, and a glue node
// left with one child splices out. A node is inner exactly when it is
// valued and has a child.
//
// # Sessions, the owner mark and pins
//
// Every write goes through a session: the table it changes, and the id
// that marks the nodes it owns. Every node and fan carries the id of the
// session that allocated it. A session writes the ones it owns in place
// and copies any other first, so a node is copied at most once per id,
// shape moves aside, and a node marked with an older id is never written. Every write is one
// descent (session.put): on the way back up a node is copied, or written
// when owned, only if the pointer below it changed; Insert, Delete and
// Table.Update are its three cases.
//
// A Table is one long-lived session. Table.Pin hands out its contents as
// an immutable version and gives the session a fresh id, so every node
// the version can reach carries an older mark: the writes after a pin
// copy what they touch of it, once each. A table nobody pins copies
// nothing. Table.Live hands out the contents without a pin.
//
// Ids come from one process-wide 48-bit counter that panics rather than
// wrap: a repeated id would take nodes a pinned version holds for its
// own. Id 0 owns nothing; Persistent.Insert and Delete run in that mode,
// one copied path per change. The mark is three uint16s, so that it and
// the prefix length and the kind fill the header's last eight bytes
// (TestPnodeSize).
//
// # Reuse
//
// A node a session owns and drops was never reachable from a pinned
// version, so the session zeroes its whole allocation and keeps it on one
// of six free lists, one for each kind and width, and takes new nodes from
// them first: churn allocates nothing. Glue and inner nodes are linked
// through their first child. A leaf has no child word to link a list
// through, so the leaf lists are stacks of pointers the session holds,
// which grow only past their high-water mark. A shape move recycles too:
// the leaf an inner node was copied from goes on a leaf list.
// Only nodes that pass the owner check are recycled. A fan the session
// owns stays when it empties, for the next route under it; one it would
// have to copy to empty it goes instead, so Persistent.Delete prunes, an
// unpinned Table keeps, and a pinned one drops what the pin holds. Until
// its first pin a Table takes new narrow nodes from blocks (newBlock), one
// block type for each kind: after a pin, one live node would keep a block
// of a pinned version's dead ones. Wide nodes, IPv6's longer prefixes
// only, never take blocks.

package trie

import (
	"net/netip"
	"sync/atomic"
	"unsafe"
)

// editIDBits is the width of the owner mark.
const editIDBits = 48

// editIDs issues session ids; see the file header.
var editIDs atomic.Uint64

// newID returns a session id no node carries yet.
func newID() uint64 {
	id := editIDs.Add(1)
	if id >= 1<<editIDBits {
		panic("trie: session ids exhausted")
	}
	return id
}

// owner is a session id as a node stores it.
type owner [3]uint16

func ownerMark(id uint64) owner {
	return owner{uint16(id), uint16(id >> 16), uint16(id >> 32)}
}

// is reports whether the mark is session id's. Id 0 owns nothing.
func (o owner) is(id uint64) bool { return id != 0 && o == ownerMark(id) }

// pnode is the header of every Patricia node: what the kind byte says
// follows it is the rest of its allocation. It has no parent pointer:
// paths are copied root-down. It keeps its key's first word; a node longer
// than 64 bits is wide, and keeps the second after it.
type pnode[T any] struct {
	hi    uint64
	owner owner
	bits  uint8
	kind  kind
}

// kind is what a node's allocation holds past its header.
type kind uint8

const (
	glueKind  kind = iota // a branch: no value, two children
	innerKind             // an inner[T] or wideInner[T]: a value and at least one child
	leafKind              // a leaf[T] or wideLeaf[T]: a value and no children
)

// branch is the allocation behind a glue node of at most 64 bits, and the
// front of every node with children.
type branch[T any] struct {
	pnode[T]
	child [2]*pnode[T]
}

// wideBranch is the allocation behind a glue node longer than 64 bits,
// and the front of a wideInner: lo is the key's second word.
type wideBranch[T any] struct {
	branch[T]
	lo uint64
}

// inner is the allocation behind an inner node of at most 64 bits.
type inner[T any] struct {
	branch[T]
	v T
}

// wideInner is the allocation behind an inner node longer than 64 bits.
type wideInner[T any] struct {
	wideBranch[T]
	v T
}

// leaf is the allocation behind a leaf of at most 64 bits.
type leaf[T any] struct {
	pnode[T]
	v T
}

// wideLeaf is the allocation behind a leaf longer than 64 bits.
type wideLeaf[T any] struct {
	pnode[T]
	lo uint64
	v  T
}

// kids returns n's children: none for a leaf, which has no child words.
// Every read of a child goes through it.
func (n *pnode[T]) kids() (c [2]*pnode[T]) {
	if n.kind != leafKind {
		c = (*branch[T])(unsafe.Pointer(n)).child
	}
	return c
}

// lo returns the second word of n's key: the one after its header, or
// after its child pair, when n is wide, and otherwise 0, since the key is
// masked to n's length.
func (n *pnode[T]) lo() uint64 {
	switch {
	case n.bits <= 64:
		return 0
	case n.kind == leafKind:
		return (*wideLeaf[T])(unsafe.Pointer(n)).lo
	}
	return (*wideBranch[T])(unsafe.Pointer(n)).lo
}

// key returns n's key.
func (n *pnode[T]) key() key128 { return key128{n.hi, n.lo()} }

// value returns the value of n, which must be a valued node: the tail of
// the allocation n heads.
func (n *pnode[T]) value() *T {
	switch wide := n.bits > 64; {
	case n.kind == leafKind && wide:
		return &(*wideLeaf[T])(unsafe.Pointer(n)).v
	case n.kind == leafKind:
		return &(*leaf[T])(unsafe.Pointer(n)).v
	case wide:
		return &(*wideInner[T])(unsafe.Pointer(n)).v
	}
	return &(*inner[T])(unsafe.Pointer(n)).v
}

// blockBytes is the size class an unpinned Table's blocks fill.
const blockBytes = 8192

// newBlock returns as many zeroed nodes of type N as fit, with the
// allocator's 8-byte header, in the 8,192-byte size class: each node type
// has its own count (255 of the 32-byte leaves and glue every route table
// keeps, 170 of its 48-byte inner nodes), and a node more would spill the
// block into the next class.
func newBlock[N any]() []N {
	var n N
	return make([]N, (blockBytes-8)/unsafe.Sizeof(n))
}

// covers reports whether n's prefix covers (k, kb). It spells the key out
// where key() would take it past the inliner's budget, and every descent
// calls it at every level.
func (n *pnode[T]) covers(k key128, kb uint8) bool {
	return n.bits <= kb && k.hasPrefix(key128{n.hi, n.lo()}, n.bits)
}

// fanLevels is how many leading nibbles of an address the fans resolve.
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

// own returns the fan session id may write in f's place: f itself when
// the session allocated it, otherwise a copy marked as the session's; a
// nil f yields an empty fan for depth.
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

// holds reports whether slot i of f holds an entry. A Table keeps emptied
// fans, so a fan in a slot may hold nothing.
func (f *fan[T]) holds(i int) bool {
	if f.tries != nil {
		return f.tries[i] != nil
	}
	k := f.kids[i]
	if k == nil || k.sub != nil {
		return k != nil
	}
	for j := range 16 {
		if k.holds(j) {
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

// Persistent is an immutable LPM table version. The zero value is the
// usable empty table; Insert and Delete return new versions and never
// modify the receiver. Methods on a *Persistent are safe for concurrent
// use by any number of readers while writers build successors — except
// on a Table.Live view, which is the table itself until its next write.
type Persistent[T any] struct {
	root4 *fan[T]
	root6 *fan[T]
	size  int
}

// NewPersistent returns the empty table version.
func NewPersistent[T any]() *Persistent[T] { return &Persistent[T]{} }

// Len returns the number of valued entries.
func (t *Persistent[T]) Len() int { return t.size }

// session is the writer of a table: the contents it is changing, the id
// that marks the nodes it owns, and what it keeps for reuse (see Reuse in
// the file header).
type session[T any] struct {
	tbl            Persistent[T]
	id             uint64
	freeG, freeI   *pnode[T]   // dropped glue and inner nodes, zeroed but for the link
	freeWG, freeWI *pnode[T]   // the same, wide
	freeL, freeWL  []*pnode[T] // dropped leaves, narrow and wide, zeroed
	blocks         bool        // takes new narrow nodes from blocks: a Table's, until its first pin
	blockG         []branch[T]
	blockI         []inner[T]
	blockL         []leaf[T]
	scratch        *T // what an update is handed for an absent prefix; zero between writes
}

// update is Table.Update's callback. The descent passes it beside the
// write, never inside it: a closure stored in a struct whose contents
// reach the heap would escape with them.
type update[T any] func(v *T, existed bool) (keep bool)

// write is one change to one prefix as the descent applies it: store v,
// delete, or, with an update, whatever the update decides.
type write[T any] struct {
	v       T
	old     T // the value the prefix held, for the fixed cases
	del     bool
	existed bool
	kept    bool
}

// inPlace applies w, or fn, to an entry the session owns, and reports
// whether the entry stays.
func (w *write[T]) inPlace(v *T, fn update[T]) bool {
	w.existed = true
	if fn != nil {
		w.kept = fn(v, true)
		return w.kept
	}
	w.old = *v
	if w.kept = !w.del; w.kept {
		*v = w.v
	}
	return w.kept
}

// fresh applies w, or fn, where the result needs a node of its own: the
// prefix is absent (cur nil), or its node is not the session's to write.
// It returns the value to store, and whether to store one.
func (s *session[T]) fresh(w *write[T], cur *T, fn update[T]) (v T, keep bool) {
	w.existed = cur != nil
	if fn == nil {
		if cur != nil {
			w.old = *cur
		}
		w.kept = !w.del
		return w.v, w.kept
	}
	if cur != nil {
		*s.scratch = *cur
	}
	w.kept = fn(s.scratch, w.existed)
	v = *s.scratch
	var zero T
	*s.scratch = zero
	return v, w.kept
}

// write applies w, or fn, at p (masked first); an invalid prefix is
// ignored.
func (s *session[T]) write(p netip.Prefix, w *write[T], fn update[T]) {
	if !p.IsValid() {
		return
	}
	p = p.Masked()
	root, _ := s.tbl.root(p.Addr())
	*root = s.putFan(*root, 0, keyOf(p.Addr()), uint8(p.Bits()), w, fn)
	switch {
	case w.kept && !w.existed:
		s.tbl.size++
	case w.existed && !w.kept:
		s.tbl.size--
	}
}

// putFan returns f, which sits at depth, with the write applied at
// (k, pb): f itself when nothing under it moved, nil when the write
// empties a fan the session does not own. One it owns stays, for the
// next route under it.
func (s *session[T]) putFan(f *fan[T], depth uint8, k key128, pb uint8, w *write[T], fn update[T]) *fan[T] {
	var (
		i       = k.nibble(depth)
		sub     = pb < 4*(depth+1)
		n, m    *pnode[T]
		kid, nk *fan[T]
	)
	switch {
	case sub:
		if f != nil {
			n = f.sub
		}
		m = s.put(n, k, pb, w, fn)
	case depth == fanLevels-1:
		if f != nil {
			n = f.tries[i]
		}
		m = s.put(n, k, pb, w, fn)
	default:
		if f != nil {
			kid = f.kids[i]
		}
		nk = s.putFan(kid, depth+1, k, pb, w, fn)
	}
	if m == n && nk == kid {
		return f
	}
	if m == nil && nk == nil && !f.owner.is(s.id) && (sub || f.sub == nil) {
		empty := true
		for j := range 16 {
			empty = empty && (j == i && !sub || !f.holds(j))
		}
		if empty {
			return nil // dropped, where keeping it would cost a copy
		}
	}
	c := f.own(s.id, depth)
	switch {
	case sub:
		c.sub = m
	case c.tries != nil:
		c.tries[i] = m
	default:
		c.kids[i] = nk
	}
	return c
}

// put returns the root of a subtree equal to n with the write applied at (k, pb):
// n itself when no pointer under it changed. A node the session does not
// own is copied before it is written, and only then; a node it owns and
// drops is recycled.
func (s *session[T]) put(n *pnode[T], k key128, pb uint8, w *write[T], fn update[T]) *pnode[T] {
	switch {
	case n == nil:
		if v, keep := s.fresh(w, nil, fn); keep {
			return s.valued(pnode[T]{hi: k.hi, bits: pb}, k.lo, [2]*pnode[T]{}, v)
		}
		return nil
	case n.bits == pb && n.key() == k:
		return s.at(n, w, fn)
	case n.covers(k, pb):
		b := k.bit(n.bits)
		kids := n.kids()
		c := s.put(kids[b], k, pb, w, fn)
		switch {
		case c == kids[b]:
			return n
		case c == nil && n.kind == glueKind:
			// A glue node left with one child splices out.
			s.recycle(n)
			return kids[1-b]
		case n.kind != leafKind && (c != nil || kids[1-b] != nil) && n.owner.is(s.id):
			// n keeps its kind, and is the session's to write.
			(*branch[T])(unsafe.Pointer(n)).child[b] = c
			return n
		}
		kids[b] = c
		return s.relink(n, kids)
	}
	v, keep := s.fresh(w, nil, fn)
	if !keep {
		return n
	}
	var kids [2]*pnode[T]
	nk := n.key()
	if pb < n.bits && nk.hasPrefix(k, pb) {
		// p covers n: the new node takes n as its child.
		kids[nk.bit(pb)] = n
		return s.valued(pnode[T]{hi: k.hi, bits: pb}, k.lo, kids, v)
	}
	// Diverge: glue node at the longest common prefix of p and n.
	gb := commonPrefixLen(k, nk, min(pb, n.bits))
	gk := k.masked(gb)
	kids[nk.bit(gb)] = n
	kids[k.bit(gb)] = s.valued(pnode[T]{hi: k.hi, bits: pb}, k.lo, [2]*pnode[T]{}, v)
	return s.glue(pnode[T]{hi: gk.hi, bits: gb}, gk.lo, kids)
}

// at applies the write to n, the node exactly at the prefix.
func (s *session[T]) at(n *pnode[T], w *write[T], fn update[T]) *pnode[T] {
	var m *pnode[T]
	kids := n.kids()
	switch {
	case n.kind == glueKind: // the prefix is absent
		v, keep := s.fresh(w, nil, fn)
		if !keep {
			return n
		}
		m = s.valued(*n, n.lo(), kids, v)
	case n.owner.is(s.id):
		if w.inPlace(n.value(), fn) {
			return n
		}
	default:
		if v, keep := s.fresh(w, n.value(), fn); keep {
			return s.valued(*n, n.lo(), kids, v)
		}
	}
	if m == nil { // the entry goes
		switch {
		case kids[0] != nil && kids[1] != nil:
			// Still needed as a branch point: a glue node takes its place.
			m = s.glue(*n, n.lo(), kids)
		case kids[0] != nil:
			m = kids[0]
		default:
			m = kids[1]
		}
	}
	s.recycle(n)
	return m
}

// relink returns a copy of n with children kids, owned by the session
// and of the kind they call for — second key word and value included, see
// the file header — and recycles n: a node the session does not own is
// copied before it is written, a leaf that gains a child becomes an inner
// node, and an inner node that loses its last one a leaf.
func (s *session[T]) relink(n *pnode[T], kids [2]*pnode[T]) *pnode[T] {
	var m *pnode[T]
	if n.kind == glueKind {
		m = s.glue(*n, n.lo(), kids)
	} else {
		m = s.valued(*n, n.lo(), kids, *n.value())
	}
	s.recycle(n)
	return m
}

// valued returns a node owned by the session with hdr's first key word and
// length, lo as the second word when it is wide, children kids and value
// v: a leaf when kids are none, an inner node otherwise. A wide node comes
// from its own free list or the heap, never a block.
func (s *session[T]) valued(hdr pnode[T], lo uint64, kids [2]*pnode[T], v T) *pnode[T] {
	var n *pnode[T]
	hdr.kind = innerKind
	if kids == ([2]*pnode[T]{}) {
		hdr.kind = leafKind
	}
	switch wide := hdr.bits > 64; {
	case hdr.kind == leafKind && wide:
		a := pop[wideLeaf[T]](&s.freeWL)
		n, a.lo, a.v = &a.pnode, lo, v
	case hdr.kind == leafKind && s.blocks && len(s.freeL) == 0:
		a := fromBlock(&s.blockL)
		n, a.v = &a.pnode, v
	case hdr.kind == leafKind:
		a := pop[leaf[T]](&s.freeL)
		n, a.v = &a.pnode, v
	case wide:
		a := take[wideInner[T]](&s.freeWI)
		n, a.child, a.lo, a.v = &a.pnode, kids, lo, v
	case s.blocks && s.freeI == nil:
		a := fromBlock(&s.blockI)
		n, a.child, a.v = &a.pnode, kids, v
	default:
		a := take[inner[T]](&s.freeI)
		n, a.child, a.v = &a.pnode, kids, v
	}
	hdr.owner = ownerMark(s.id)
	*n = hdr
	return n
}

// glue returns a valueless node owned by the session with hdr's first key
// word and length, lo as the second word when it is wide, and children
// kids.
func (s *session[T]) glue(hdr pnode[T], lo uint64, kids [2]*pnode[T]) *pnode[T] {
	var n *pnode[T]
	switch {
	case hdr.bits > 64:
		a := take[wideBranch[T]](&s.freeWG)
		n, a.child, a.lo = &a.pnode, kids, lo
	case s.blocks && s.freeG == nil:
		a := fromBlock(&s.blockG)
		n, a.child = &a.pnode, kids
	default:
		a := take[branch[T]](&s.freeG)
		n, a.child = &a.pnode, kids
	}
	hdr.kind, hdr.owner = glueKind, ownerMark(s.id)
	*n = hdr
	return n
}

// fromBlock returns the next node of the session's block blk, the first
// of a new block when it is used up.
func fromBlock[N any](blk *[]N) *N {
	if len(*blk) == 0 {
		*blk = newBlock[N]()
	}
	n := &(*blk)[0]
	*blk = (*blk)[1:]
	return n
}

// take returns the allocation, of type N, behind the first node on free,
// a list of glue or inner nodes linked through their first child, or a new
// one when free is empty. A free node is zeroed but for its link.
func take[N, T any](free **pnode[T]) *N {
	n := *free
	if n == nil {
		return new(N)
	}
	*free = (*branch[T])(unsafe.Pointer(n)).child[0]
	return (*N)(unsafe.Pointer(n))
}

// pop returns the allocation, of type N, behind the last leaf on free, or
// a new one when free is empty. The slot it leaves is cleared: a stale
// pointer past the end would keep a leaf alive once the tree drops it.
func pop[N, T any](free *[]*pnode[T]) *N {
	l := *free
	if len(l) == 0 {
		return new(N)
	}
	n := l[len(l)-1]
	l[len(l)-1], *free = nil, l[:len(l)-1]
	return (*N)(unsafe.Pointer(n))
}

// recycle zeroes n's whole allocation, which has left the session's tree,
// and keeps it for reuse on the free list of its kind and width — if the
// session owns it. Any other node may still be reachable from a pinned
// version.
func (s *session[T]) recycle(n *pnode[T]) {
	if !n.owner.is(s.id) {
		return
	}
	var free **pnode[T]
	p := unsafe.Pointer(n)
	switch wide := n.bits > 64; {
	case n.kind == leafKind && wide:
		*(*wideLeaf[T])(p), s.freeWL = wideLeaf[T]{}, append(s.freeWL, n)
		return
	case n.kind == leafKind:
		*(*leaf[T])(p), s.freeL = leaf[T]{}, append(s.freeL, n)
		return
	case n.kind == innerKind && wide:
		*(*wideInner[T])(p), free = wideInner[T]{}, &s.freeWI
	case n.kind == innerKind:
		*(*inner[T])(p), free = inner[T]{}, &s.freeI
	case wide:
		*(*wideBranch[T])(p), free = wideBranch[T]{}, &s.freeWG
	default:
		*(*branch[T])(p), free = branch[T]{}, &s.freeG
	}
	(*branch[T])(p).child[0], *free = *free, n
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
	s := session[T]{tbl: *t}
	s.write(p, &write[T]{v: v}, nil)
	nt := s.tbl
	return &nt
}

// Delete returns a new version with the entry exactly at p removed, and
// reports whether it existed. When it does not, the receiver itself is
// returned (no copying).
func (t *Persistent[T]) Delete(p netip.Prefix) (*Persistent[T], bool) {
	s := session[T]{tbl: *t}
	w := write[T]{del: true}
	if s.write(p, &w, nil); !w.existed {
		return t, false
	}
	nt := s.tbl // allocate only on this path
	return &nt, true
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
	for cur := (*root).trieOf(k, pb); cur != nil && cur.covers(k, pb); cur = cur.kids()[k.bit(cur.bits)] {
		if cur.bits == pb {
			if cur.kind == glueKind {
				return zero, false
			}
			return *cur.value(), true
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
	return prefixOf(best.key(), best.bits, v4), *best.value(), true
}

// matchP returns the longest valued node under n that covers k. It
// remembers the node, not its contents: prefix and value are built once,
// by the caller, instead of at every valued ancestor.
func matchP[T any](n *pnode[T], k key128) (best *pnode[T]) {
	for ; n != nil && k.hasPrefix(n.key(), n.bits); n = n.kids()[k.bit(n.bits)] {
		if n.kind != glueKind {
			best = n
		}
	}
	return best
}

// hasEntryInside reports whether any entry lies strictly within p. It
// descends toward p; every leaf holds a value, so the first node inside p
// answers, and so does a slot of a fan p covers.
func (t *Persistent[T]) hasEntryInside(p netip.Prefix) bool {
	if !p.IsValid() {
		return false
	}
	p = p.Masked()
	root, _ := t.root(p.Addr())
	k, pb := keyOf(p.Addr()), uint8(p.Bits())
	for f, depth := *root, uint8(0); f != nil; depth++ {
		i := k.nibble(depth)
		switch {
		case pb < 4*(depth+1):
			if insideP(f.sub, k, pb) {
				return true
			}
			for j := i; j < i+1<<(4*(depth+1)-pb); j++ {
				if f.holds(j) {
					return true
				}
			}
			return false
		case f.tries != nil:
			return insideP(f.tries[i], k, pb)
		}
		f = f.kids[i]
	}
	return false
}

// insideP reports whether the trie under n holds an entry strictly within
// (k, pb).
func insideP[T any](n *pnode[T], k key128, pb uint8) bool {
	for ; n != nil; n = n.kids()[k.bit(n.bits)] {
		switch {
		case n.bits > pb:
			return n.key().hasPrefix(k, pb)
		case !n.covers(k, pb):
			return false
		case n.bits == pb:
			return n.kind != leafKind
		}
	}
	return false
}

// Walk visits every valued entry in ComparePrefix order, IPv4 first. fn
// returning false stops the walk. Safe to call on any version at any
// time; versions never change (a Live view: until its table's next write).
func (t *Persistent[T]) Walk(fn func(netip.Prefix, T) bool) { t.walkFrom(netip.Prefix{}, fn) }

// mark is where a walk resumes: after the prefix (k, bits).
type mark struct {
	k    key128
	bits uint8
}

// walkFrom visits, in Walk's order, every entry after from; an invalid
// from walks them all. It seeks from's position in O(depth): no entry
// before it is visited.
func (t *Persistent[T]) walkFrom(from netip.Prefix, fn func(netip.Prefix, T) bool) {
	var m *mark
	if from.IsValid() {
		from = from.Masked()
		m = &mark{keyOf(from.Addr()), uint8(from.Bits())}
		if !from.Addr().Is4() {
			t.root6.walk(0, false, m, fn)
			return
		}
	}
	if t.root4.walk(0, true, m, fn) {
		t.root6.walk(0, false, nil, fn)
	}
}

// walk visits every entry under f, which sits at depth, in address order,
// after from if it is not nil. A fan's own prefixes are shorter than
// anything under its slots, so each goes out after the slots whose
// addresses precede it and before the slot it covers the start of.
// Resuming, every slot before from's is skipped whole, from's own is
// sought recursively when from lies below this fan, and the fan's own trie
// is sought too.
func (f *fan[T]) walk(depth uint8, v4 bool, from *mark, fn func(netip.Prefix, T) bool) bool {
	if f == nil {
		return true
	}
	emit := func(n *pnode[T]) bool { return fn(prefixOf(n.key(), n.bits, v4), *n.value()) }
	next := 0
	if from != nil {
		next = from.k.nibble(depth)
		if from.bits >= 4*(depth+1) {
			if f.tries != nil && !walkP(f.tries[next], from, emit) || f.kids != nil && !f.kids[next].walk(depth+1, v4, from, fn) {
				return false
			}
			next++
		}
	}
	slotsBelow := func(end int) bool {
		for ; next < end; next++ {
			if f.tries != nil && !walkP(f.tries[next], nil, emit) || f.kids != nil && !f.kids[next].walk(depth+1, v4, nil, fn) {
				return false
			}
		}
		return true
	}
	return walkP(f.sub, from, func(n *pnode[T]) bool {
		return slotsBelow(n.key().nibble(depth)) && emit(n)
	}) && slotsBelow(16)
}

// walkP visits the valued nodes under n in pre-order, which is
// ComparePrefix order; with from set, only those after it. The stack holds
// pending subtrees, next on top: resuming, the descent toward from pushes
// each right-hand subtree it passes, and the first node after from.
func walkP[T any](n *pnode[T], from *mark, visit func(*pnode[T]) bool) bool {
	var buf [48]*pnode[T]
	stack := buf[:0]
	for n != nil && from != nil {
		k, pb := from.k, from.bits
		if nk := n.key(); k.less(nk) || nk == k && n.bits > pb {
			break // n, and so its subtree, comes after from
		}
		if !n.covers(k, pb) {
			n = nil // n's subtree comes before from
			break
		}
		// n covers from. At from itself the bit past its end reads 0: both
		// of its subtrees follow it.
		b, kids := k.bit(n.bits), n.kids()
		if b == 0 && kids[1] != nil {
			stack = append(stack, kids[1])
		}
		n = kids[b]
	}
	if n != nil {
		stack = append(stack, n)
	}
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if n.kind != glueKind && !visit(n) {
			return false
		}
		kids := n.kids()
		if kids[1] != nil {
			stack = append(stack, kids[1])
		}
		if kids[0] != nil {
			stack = append(stack, kids[0])
		}
	}
	return true
}
