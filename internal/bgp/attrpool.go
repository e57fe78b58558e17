package bgp

import (
	"encoding/binary"
	"hash/maphash"
	"net/netip"
)

// AttrPool hash-conses PathAttrs: a full Internet table carries a few
// tens of thousands of distinct attribute sets across hundreds of
// thousands of routes, so PeerIn stores one canonical *PathAttrs per
// distinct set and one pointer per route instead of a per-route copy.
//
// Entries are refcounted by the routes stored in the RIB-in the pool
// carries; a set whose last route is withdrawn leaves the pool, so a
// drained table drains the pool too.
// Refcounts only govern pool membership — stages downstream may keep a
// released *PathAttrs alive (the GC handles lifetime), they just stop
// deduplicating against it.
//
// The pool is one map, keyed by a 64-bit hash of the set's canonical key
// (appendAttrKey) with the entry stored inline, so a miss allocates nothing
// beyond map growth. Sets whose hashes collide chain off the map's entry and
// are told apart by PathAttrs.Equal; finding a set by its canonical pointer
// takes the same path as finding it by content.
//
// The pool is confined to the BGP process loop, like the stages using it.
type AttrPool struct {
	sets map[uint64]poolEntry
	seed maphash.Seed
	// hashMask is all ones; a test clears it to make every set collide.
	hashMask uint64
	// scratch is the reusable key-building buffer.
	scratch []byte
	// last is the canonical pointer found or made last, and its hash: a
	// run's references are taken and dropped one after the other, and an
	// interned set does not change.
	last     *PathAttrs
	lastHash uint64
	rib      *ribIn
}

// poolEntry is one interned set. next is nil unless another set shares the
// hash.
type poolEntry struct {
	attrs *PathAttrs
	refs  int
	next  *poolEntry
}

// NewAttrPool returns an empty pool.
func NewAttrPool() *AttrPool {
	return &AttrPool{sets: make(map[uint64]poolEntry), seed: maphash.MakeSeed(), hashMask: ^uint64(0), rib: newRIBIn()}
}

// hash returns the pool's hash of a's canonical key.
func (p *AttrPool) hash(a *PathAttrs) uint64 {
	if a == p.last {
		return p.lastHash
	}
	p.scratch = appendAttrKey(p.scratch[:0], a)
	return maphash.Bytes(p.seed, p.scratch) & p.hashMask
}

// adjust adds delta to the refcount of the set under h that is a — or, with
// byContent, equals a — and returns its canonical pointer, nil if there is
// no such set. A set whose count reaches zero leaves the pool.
func (p *AttrPool) adjust(h uint64, a *PathAttrs, delta int, byContent bool) *PathAttrs {
	head, ok := p.sets[h]
	if !ok {
		return nil
	}
	// The chain is walked from a pointer to the map's entry, a copy, which
	// is written back (or, with the last set gone, deleted) after a change.
	first := &head
	for link := &first; *link != nil; link = &(*link).next {
		e := *link
		if e.attrs != a && !(byContent && e.attrs.Equal(a)) {
			continue
		}
		if e.refs += delta; e.refs <= 0 {
			*link = e.next
		}
		if first == nil {
			delete(p.sets, h)
		} else {
			p.sets[h] = *first
		}
		p.last, p.lastHash = e.attrs, h
		return e.attrs
	}
	return nil
}

// Intern returns the canonical pointer for a's attribute set and takes
// one reference on it. A nil pool passes a through unchanged, so stages
// run pool-less in tests. The returned attrs must be treated as
// immutable (they are shared); a itself is not retained unless it becomes
// the canonical copy.
func (p *AttrPool) Intern(a *PathAttrs) *PathAttrs {
	if p == nil || a == nil {
		return a
	}
	h := p.hash(a)
	if c := p.adjust(h, a, 1, true); c != nil {
		return c
	}
	e := poolEntry{attrs: a, refs: 1}
	if head, collides := p.sets[h]; collides {
		chained := head // on the heap only when there is a collision
		e.next = &chained
	}
	p.sets[h] = e
	p.last, p.lastHash = a, h
	return a
}

// Release drops one reference; the entry leaves the pool at zero.
func (p *AttrPool) Release(a *PathAttrs) { p.retain(a, -1) }

// retain takes n more references on an interned set, or drops -n.
func (p *AttrPool) retain(a *PathAttrs, n int) {
	if p != nil && a != nil && n != 0 {
		p.adjust(p.hash(a), a, n, false)
	}
}

// appendAttrKey serializes every field of a into a canonical byte key.
// Unlike the wire encoding it is family-generic (IPv6 nexthops key fine)
// and includes presence flags explicitly, so distinct sets can never
// collide (e.g. MED=0 present vs MED absent).
func appendAttrKey(dst []byte, a *PathAttrs) []byte {
	var flags byte
	if a.HasMED {
		flags |= 1
	}
	if a.HasLocalPref {
		flags |= 2
	}
	if a.AtomicAggregate {
		flags |= 4
	}
	if a.HasAggregator {
		flags |= 8
	}
	dst = append(dst, a.Origin, flags)
	dst = binary.BigEndian.AppendUint32(dst, a.MED)
	dst = binary.BigEndian.AppendUint32(dst, a.LocalPref)
	dst = binary.BigEndian.AppendUint16(dst, a.AggregatorAS)
	dst = appendAddrKey(dst, a.AggregatorAddr)
	dst = appendAddrKey(dst, a.NextHop)
	dst = append(dst, byte(len(a.ASPath)))
	for _, s := range a.ASPath {
		dst = append(dst, s.Type)
		dst = binary.BigEndian.AppendUint16(dst, uint16(len(s.ASes)))
		for _, as := range s.ASes {
			dst = binary.BigEndian.AppendUint16(dst, as)
		}
	}
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(a.Communities)))
	for _, c := range a.Communities {
		dst = binary.BigEndian.AppendUint32(dst, c)
	}
	return dst
}

// appendAddrKey appends a's family (0: none) and its 16 bytes: an IPv4
// address and its IPv4-mapped twin differ in the first.
func appendAddrKey(dst []byte, a netip.Addr) []byte {
	b := a.As16()
	return append(append(dst, byte(a.BitLen())), b[:]...)
}
