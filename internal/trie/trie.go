// Package trie implements the longest-prefix-match table behind every
// routing table in this XORP reproduction: one layout (persistent.go), held
// two ways. Table is the mutable table every stage and the kernel FIB
// keep, written in place; Persistent is an immutable version, which
// Table.Pin hands to a reader that holds it while the table goes on
// changing, and which the table's later writes copy around instead of
// writing. The paper's safe route iterator (§5.3) is a key: a paused walk
// remembers the last prefix it visited and WalkFrom seeks past it.
// IPv4 and IPv6 prefixes sit side by side, one root per family, and every
// node carries its prefix bits as words — the first in its header, the
// second only past /64 — so traversal is word compares, never address
// bytes.
package trie

import (
	"encoding/binary"
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
	if n <= 64 { // a shift by 64, for n == 0, yields 0
		return (k.hi^p.hi)>>(64-n) == 0
	}
	return k.hi == p.hi && (k.lo^p.lo)>>(128-n) == 0
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

// ComparePrefix orders prefixes by address, then length — the tables' walk
// order, and the order stages use where they would otherwise emit in map
// iteration order.
func ComparePrefix(a, b netip.Prefix) int {
	if c := a.Addr().Compare(b.Addr()); c != 0 {
		return c
	}
	return a.Bits() - b.Bits()
}
