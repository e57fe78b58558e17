// Package workload generates synthetic routing workloads for the
// benchmark harness: a full Internet backbone table of the paper's size
// (146,515 routes, §8.2) with a realistic prefix-length distribution, and
// the 255-route test sequences used by Figures 10–13.
//
// Substitution note (DESIGN.md §5): the paper replayed a captured 2004
// backbone feed. Latency depends on table size and trie shape, not the
// precise prefixes, so a deterministic synthetic table with the published
// prefix-length mix preserves the measured behaviour.
package workload

import (
	"math/rand"
	"net/netip"

	"xorp/internal/bgp"
)

// FullTableSize is the paper's backbone table size (§8.2).
const FullTableSize = 146515

// prefixLenDist approximates the 2004/2005 BGP table's prefix-length
// distribution (fraction per length, /8../24 dominated by /24).
var prefixLenDist = []struct {
	bits int
	frac float64
}{
	{8, 0.0002}, {9, 0.0002}, {10, 0.0005}, {11, 0.001}, {12, 0.002},
	{13, 0.004}, {14, 0.008}, {15, 0.010}, {16, 0.085}, {17, 0.025},
	{18, 0.040}, {19, 0.075}, {20, 0.070}, {21, 0.060}, {22, 0.085},
	{23, 0.085}, {24, 0.449},
}

// Table is a generated routing table.
type Table struct {
	Prefixes []netip.Prefix
	Attrs    []*bgp.PathAttrs
}

// GenerateTable builds n unique prefixes with path attributes, seeded
// deterministically. nexthops cycles a small set of nexthop addresses,
// as a single peering would produce.
func GenerateTable(seed int64, n int, nexthops []netip.Addr) *Table {
	if len(nexthops) == 0 {
		nexthops = []netip.Addr{netip.AddrFrom4([4]byte{10, 0, 0, 1})}
	}
	r := rand.New(rand.NewSource(seed))
	t := &Table{
		Prefixes: make([]netip.Prefix, 0, n),
		Attrs:    make([]*bgp.PathAttrs, 0, n),
	}
	seen := make(map[netip.Prefix]bool, n)
	// Pre-expand the distribution into a cumulative table.
	type bucket struct {
		bits int
		cum  float64
	}
	var buckets []bucket
	cum := 0.0
	for _, d := range prefixLenDist {
		cum += d.frac
		buckets = append(buckets, bucket{d.bits, cum})
	}
	pickBits := func() int {
		x := r.Float64() * cum
		for _, b := range buckets {
			if x <= b.cum {
				return b.bits
			}
		}
		return 24
	}
	for len(t.Prefixes) < n {
		bits := pickBits()
		// Public-ish space: first octet 1..223 avoiding 10/127.
		var first byte
		for {
			first = byte(1 + r.Intn(223))
			if first != 10 && first != 127 {
				break
			}
		}
		a := netip.AddrFrom4([4]byte{first, byte(r.Intn(256)), byte(r.Intn(256)), byte(r.Intn(256))})
		p, err := a.Prefix(bits)
		if err != nil || seen[p] {
			continue
		}
		seen[p] = true
		t.Prefixes = append(t.Prefixes, p)
		t.Attrs = append(t.Attrs, randomAttrs(r, nexthops))
	}
	return t
}

func randomAttrs(r *rand.Rand, nexthops []netip.Addr) *bgp.PathAttrs {
	pathLen := 2 + r.Intn(5)
	seg := bgp.ASSegment{Type: bgp.SegSequence}
	for i := 0; i < pathLen; i++ {
		seg.ASes = append(seg.ASes, uint16(1+r.Intn(64000)))
	}
	a := &bgp.PathAttrs{
		Origin:  uint8(r.Intn(3)),
		ASPath:  bgp.ASPath{seg},
		NextHop: nexthops[r.Intn(len(nexthops))],
	}
	if r.Intn(3) == 0 {
		a.MED = uint32(r.Intn(200))
		a.HasMED = true
	}
	return a
}

// Updates converts the table into UPDATE messages, packing up to
// perUpdate NLRI per message per shared attribute set (here: one set per
// prefix, so perUpdate applies to consecutive same-attr runs; with random
// attrs that is 1 NLRI per update, matching a worst-case feed).
func (t *Table) Updates() []*bgp.UpdateMsg {
	out := make([]*bgp.UpdateMsg, len(t.Prefixes))
	for i, p := range t.Prefixes {
		out[i] = &bgp.UpdateMsg{Attrs: t.Attrs[i], NLRI: []netip.Prefix{p}}
	}
	return out
}

// TestRoutes generates the n distinct test prefixes used by the
// Figures 10–13 experiments ("introduce 255 routes"), outside the space
// GenerateTable uses (10.0.0.0/8) so they never collide with the
// preloaded table.
func TestRoutes(n int) []netip.Prefix {
	out := make([]netip.Prefix, n)
	for i := range out {
		out[i] = netip.PrefixFrom(
			netip.AddrFrom4([4]byte{10, byte(i >> 8), byte(i), 0}), 24)
	}
	return out
}

// TestAttrs returns attributes for a test route via the given nexthop.
func TestAttrs(nexthop netip.Addr, peerAS uint16) *bgp.PathAttrs {
	return &bgp.PathAttrs{
		Origin:  bgp.OriginIGP,
		ASPath:  bgp.ASPath{{Type: bgp.SegSequence, ASes: []uint16{peerAS, 64999}}},
		NextHop: nexthop,
	}
}
