package bgp

// Alloc- and lifetime-regression tests for the interned attribute pool:
// the fast path's memory claims (one canonical PathAttrs per distinct set,
// ~1 allocation per route in steady state, a pool that drains with the
// tables holding it) are asserted here so they cannot silently rot.

import (
	"math/rand"
	"net/netip"
	"testing"
	"time"

	"xorp/internal/eventloop"
)

func TestAttrPoolInternDedup(t *testing.T) {
	p := NewAttrPool()
	a := testAttrs()
	b := testAttrs() // equal content, distinct pointer

	ca := p.Intern(a)
	cb := p.Intern(b)
	if ca != cb {
		t.Fatal("equal attr sets interned to distinct pointers")
	}
	if p.Len() != 1 || p.Refs() != 2 {
		t.Fatalf("Len=%d Refs=%d after two interns", p.Len(), p.Refs())
	}
	// Interning the canonical pointer itself takes the fast path.
	if p.Intern(ca) != ca {
		t.Fatal("canonical pointer re-interned to something else")
	}
	p.Release(ca)
	p.Release(ca)
	p.Release(ca)
	if p.Len() != 0 || p.Refs() != 0 {
		t.Fatalf("Len=%d Refs=%d after releases", p.Len(), p.Refs())
	}
	// Released sets stay usable; they just re-enter the pool on re-intern.
	if p.Intern(ca) != ca {
		t.Fatal("re-intern after drain changed canonical")
	}
}

// TestAttrPoolNeverConflates generates random attribute sets, including
// near-miss pairs, and asserts pointer identity after interning matches
// semantic equality exactly — in both directions.
func TestAttrPoolNeverConflates(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	pool := NewAttrPool()
	var sets []*PathAttrs
	randAttrs := func() *PathAttrs {
		a := &PathAttrs{
			Origin:  uint8(r.Intn(3)),
			NextHop: netip.AddrFrom4([4]byte{10, 0, 0, byte(1 + r.Intn(4))}),
		}
		for s := 0; s <= r.Intn(2); s++ {
			seg := ASSegment{Type: uint8(1 + r.Intn(2))}
			for i := 0; i <= r.Intn(3); i++ {
				seg.ASes = append(seg.ASes, uint16(65000+r.Intn(4)))
			}
			a.ASPath = append(a.ASPath, seg)
		}
		if r.Intn(2) == 0 {
			a.MED, a.HasMED = uint32(r.Intn(3)), true
		}
		if r.Intn(2) == 0 {
			a.LocalPref, a.HasLocalPref = uint32(r.Intn(3)), true
		}
		for i := 0; i < r.Intn(3); i++ {
			a.Communities = append(a.Communities, uint32(r.Intn(4)))
		}
		return a
	}
	for i := 0; i < 150; i++ {
		sets = append(sets, randAttrs())
	}
	// Handcrafted near-misses: presence flags vs zero values, segment
	// structure, v6 nexthops.
	sets = append(sets,
		&PathAttrs{NextHop: mustA("10.0.0.1")},
		&PathAttrs{NextHop: mustA("10.0.0.1"), HasMED: true},
		&PathAttrs{NextHop: mustA("10.0.0.1"), HasLocalPref: true},
		&PathAttrs{NextHop: mustA("10.0.0.1"), ASPath: ASPath{{Type: SegSequence, ASes: []uint16{1, 2}}}},
		&PathAttrs{NextHop: mustA("10.0.0.1"), ASPath: ASPath{{Type: SegSequence, ASes: []uint16{1}}, {Type: SegSequence, ASes: []uint16{2}}}},
		&PathAttrs{NextHop: mustA("10.0.0.1"), ASPath: ASPath{{Type: SegSet, ASes: []uint16{1, 2}}}},
		&PathAttrs{NextHop: mustA("2001:db8::1")},
		&PathAttrs{NextHop: mustA("::ffff:10.0.0.1").Unmap()},
	)
	canon := make([]*PathAttrs, len(sets))
	for i, a := range sets {
		canon[i] = pool.Intern(a.Clone())
	}
	for i := range sets {
		for j := i + 1; j < len(sets); j++ {
			eq := sets[i].Equal(sets[j])
			if eq != (canon[i] == canon[j]) {
				t.Fatalf("set %d vs %d: Equal=%v but canonical %p vs %p\n a=%+v\n b=%+v",
					i, j, eq, canon[i], canon[j], sets[i], sets[j])
			}
		}
	}
}

// TestAttrPoolDistinctSetsNeverMerge: the pool's key says whether a field is
// present and which family an address is, so sets that differ only there
// stay apart — whatever the hash does.
func TestAttrPoolDistinctSetsNeverMerge(t *testing.T) {
	for _, collide := range []bool{false, true} {
		pool := NewAttrPool()
		if collide {
			pool.hashMask = 0
		}
		pairs := [][2]*PathAttrs{
			{{NextHop: mustA("10.0.0.1"), HasMED: true}, {NextHop: mustA("10.0.0.1")}},                     // MED 0 present vs absent
			{{NextHop: mustA("10.0.0.2")}, {NextHop: mustA("::ffff:10.0.0.2")}},                            // v4 vs v4-mapped
			{{NextHop: mustA("10.0.0.3"), HasLocalPref: true}, {NextHop: mustA("10.0.0.3"), HasMED: true}}, // which zero is present
		}
		for i, p := range pairs {
			if a, b := pool.Intern(p[0]), pool.Intern(p[1]); a == b || a != p[0] || b != p[1] {
				t.Fatalf("collide=%v pair %d: %+v and %+v interned as one set", collide, i, p[0], p[1])
			}
		}
	}
}

// TestAttrPoolHashCollision: with every set forced onto one hash the pool
// is one chain, told apart by PathAttrs.Equal, and must behave exactly as it
// does spread out: dedup, refcounts, sets leaving from the head, the middle
// and the tail of the chain, and re-entering.
func TestAttrPoolHashCollision(t *testing.T) {
	pool := NewAttrPool()
	pool.hashMask = 0
	sets := make([]*PathAttrs, 5)
	for i := range sets {
		sets[i] = attrsVia("10.0.0.1", 65001, uint16(64512+i))
		if got := pool.Intern(sets[i]); got != sets[i] {
			t.Fatalf("set %d interned as another set", i)
		}
		if got := pool.Intern(sets[i].Clone()); got != sets[i] {
			t.Fatalf("an equal copy of set %d did not dedup", i)
		}
	}
	if len(pool.sets) != 1 || pool.Len() != 5 || pool.Refs() != 10 {
		t.Fatalf("%d map entries, Len %d, Refs %d; want one chain of 5 sets holding 10 references", len(pool.sets), pool.Len(), pool.Refs())
	}
	pool.Retain(sets[2])
	pool.retain(sets[2], 2)
	pool.Retain(sets[2].Clone()) // not the canonical pointer: ignored
	if pool.Refs() != 13 {
		t.Fatalf("Refs %d after three retains, want 13", pool.Refs())
	}
	// The newest set heads the chain; drop head, middle, tail.
	for n, i := range []int{4, 2, 0} {
		for refs := map[int]int{4: 2, 2: 5, 0: 2}[i]; refs > 0; refs-- {
			if pool.Len() != 5-n {
				t.Fatalf("set %d left the pool with %d references to go", i, refs)
			}
			pool.Release(sets[i])
		}
		if pool.Len() != 4-n {
			t.Fatalf("after dropping set %d: Len %d, want %d", i, pool.Len(), 4-n)
		}
		for _, j := range []int{1, 3} {
			if got := pool.Intern(sets[j].Clone()); got != sets[j] {
				t.Fatalf("set %d lost when set %d left the chain", j, i)
			}
			pool.Release(sets[j])
		}
	}
	if pool.Refs() != 4 {
		t.Fatalf("Refs %d, want the 4 of sets 1 and 3", pool.Refs())
	}
	// A set that left re-enters under whatever pointer comes first.
	again := sets[0].Clone()
	if pool.Intern(again) != again || pool.Intern(sets[0]) != again {
		t.Fatal("re-entered set did not become canonical")
	}
	for _, a := range []*PathAttrs{again, again, sets[1], sets[1], sets[3], sets[3]} {
		pool.Release(a)
	}
	if pool.Len() != 0 || pool.Refs() != 0 || len(pool.sets) != 0 {
		t.Fatalf("pool not drained: Len %d, Refs %d, %d map entries", pool.Len(), pool.Refs(), len(pool.sets))
	}
}

// TestAttrPoolRefcount drives a full table through a real input branch and
// asserts the pool drains to zero after a full-table withdraw: every
// reference the stored routes held is released, including across replaces
// and the deletion-stage handoff.
func TestAttrPoolRefcount(t *testing.T) {
	loop := eventloop.New(eventloop.NewSimClock(time.Unix(0, 0)))
	pool := NewAttrPool()
	peer := testPeer("p1", "10.0.0.1", 65001, false)
	in := NewPeerIn(loop, peer, pool)
	s := newSink("sink")
	Plumb(in, s)

	const n = 5000
	nets := make([]netip.Prefix, n)
	for i := range nets {
		nets[i] = netip.PrefixFrom(netip.AddrFrom4([4]byte{10, byte(i >> 16), byte(i >> 8), byte(i)}), 32)
	}
	// Announce in batches of shared attr sets; only a handful of distinct
	// sets exist across the whole table.
	for i := 0; i < n; i += 100 {
		end := i + 100
		if end > n {
			end = n
		}
		in.ReceiveUpdate(&UpdateMsg{
			Attrs: attrsVia("10.0.0.1", 65001, uint16(64512+(i/100)%7)),
			NLRI:  nets[i:end],
		}, 65000)
	}
	if in.Len() != n {
		t.Fatalf("stored %d routes", in.Len())
	}
	if pool.Len() != 7 {
		t.Fatalf("pool holds %d distinct sets, want 7", pool.Len())
	}
	if pool.Refs() != n {
		t.Fatalf("pool refs %d, want %d (one per stored route)", pool.Refs(), n)
	}

	// Re-announce half the table with one new attr set: replaces must
	// release the old references.
	in.ReceiveUpdate(&UpdateMsg{
		Attrs: attrsVia("10.0.0.1", 65001, 60000),
		NLRI:  nets[:n/2],
	}, 65000)
	if pool.Refs() != n {
		t.Fatalf("pool refs %d after replace wave, want %d", pool.Refs(), n)
	}

	// Full-table withdraw: the pool must drain to zero.
	in.ReceiveUpdate(&UpdateMsg{Withdrawn: nets}, 65000)
	if in.Len() != 0 {
		t.Fatalf("%d routes left after full withdraw", in.Len())
	}
	if pool.Len() != 0 || pool.Refs() != 0 {
		t.Fatalf("pool not drained: Len=%d Refs=%d", pool.Len(), pool.Refs())
	}

	// Same again through the peer-down deletion stage.
	for i := 0; i < n; i += 100 {
		end := i + 100
		if end > n {
			end = n
		}
		in.ReceiveUpdate(&UpdateMsg{
			Attrs: attrsVia("10.0.0.1", 65001, uint16(64512+(i/100)%7)),
			NLRI:  nets[i:end],
		}, 65000)
	}
	d := in.PeerDown()
	for !d.Done() {
		d.step()
	}
	if pool.Len() != 0 || pool.Refs() != 0 {
		t.Fatalf("pool not drained by deletion stage: Len=%d Refs=%d", pool.Len(), pool.Refs())
	}
}

// TestPeerInAllocsPerUpdate asserts the steady-state allocation bound of
// the pooled input path: re-receiving a full UPDATE whose routes are
// already stored (the common refresh/duplicate case) must cost at most
// one allocation per route with a warm pool.
func TestPeerInAllocsPerUpdate(t *testing.T) {
	loop := eventloop.New(eventloop.NewSimClock(time.Unix(0, 0)))
	pool := NewAttrPool()
	peer := testPeer("p1", "10.0.0.1", 65001, false)
	in := NewPeerIn(loop, peer, pool)
	s := newSink("sink")
	Plumb(in, s)

	const n = 200
	msg := &UpdateMsg{Attrs: attrsVia("10.0.0.1", 65001), NLRI: make([]netip.Prefix, n)}
	for i := range msg.NLRI {
		msg.NLRI[i] = netip.PrefixFrom(netip.AddrFrom4([4]byte{10, 1, byte(i >> 8), byte(i)}), 32)
	}
	in.ReceiveUpdate(msg, 65000) // warm: table populated, attrs interned

	// The refresh re-sends the same routes with a fresh (but equal) attrs
	// object, as a decoded wire message would.
	refresh := &UpdateMsg{Attrs: attrsVia("10.0.0.1", 65001), NLRI: msg.NLRI}
	avg := testing.AllocsPerRun(20, func() {
		in.ReceiveUpdate(refresh, 65000)
	})
	perRoute := avg / n
	if perRoute > 1.1 {
		t.Fatalf("steady-state ReceiveUpdate costs %.2f allocs/route (%.0f total for %d routes), want <=1",
			perRoute, avg, n)
	}
	if got := s.adds + s.replaces + s.deletes; got != n {
		t.Fatalf("duplicate refresh leaked %d downstream messages (want the initial %d only)", got, n)
	}
}
