package trie

import (
	"math/rand"
	"net/netip"
	"runtime"
	"testing"
	"testing/quick"
	"time"
	"unsafe"
)

func mustP(s string) netip.Prefix { return netip.MustParsePrefix(s) }
func mustA(s string) netip.Addr   { return netip.MustParseAddr(s) }

func TestInsertGetDelete(t *testing.T) {
	tr := New[int]()
	ps := []string{"10.0.0.0/8", "10.1.0.0/16", "10.1.1.0/24", "192.168.0.0/16", "0.0.0.0/0"}
	for i, s := range ps {
		replaced, err := tr.Insert(mustP(s), i)
		if err != nil || replaced {
			t.Fatalf("Insert(%s) = %v, %v", s, replaced, err)
		}
	}
	if tr.Len() != len(ps) {
		t.Fatalf("Len = %d, want %d", tr.Len(), len(ps))
	}
	for i, s := range ps {
		v, ok := tr.Get(mustP(s))
		if !ok || v != i {
			t.Fatalf("Get(%s) = %d, %v", s, v, ok)
		}
	}
	if _, ok := tr.Get(mustP("10.2.0.0/16")); ok {
		t.Fatal("Get of absent prefix succeeded")
	}
	replaced, err := tr.Insert(mustP("10.1.0.0/16"), 99)
	if err != nil || !replaced {
		t.Fatalf("re-Insert: replaced=%v err=%v", replaced, err)
	}
	if v, _ := tr.Get(mustP("10.1.0.0/16")); v != 99 {
		t.Fatalf("value after replace = %d", v)
	}
	if v, ok := tr.Delete(mustP("10.1.0.0/16")); !ok || v != 99 {
		t.Fatalf("Delete = %d, %v", v, ok)
	}
	if _, ok := tr.Get(mustP("10.1.0.0/16")); ok {
		t.Fatal("deleted prefix still present")
	}
	if tr.Len() != len(ps)-1 {
		t.Fatalf("Len after delete = %d", tr.Len())
	}
	if _, ok := tr.Delete(mustP("10.1.0.0/16")); ok {
		t.Fatal("double delete succeeded")
	}
}

func TestInsertUnmaskedPrefixIsMasked(t *testing.T) {
	tr := New[string]()
	p, _ := netip.ParsePrefix("10.1.2.3/8")
	if _, err := tr.Insert(p, "x"); err != nil {
		t.Fatal(err)
	}
	if _, ok := tr.Get(mustP("10.0.0.0/8")); !ok {
		t.Fatal("unmasked insert not normalized")
	}
}

func TestMixedFamilies(t *testing.T) {
	// IPv4 and IPv6 coexist in one trie (one internal root per family).
	tr := New[int]()
	if _, err := tr.Insert(mustP("10.0.0.0/8"), 1); err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Insert(mustP("2001:db8::/32"), 2); err != nil {
		t.Fatalf("mixed-family insert rejected: %v", err)
	}
	if tr.Len() != 2 {
		t.Fatalf("Len = %d", tr.Len())
	}
	if _, v, ok := tr.LongestMatch(mustA("10.1.1.1")); !ok || v != 1 {
		t.Fatalf("v4 lookup %d %v", v, ok)
	}
	if _, v, ok := tr.LongestMatch(mustA("2001:db8::1")); !ok || v != 2 {
		t.Fatalf("v6 lookup %d %v", v, ok)
	}
	// A v6 lookup never matches a v4 route and vice versa.
	if _, _, ok := tr.LongestMatch(mustA("2001:db9::1")); ok {
		t.Fatal("v6 address matched v4 space")
	}
	// Iteration covers both families, v4 first.
	var order []netip.Prefix
	it := tr.Iterate()
	for ; it.Valid(); it.Next() {
		order = append(order, it.Prefix())
	}
	it.Close()
	if len(order) != 2 || !order[0].Addr().Is4() || order[1].Addr().Is4() {
		t.Fatalf("iteration order %v", order)
	}
	// Walk covers both too.
	n := 0
	tr.Walk(func(netip.Prefix, int) bool { n++; return true })
	if n != 2 {
		t.Fatalf("walked %d", n)
	}
	if _, ok := tr.Delete(mustP("2001:db8::/32")); !ok {
		t.Fatal("v6 delete failed")
	}
}

func TestIPv6(t *testing.T) {
	tr := New[int]()
	tr.Insert(mustP("2001:db8::/32"), 1)
	tr.Insert(mustP("2001:db8:1::/48"), 2)
	tr.Insert(mustP("::/0"), 0)
	p, v, ok := tr.LongestMatch(mustA("2001:db8:1::5"))
	if !ok || v != 2 || p != mustP("2001:db8:1::/48") {
		t.Fatalf("LongestMatch = %v, %d, %v", p, v, ok)
	}
	p, v, ok = tr.LongestMatch(mustA("2001:db9::1"))
	if !ok || v != 0 || p != mustP("::/0") {
		t.Fatalf("LongestMatch default = %v, %d, %v", p, v, ok)
	}
}

func TestLongestMatch(t *testing.T) {
	tr := New[string]()
	for _, s := range []string{"128.16.0.0/16", "128.16.0.0/18", "128.16.128.0/17", "128.16.192.0/18"} {
		tr.Insert(mustP(s), s)
	}
	cases := []struct{ addr, want string }{
		{"128.16.32.1", "128.16.0.0/18"},
		{"128.16.160.1", "128.16.128.0/17"},
		{"128.16.192.1", "128.16.192.0/18"},
		{"128.16.64.1", "128.16.0.0/16"},
	}
	for _, c := range cases {
		_, v, ok := tr.LongestMatch(mustA(c.addr))
		if !ok || v != c.want {
			t.Errorf("LongestMatch(%s) = %q, %v; want %q", c.addr, v, ok, c.want)
		}
	}
	if _, _, ok := tr.LongestMatch(mustA("1.2.3.4")); ok {
		t.Error("match for uncovered address")
	}
	if _, _, ok := tr.LongestMatch(mustA("2001:db8::1")); ok {
		t.Error("v6 lookup in v4 trie matched")
	}
}

func TestWalkOrder(t *testing.T) {
	tr := New[int]()
	in := []string{"10.1.1.0/24", "0.0.0.0/0", "10.0.0.0/8", "192.168.0.0/16", "10.1.0.0/16"}
	for i, s := range in {
		tr.Insert(mustP(s), i)
	}
	var got []string
	tr.Walk(func(p netip.Prefix, _ int) bool {
		got = append(got, p.String())
		return true
	})
	want := []string{"0.0.0.0/0", "10.0.0.0/8", "10.1.0.0/16", "10.1.1.0/24", "192.168.0.0/16"}
	if len(got) != len(want) {
		t.Fatalf("walked %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("walk order %v, want %v", got, want)
		}
	}
}

func TestWalkCovered(t *testing.T) {
	tr := New[int]()
	for i, s := range []string{"10.0.0.0/8", "10.1.0.0/16", "10.1.1.0/24", "10.2.0.0/16", "11.0.0.0/8"} {
		tr.Insert(mustP(s), i)
	}
	var got []string
	tr.WalkCovered(mustP("10.1.0.0/16"), func(p netip.Prefix, _ int) bool {
		got = append(got, p.String())
		return true
	})
	if len(got) != 2 || got[0] != "10.1.0.0/16" || got[1] != "10.1.1.0/24" {
		t.Fatalf("WalkCovered = %v", got)
	}
	got = nil
	tr.WalkCovered(mustP("12.0.0.0/8"), func(p netip.Prefix, _ int) bool {
		got = append(got, p.String())
		return true
	})
	if len(got) != 0 {
		t.Fatalf("WalkCovered disjoint = %v", got)
	}
}

func TestHasEntryInside(t *testing.T) {
	tr := New[int]()
	tr.Insert(mustP("128.16.128.0/17"), 1)
	tr.Insert(mustP("128.16.192.0/18"), 2)
	if !tr.HasEntryInside(mustP("128.16.128.0/17")) {
		t.Fatal("should see /18 inside /17")
	}
	if tr.HasEntryInside(mustP("128.16.192.0/18")) {
		t.Fatal("nothing strictly inside /18")
	}
	if tr.HasEntryInside(mustP("128.16.128.0/18")) {
		t.Fatal("nothing inside left half /18")
	}
}

func TestIteratorBasic(t *testing.T) {
	tr := New[int]()
	in := []string{"10.0.0.0/8", "10.1.0.0/16", "172.16.0.0/12", "192.168.1.0/24"}
	for i, s := range in {
		tr.Insert(mustP(s), i)
	}
	it := tr.Iterate()
	defer it.Close()
	var got []string
	for ; it.Valid(); it.Next() {
		p, _, ok := it.Entry()
		if !ok {
			t.Fatal("live entry reported deleted")
		}
		got = append(got, p.String())
	}
	if len(got) != len(in) {
		t.Fatalf("iterated %v", got)
	}
}

func TestIteratorSurvivesDeletionOfCurrent(t *testing.T) {
	// The §5.3 scenario: a background task pauses on a route, the route is
	// deleted, and the iterator must still make forward progress and
	// perform the deferred physical deletion. Deleted by Delete, and by an
	// Update that declines the entry.
	for name, del := range map[string]func(*Trie[int], netip.Prefix){
		"Delete": func(tr *Trie[int], p netip.Prefix) { tr.Delete(p) },
		"Update": func(tr *Trie[int], p netip.Prefix) { tr.Update(p, func(*int, bool) bool { return false }) },
	} {
		tr := New[int]()
		for i, s := range []string{"10.0.0.0/8", "10.1.0.0/16", "10.2.0.0/16", "10.3.0.0/16"} {
			tr.Insert(mustP(s), i)
		}
		it := tr.Iterate()
		it.Next() // now on 10.1.0.0/16
		if it.Prefix() != mustP("10.1.0.0/16") {
			t.Fatalf("%s: iterator at %v", name, it.Prefix())
		}
		del(tr, mustP("10.1.0.0/16"))
		if _, _, ok := it.Entry(); ok {
			t.Fatalf("%s: deleted entry should report !ok", name)
		}
		it.Next()
		if it.Prefix() != mustP("10.2.0.0/16") {
			t.Fatalf("%s: after delete, iterator at %v", name, it.Prefix())
		}
		it.Close()
		// The deleted node must be physically gone: re-inserting and walking
		// must behave normally, and Len must be consistent.
		if tr.Len() != 3 {
			t.Fatalf("%s: Len = %d", name, tr.Len())
		}
		n := 0
		tr.Walk(func(netip.Prefix, int) bool { n++; return true })
		if n != 3 {
			t.Fatalf("%s: walked %d entries", name, n)
		}
	}
}

func TestIteratorDeleteEverythingWhilePaused(t *testing.T) {
	tr := New[int]()
	var ps []netip.Prefix
	for i := 0; i < 32; i++ {
		p := netip.PrefixFrom(netip.AddrFrom4([4]byte{10, byte(i), 0, 0}), 16)
		ps = append(ps, p)
		tr.Insert(p, i)
	}
	it := tr.Iterate()
	for _, p := range ps {
		tr.Delete(p)
	}
	if tr.Len() != 0 {
		t.Fatalf("Len = %d", tr.Len())
	}
	// Iterator still pinned on first (now deleted) node; Next must
	// terminate cleanly.
	count := 0
	for ; it.Valid(); it.Next() {
		if _, _, ok := it.Entry(); ok {
			count++
		}
	}
	if count != 0 {
		t.Fatalf("saw %d live entries after delete-all", count)
	}
	it.Close()
}

func TestIteratorSeesInsertsAhead(t *testing.T) {
	tr := New[int]()
	tr.Insert(mustP("10.0.0.0/8"), 0)
	tr.Insert(mustP("30.0.0.0/8"), 2)
	it := tr.Iterate()
	tr.Insert(mustP("20.0.0.0/8"), 1)
	var got []string
	for ; it.Valid(); it.Next() {
		got = append(got, it.Prefix().String())
	}
	it.Close()
	if len(got) != 3 {
		t.Fatalf("iterated %v, want the insert-ahead visible", got)
	}
}

func TestIterateFrom(t *testing.T) {
	tr := New[int]()
	for i, s := range []string{"10.0.0.0/8", "20.0.0.0/8", "30.0.0.0/8"} {
		tr.Insert(mustP(s), i)
	}
	it := tr.IterateFrom(mustP("15.0.0.0/8"))
	defer it.Close()
	if it.Prefix() != mustP("20.0.0.0/8") {
		t.Fatalf("IterateFrom landed on %v", it.Prefix())
	}
}

func TestMultipleIteratorsSameNode(t *testing.T) {
	tr := New[int]()
	tr.Insert(mustP("10.0.0.0/8"), 0)
	tr.Insert(mustP("20.0.0.0/8"), 1)
	it1 := tr.Iterate()
	it2 := tr.Iterate()
	tr.Delete(mustP("10.0.0.0/8"))
	it1.Next()
	// Node must survive: it2 still references it.
	if !it2.Valid() {
		t.Fatal("it2 invalidated")
	}
	it2.Next()
	if it2.Prefix() != mustP("20.0.0.0/8") {
		t.Fatalf("it2 at %v", it2.Prefix())
	}
	it1.Close()
	it2.Close()
	if tr.Len() != 1 {
		t.Fatalf("Len = %d", tr.Len())
	}
}

// checkInvariants verifies structural invariants: child prefixes are
// contained in parents, branch bits are correct, glue nodes (unreferenced)
// have two children, and parent pointers are consistent. And the /16
// index: every node ≥ /16 whose parent is shorter holds its /16's slot,
// and no other slot is set.
func checkInvariants[T any](t *testing.T, tr *Trie[T]) {
	t.Helper()
	tops := 0
	var walk func(n *node[T])
	walk = func(n *node[T]) {
		if n.bits >= jumpBits && n.parent.bits < jumpBits {
			if tr.jumpTo(n.key, n.v4) != n {
				t.Fatalf("%v is the top of its /16 but does not hold the slot", n.prefix())
			}
			tops++
		}
		for b, c := range n.child {
			if c == nil {
				continue
			}
			if c.parent != n {
				t.Fatalf("parent pointer broken at %v", c.prefix())
			}
			if !n.covers(c.key, c.bits) || n.bits == c.bits {
				t.Fatalf("child %v not strictly inside parent %v", c.prefix(), n.prefix())
			}
			if c.key != keyOf(c.prefix().Addr()) || int(c.bits) != c.prefix().Bits() || c.key != c.key.masked(c.bits) || c.v4 != n.v4 {
				t.Fatalf("node %v word key out of sync", c.prefix())
			}
			if c.key.bit(n.bits) != b {
				t.Fatalf("child %v under wrong branch of %v", c.prefix(), n.prefix())
			}
			walk(c)
		}
		if !tr.isRoot(n) && n.val == nil && n.iterRef == 0 {
			if n.child[0] == nil || n.child[1] == nil {
				t.Fatalf("degenerate glue node %v survived", n.prefix())
			}
		}
	}
	for _, root := range []*node[T]{tr.root4, tr.root6} {
		if root != nil {
			walk(root)
		}
	}
	if set := jumpSlotsSet(tr); set != tops {
		t.Fatalf("%d /16 slots set, %d /16 tops in the tree", set, tops)
	}
}

// jumpSlotsSet counts the /16 index's non-nil slots.
func jumpSlotsSet[T any](tr *Trie[T]) int {
	set := 0
	for _, top := range tr.jump {
		if top == nil {
			continue
		}
		for _, sub := range top {
			if sub == nil {
				continue
			}
			for _, s := range sub {
				if s != nil {
					set++
				}
			}
		}
	}
	return set
}

func randomPrefix(r *rand.Rand) netip.Prefix {
	bits := r.Intn(25) // 0..24 keeps collisions frequent
	a := netip.AddrFrom4([4]byte{byte(r.Intn(4)), byte(r.Intn(4)), byte(r.Intn(256)), 0})
	p, _ := a.Prefix(bits)
	return p
}

func TestQuickAgainstModel(t *testing.T) {
	// Property: a trie subjected to a random op sequence agrees with a
	// map-based model on Get, Len, LongestMatch and Walk contents.
	f := func(seed int64, nops uint8) bool {
		r := rand.New(rand.NewSource(seed))
		tr := New[int]()
		model := map[netip.Prefix]int{}
		for i := 0; i < int(nops)+20; i++ {
			p := randomPrefix(r)
			switch r.Intn(3) {
			case 0, 1:
				tr.Insert(p, i)
				model[p] = i
			case 2:
				_, okT := tr.Delete(p)
				_, okM := model[p]
				if okT != okM {
					return false
				}
				delete(model, p)
			}
		}
		if tr.Len() != len(model) {
			return false
		}
		for p, v := range model {
			got, ok := tr.Get(p)
			if !ok || got != v {
				return false
			}
		}
		// LongestMatch agrees with a brute-force scan.
		for i := 0; i < 30; i++ {
			addr := netip.AddrFrom4([4]byte{byte(r.Intn(4)), byte(r.Intn(4)), byte(r.Intn(256)), byte(r.Intn(256))})
			var bestP netip.Prefix
			bestLen, found := -1, false
			for p := range model {
				if p.Contains(addr) && p.Bits() > bestLen {
					bestP, bestLen, found = p, p.Bits(), true
				}
			}
			gp, _, ok := tr.LongestMatch(addr)
			if ok != found || (ok && gp != bestP) {
				return false
			}
		}
		count := 0
		tr.Walk(func(p netip.Prefix, v int) bool {
			if model[p] != v {
				return false
			}
			count++
			return true
		})
		checkInvariants(t, tr)
		return count == len(model)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickIteratorUnderMutation(t *testing.T) {
	// Property: an iterator interleaved with random mutation always
	// terminates, never yields a deleted entry from Entry()'s ok path,
	// and afterwards the trie still satisfies structural invariants.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		tr := New[int]()
		for i := 0; i < 60; i++ {
			tr.Insert(randomPrefix(r), i)
		}
		it := tr.Iterate()
		steps := 0
		for it.Valid() && steps < 500 {
			steps++
			switch r.Intn(4) {
			case 0:
				tr.Insert(randomPrefix(r), steps)
			case 1:
				tr.Delete(randomPrefix(r))
			case 2:
				// Delete the entry under the iterator.
				if p, _, ok := it.Entry(); ok {
					tr.Delete(p)
				}
			}
			if p, _, ok := it.Entry(); ok {
				if _, present := tr.Get(p); !present {
					return false // iterator claims a live entry the trie lacks
				}
			}
			it.Next()
		}
		it.Close()
		checkInvariants(t, tr)
		// After Close, no deferred nodes may remain pinned.
		n := 0
		tr.Walk(func(netip.Prefix, int) bool { n++; return true })
		return n == tr.Len()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestInvalidPrefix(t *testing.T) {
	tr := New[int]()
	if _, err := tr.Insert(netip.Prefix{}, 1); err == nil {
		t.Fatal("invalid prefix accepted")
	}
}

func TestUpsert(t *testing.T) {
	tr := New[int]()
	if old, existed := tr.Upsert(mustP("10.0.0.0/8"), 1); existed || old != 0 {
		t.Fatalf("first Upsert = %d, %v", old, existed)
	}
	if old, existed := tr.Upsert(mustP("10.0.0.0/8"), 2); !existed || old != 1 {
		t.Fatalf("second Upsert = %d, %v", old, existed)
	}
	if v, _ := tr.Get(mustP("10.0.0.0/8")); v != 2 {
		t.Fatalf("value after Upsert = %d", v)
	}
	if tr.Len() != 1 {
		t.Fatalf("Len = %d", tr.Len())
	}
	// Unmasked input is normalized like Insert.
	p, _ := netip.ParsePrefix("10.1.2.3/8")
	if old, existed := tr.Upsert(p, 3); !existed || old != 2 {
		t.Fatalf("unmasked Upsert = %d, %v", old, existed)
	}
	// Invalid prefix is a no-op.
	if _, existed := tr.Upsert(netip.Prefix{}, 9); existed {
		t.Fatal("invalid prefix Upsert reported existed")
	}
	if tr.Len() != 1 {
		t.Fatalf("Len after invalid Upsert = %d", tr.Len())
	}
}

func TestUpsertMatchesGetInsert(t *testing.T) {
	// Property: Upsert behaves exactly like Get-then-Insert.
	r := rand.New(rand.NewSource(11))
	a, b := New[int](), New[int]()
	for i := 0; i < 4000; i++ {
		p := randomPrefix(r)
		oldB, existedB := b.Get(p)
		b.Insert(p, i)
		oldA, existedA := a.Upsert(p, i)
		if oldA != oldB || existedA != existedB {
			t.Fatalf("Upsert(%v) = (%d,%v), Get+Insert = (%d,%v)", p, oldA, existedA, oldB, existedB)
		}
		if r.Intn(4) == 0 {
			q := randomPrefix(r)
			va, oka := a.Delete(q)
			vb, okb := b.Delete(q)
			if va != vb || oka != okb {
				t.Fatalf("Delete(%v) diverged", q)
			}
		}
	}
	if a.Len() != b.Len() {
		t.Fatalf("Len diverged: %d vs %d", a.Len(), b.Len())
	}
	checkInvariants(t, a)
}

// TestMissBuildsNothing: a Delete of an absent prefix, and an Update that
// declines an absent prefix's fresh slot, take no node and create no root —
// at a glue node, below a leaf, where a glue node would be needed, and in a
// family with no entries.
func TestMissBuildsNothing(t *testing.T) {
	tr := New[int]()
	for _, s := range []string{"10.0.0.0/8", "10.1.0.0/16", "10.2.0.0/16"} {
		tr.Insert(mustP(s), 1)
	}
	tr.Delete(mustP("10.0.0.0/8")) // 10.0.0.0/8 stays as glue
	type state struct {
		slab       int
		free       *node[int]
		root4      *node[int]
		root6      *node[int]
		len, nodes int
	}
	snap := func() state {
		nodes := 0
		var count func(*node[int])
		count = func(n *node[int]) {
			if n != nil {
				nodes++
				count(n.child[0])
				count(n.child[1])
			}
		}
		count(tr.root4)
		count(tr.root6)
		return state{len(tr.slab), tr.free, tr.root4, tr.root6, tr.Len(), nodes}
	}
	before := snap()
	for _, s := range []string{"10.0.0.0/8", "10.1.2.0/24", "10.128.0.0/9", "11.0.0.0/8", "2001:db8::/32"} {
		p := mustP(s)
		if _, ok := tr.Delete(p); ok {
			t.Fatalf("Delete(%v) found an entry", p)
		}
		tr.Update(p, func(v *int, existed bool) bool {
			if existed || *v != 0 {
				t.Fatalf("Update(%v) handed (%d, %v), want a zeroed fresh slot", p, *v, existed)
			}
			*v = 7
			return false
		})
		if after := snap(); after != before {
			t.Fatalf("a miss on %v changed the trie: %+v, was %+v", p, after, before)
		}
		if _, ok := tr.Get(p); ok {
			t.Fatalf("declined %v is stored", p)
		}
	}
	checkInvariants(t, tr)
}

func TestDeepChainWalk(t *testing.T) {
	// A /0→/128 chain is the worst case for the subtree walk: every node
	// has exactly one child, so the walk is 129 levels deep. The iterative
	// explicit-stack walk must visit all of it in order (the old
	// per-node recursion burned a call frame per level).
	tr := New[int]()
	base := mustA("8000::") // high bit set so every chain step branches on bit i
	for bits := 0; bits <= 128; bits++ {
		p, err := base.Prefix(bits)
		if err != nil {
			t.Fatal(err)
		}
		tr.Insert(p, bits)
	}
	// And the v4 analogue.
	for bits := 0; bits <= 32; bits++ {
		p, err := mustA("128.0.0.0").Prefix(bits)
		if err != nil {
			t.Fatal(err)
		}
		tr.Insert(p, 1000+bits)
	}
	if tr.Len() != 129+33 {
		t.Fatalf("Len = %d", tr.Len())
	}
	last := -1
	n := 0
	tr.Walk(func(p netip.Prefix, v int) bool {
		if p.Bits() <= last {
			t.Fatalf("walk out of order at %v", p)
		}
		last = p.Bits()
		n++
		if p.Bits() == 32 && p.Addr().Is4() {
			last = -1 // family hop resets depth ordering
		}
		return true
	})
	if n != 129+33 {
		t.Fatalf("walked %d entries", n)
	}
	// LongestMatch descends the full chain to the /128 and /32 leaves
	// without panicking past the last bit.
	if p, v, ok := tr.LongestMatch(mustA("8000::")); !ok || v != 128 || p.Bits() != 128 {
		t.Fatalf("v6 chain LongestMatch = %v, %d, %v", p, v, ok)
	}
	if p, v, ok := tr.LongestMatch(mustA("128.0.0.0")); !ok || v != 1032 || p.Bits() != 32 {
		t.Fatalf("v4 chain LongestMatch = %v, %d, %v", p, v, ok)
	}
	// Deleting the chain interior leaves the walk consistent.
	for bits := 1; bits < 128; bits += 2 {
		p, _ := base.Prefix(bits)
		tr.Delete(p)
	}
	n = 0
	tr.Walk(func(netip.Prefix, int) bool { n++; return true })
	if n != tr.Len() {
		t.Fatalf("walk saw %d, Len %d", n, tr.Len())
	}
	checkInvariants(t, tr)
}

func TestLongestMatchZeroAllocs(t *testing.T) {
	tr := New[int]()
	r := rand.New(rand.NewSource(3))
	for i := 0; i < 10000; i++ {
		a := netip.AddrFrom4([4]byte{byte(r.Intn(223) + 1), byte(r.Intn(256)), byte(r.Intn(256)), 0})
		p, _ := a.Prefix(16 + r.Intn(9))
		tr.Insert(p, i)
	}
	addr := netip.AddrFrom4([4]byte{100, 1, 2, 3})
	if allocs := testing.AllocsPerRun(200, func() { tr.LongestMatch(addr) }); allocs != 0 {
		t.Fatalf("LongestMatch allocates %.1f/op", allocs)
	}
	if allocs := testing.AllocsPerRun(200, func() { tr.Get(mustP("100.1.0.0/16")) }); allocs != 0 {
		t.Fatalf("Get allocates %.1f/op", allocs)
	}

	// Every way out of either trie rebuilds a netip.Prefix from the key;
	// none of them may pay an allocation for it.
	pt := NewPersistent[int]()
	for _, s := range []string{"0.0.0.0/0", "96.0.0.0/3", "100.0.0.0/8", "100.1.0.0/16", "100.1.2.0/24", "2001:db8::/32"} {
		tr.Insert(mustP(s), 1)
		pt = pt.Insert(mustP(s), 1)
	}
	it := tr.IterateFrom(mustP("100.1.2.0/24"))
	defer it.Close()
	n := 0
	count := func(netip.Prefix, int) bool { n++; return true }
	for what, f := range map[string]func(){
		"Persistent.LongestMatch": func() { pt.LongestMatch(addr) },
		"Persistent.Get":          func() { pt.Get(mustP("100.1.2.0/24")) },
		"Persistent.Walk":         func() { pt.Walk(count) },
		"Trie.Walk":               func() { tr.WalkCovered(mustP("100.1.0.0/16"), count) },
		"Iterator.Entry":          func() { it.Entry(); it.Prefix() },
	} {
		if allocs := testing.AllocsPerRun(200, f); allocs != 0 {
			t.Errorf("%s allocates %.1f/op", what, allocs)
		}
	}
	if p, _, ok := it.Entry(); !ok || p != mustP("100.1.2.0/24") || n == 0 {
		t.Fatalf("iterator at %v (ok=%v), walks counted %d", p, ok, n)
	}
}

// big is a value worth collecting.
type big struct{ _ [1 << 10]byte }

// insertFinalized stores a fresh *big at p and returns a channel closed
// when the collector has finalized it. Its own frame holds the only other
// reference, and is gone when it returns.
//
//go:noinline
func insertFinalized(tr *Trie[*big], p netip.Prefix) <-chan struct{} {
	done := make(chan struct{})
	b := new(big)
	runtime.SetFinalizer(b, func(*big) { close(done) })
	tr.Insert(p, b)
	return done
}

// TestTrieDeleteReleasesValue: a value slot outlives its entry (it goes on
// the free list inside a slab block that stays), so Delete must clear it
// or the trie keeps every value it ever held reachable.
func TestTrieDeleteReleasesValue(t *testing.T) {
	tr := New[*big]()
	tr.Insert(mustP("10.0.0.0/8"), new(big)) // the slab block stays in use
	done := insertFinalized(tr, mustP("10.1.0.0/16"))
	if _, ok := tr.Delete(mustP("10.1.0.0/16")); !ok {
		t.Fatal("delete failed")
	}
	for i := 0; i < 2; i++ {
		runtime.GC()
	}
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("a deleted entry's value is still reachable after two collections")
	}
	runtime.KeepAlive(tr)
}

func BenchmarkInsert150k(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	ps := make([]netip.Prefix, 150000)
	for i := range ps {
		a := netip.AddrFrom4([4]byte{byte(r.Intn(223) + 1), byte(r.Intn(256)), byte(r.Intn(256)), 0})
		ps[i], _ = a.Prefix(16 + r.Intn(9))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr := New[int]()
		for j, p := range ps {
			tr.Insert(p, j)
		}
	}
}

// BenchmarkTrieLongestMatch measures the word-keyed LPM walk against a
// full-table trie; the fast path requires it to stay at 0 allocs/op.
func BenchmarkTrieLongestMatch(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	tr := New[int]()
	for i := 0; i < 150000; i++ {
		a := netip.AddrFrom4([4]byte{byte(r.Intn(223) + 1), byte(r.Intn(256)), byte(r.Intn(256)), 0})
		p, _ := a.Prefix(16 + r.Intn(9))
		tr.Insert(p, i)
	}
	addrs := make([]netip.Addr, 1024)
	for i := range addrs {
		addrs[i] = netip.AddrFrom4([4]byte{byte(r.Intn(223) + 1), byte(r.Intn(256)), byte(r.Intn(256)), byte(r.Intn(256))})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.LongestMatch(addrs[i%len(addrs)])
	}
}

// BenchmarkTrieUpsert measures the combined Get+Insert traversal on the
// replace path (no node allocation).
func BenchmarkTrieUpsert(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	tr := New[int]()
	ps := make([]netip.Prefix, 0, 150000)
	for i := 0; i < 150000; i++ {
		a := netip.AddrFrom4([4]byte{byte(r.Intn(223) + 1), byte(r.Intn(256)), byte(r.Intn(256)), 0})
		p, _ := a.Prefix(16 + r.Intn(9))
		if replaced, _ := tr.Insert(p, i); !replaced {
			ps = append(ps, p)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Upsert(ps[i%len(ps)], i)
	}
}

// fullTable returns n distinct random IPv4 prefixes in the order drawn:
// first octet 1–223, half of them /24 and the rest /8–/24 — a full table's
// shape. It is a generator of its own because package workload's would
// be an import cycle (workload imports bgp, which imports this package).
func fullTable(n int) []netip.Prefix {
	r := rand.New(rand.NewSource(1))
	seen := make(map[netip.Prefix]bool, n)
	ps := make([]netip.Prefix, 0, n)
	for len(ps) < n {
		bits := 24
		if r.Intn(2) == 0 {
			bits = 8 + r.Intn(17)
		}
		a := netip.AddrFrom4([4]byte{byte(1 + r.Intn(223)), byte(r.Intn(256)), byte(r.Intn(256)), 0})
		if p, _ := a.Prefix(bits); !seen[p] {
			seen[p] = true
			ps = append(ps, p)
		}
	}
	return ps
}

// TestJumpIndexCost pins what the /16 index costs. A full table's index is
// one 2 KiB array per /8 holding a prefix of /16 or longer, plus the 2 KiB
// top level. And announcing, replacing and withdrawing a prefix in a /16
// whose array exists allocates nothing: trickle's steady state, both in a
// /16 that holds routes and in an empty one, whose slot is set and cleared.
func TestJumpIndexCost(t *testing.T) {
	tr := New[int]()
	populated := map[byte]bool{}
	for i, p := range fullTable(146515) {
		tr.Insert(p, i)
		if p.Bits() >= jumpBits {
			populated[p.Addr().As4()[0]] = true
		}
	}
	if tr.jump[1] != nil {
		t.Error("an IPv4-only table built an IPv6 index")
	}
	arrays := 1 // the top level
	for _, sub := range tr.jump[0] {
		if sub != nil {
			arrays++
		}
	}
	const twoKiB = 2 << 10
	size := int(unsafe.Sizeof([256]*node[int]{}))
	if bytes, bound := arrays*size, twoKiB*(len(populated)+1); bytes > bound {
		t.Errorf("the index is %d bytes (%d arrays of %d) for %d populated /8s, want ≤ %d", bytes, arrays, size, len(populated), bound)
	}
	t.Logf("index: %d arrays of %d bytes for %d populated /8s", arrays, size, len(populated))

	// A /24 absent from an occupied /16, and one in an empty /16; both /8s
	// have their array.
	var fresh, empty netip.Prefix
	for x := 0; x < 1<<16 && !(fresh.IsValid() && empty.IsValid()); x++ {
		p := netip.PrefixFrom(netip.AddrFrom4([4]byte{100, byte(x >> 8), byte(x), 0}), 24)
		if _, ok := tr.Get(p); ok {
			continue
		}
		if tr.jumpTo(keyOf(p.Addr()), true) == nil {
			empty = p
		} else {
			fresh = p
		}
	}
	if !populated[100] || !fresh.IsValid() || !empty.IsValid() {
		t.Fatalf("no probe prefixes (fresh %v, empty %v)", fresh, empty)
	}
	for _, p := range []netip.Prefix{fresh, empty} {
		allocs := testing.AllocsPerRun(100, func() {
			tr.Insert(p, 1)
			tr.Upsert(p, 2)
			tr.Delete(p)
		})
		if allocs != 0 {
			t.Errorf("announce, replace, withdraw of %v allocates %.1f", p, allocs)
		}
	}
	checkInvariants(t, tr)
}

// BenchmarkTrieSliceChurn is bulk's shape at the trie layer: each op
// deletes one 256-prefix slice of a full table, taken in insertion order,
// then inserts it again.
func BenchmarkTrieSliceChurn(b *testing.B) {
	const slice = 256
	ps := fullTable(146515)
	tr := New[int]()
	for i, p := range ps {
		tr.Insert(p, i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := ps[i%(len(ps)/slice)*slice:][:slice]
		for _, p := range s {
			tr.Delete(p)
		}
		for j, p := range s {
			tr.Insert(p, j)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*slice), "ns/route")
}

// TestIterateFromMatchesLinearScan cross-checks the seeking IterateFrom
// against a reference linear scan over random tables, including start
// prefixes that are absent, covered, covering, before-all and after-all.
func TestIterateFromMatchesLinearScan(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		tr := New[int]()
		var entries []netip.Prefix
		n := 1 + rng.Intn(60)
		for i := 0; i < n; i++ {
			var a [4]byte
			rng.Read(a[:])
			p, err := netip.AddrFrom4(a).Prefix(rng.Intn(33))
			if err != nil {
				t.Fatal(err)
			}
			if replaced, _ := tr.Insert(p, i); !replaced {
				entries = append(entries, p)
			}
		}
		// A few IPv6 entries so the family hop is exercised.
		for i := 0; i < 3; i++ {
			var a [16]byte
			rng.Read(a[:])
			p, err := netip.AddrFrom16(a).Prefix(rng.Intn(129))
			if err != nil {
				t.Fatal(err)
			}
			if replaced, _ := tr.Insert(p, i); !replaced {
				entries = append(entries, p)
			}
		}
		probe := func(start netip.Prefix) {
			t.Helper()
			// Reference: smallest entry >= start in lex order.
			var want netip.Prefix
			found := false
			for _, e := range entries {
				if e.Addr().Is4() != start.Addr().Is4() {
					// Cross-family: v4 sorts before v6 wholesale.
					if start.Addr().Is4() && !e.Addr().Is4() {
						// eligible
					} else {
						continue
					}
				} else if ComparePrefix(e, start) < 0 {
					continue
				}
				if !found || ComparePrefix(e, want) < 0 {
					want, found = e, true
				}
			}
			it := tr.IterateFrom(start)
			defer it.Close()
			if !found {
				if it.Valid() {
					t.Fatalf("IterateFrom(%v) = %v, want exhausted", start, it.Prefix())
				}
				return
			}
			if !it.Valid() || it.Prefix() != want {
				t.Fatalf("IterateFrom(%v) = %v (valid=%v), want %v", start, it.Prefix(), it.Valid(), want)
			}
		}
		// Probe with existing entries and with random prefixes.
		for _, e := range entries {
			probe(e)
		}
		for i := 0; i < 40; i++ {
			var a [4]byte
			rng.Read(a[:])
			p, _ := netip.AddrFrom4(a).Prefix(rng.Intn(33))
			probe(p)
		}
		probe(mustP("0.0.0.0/0"))
		probe(mustP("255.255.255.255/32"))
		probe(mustP("::/0"))
		probe(mustP("ffff::/16"))
	}
}
