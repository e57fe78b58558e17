package trie

import (
	"math/rand"
	"net/netip"
	"reflect"
	"runtime"
	"slices"
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
		if _, replaced := tr.Upsert(mustP(s), i); replaced {
			t.Fatalf("Upsert(%s) replaced", s)
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
	if old, replaced := tr.Upsert(mustP("10.1.0.0/16"), 99); !replaced || old != 1 {
		t.Fatalf("re-Upsert: %d, replaced=%v", old, replaced)
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
	checkTable(t, tr)
}

func TestInsertUnmaskedPrefixIsMasked(t *testing.T) {
	tr := New[string]()
	p, _ := netip.ParsePrefix("10.1.2.3/8")
	tr.Upsert(p, "x")
	if _, ok := tr.Get(mustP("10.0.0.0/8")); !ok {
		t.Fatal("unmasked insert not normalized")
	}
}

func TestMixedFamilies(t *testing.T) {
	// IPv4 and IPv6 coexist in one table (one internal root per family).
	tr := New[int]()
	tr.Upsert(mustP("10.0.0.0/8"), 1)
	tr.Upsert(mustP("2001:db8::/32"), 2)
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
	// Walks cover both families, v4 first, and a walk resumed after the
	// last IPv4 entry crosses to IPv6.
	if got := walked(tr, netip.Prefix{}); len(got) != 2 || !got[0].Addr().Is4() || got[1].Addr().Is4() {
		t.Fatalf("walk order %v", got)
	}
	if got := walked(tr, mustP("10.0.0.0/8")); len(got) != 1 || got[0] != mustP("2001:db8::/32") {
		t.Fatalf("walk after the IPv4 entry: %v", got)
	}
	if _, ok := tr.Delete(mustP("2001:db8::/32")); !ok {
		t.Fatal("v6 delete failed")
	}
}

// walked returns the prefixes tr.WalkFrom(from) yields.
func walked[T any](tr *Table[T], from netip.Prefix) []netip.Prefix {
	var out []netip.Prefix
	tr.WalkFrom(from, func(p netip.Prefix, _ T) bool { out = append(out, p); return true })
	return out
}

func TestIPv6(t *testing.T) {
	tr := New[int]()
	tr.Upsert(mustP("2001:db8::/32"), 1)
	tr.Upsert(mustP("2001:db8:1::/48"), 2)
	tr.Upsert(mustP("::/0"), 0)
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
		tr.Upsert(mustP(s), s)
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
		t.Error("v6 lookup in v4 table matched")
	}
}

func TestWalkOrder(t *testing.T) {
	tr := New[int]()
	in := []string{"10.1.1.0/24", "0.0.0.0/0", "10.0.0.0/8", "192.168.0.0/16", "10.1.0.0/16"}
	for i, s := range in {
		tr.Upsert(mustP(s), i)
	}
	var got []string
	for _, p := range walked(tr, netip.Prefix{}) {
		got = append(got, p.String())
	}
	want := []string{"0.0.0.0/0", "10.0.0.0/8", "10.1.0.0/16", "10.1.1.0/24", "192.168.0.0/16"}
	if !slices.Equal(got, want) {
		t.Fatalf("walk order %v, want %v", got, want)
	}
}

// TestWalkCovered: in walk order the entries p covers are one run that
// starts at p, so a walk resumed after p and stopped at the first prefix
// outside it visits exactly what p covers below itself — across fan
// levels, as with a /8 over /16s and /24s.
func TestWalkCovered(t *testing.T) {
	tr := New[int]()
	for i, s := range []string{"10.0.0.0/8", "10.1.0.0/16", "10.1.1.0/24", "10.2.0.0/16", "11.0.0.0/8", "9.0.0.0/8"} {
		tr.Upsert(mustP(s), i)
	}
	covered := func(p netip.Prefix) (got []string) {
		tr.WalkFrom(p, func(q netip.Prefix, _ int) bool {
			if !p.Overlaps(q) || q.Bits() <= p.Bits() {
				return false
			}
			got = append(got, q.String())
			return true
		})
		return got
	}
	if got := covered(mustP("10.1.0.0/16")); !slices.Equal(got, []string{"10.1.1.0/24"}) {
		t.Fatalf("covered(10.1/16) = %v", got)
	}
	if got := covered(mustP("10.0.0.0/8")); !slices.Equal(got, []string{"10.1.0.0/16", "10.1.1.0/24", "10.2.0.0/16"}) {
		t.Fatalf("covered(10/8) = %v", got)
	}
	if got := covered(mustP("12.0.0.0/8")); len(got) != 0 {
		t.Fatalf("covered disjoint = %v", got)
	}
}

func TestHasEntryInside(t *testing.T) {
	tr := New[int]()
	tr.Upsert(mustP("128.16.128.0/17"), 1)
	tr.Upsert(mustP("128.16.192.0/18"), 2)
	if !tr.HasEntryInside(mustP("128.16.128.0/17")) {
		t.Fatal("should see /18 inside /17")
	}
	if tr.HasEntryInside(mustP("128.16.192.0/18")) {
		t.Fatal("nothing strictly inside /18")
	}
	if tr.HasEntryInside(mustP("128.16.128.0/18")) {
		t.Fatal("nothing inside left half /18")
	}
	// Prefixes short enough to span fan slots: the entries sit in a
	// /16's trie three fans down, and in a fan's own trie.
	for _, p := range []string{"0.0.0.0/0", "128.0.0.0/1", "128.0.0.0/6", "128.0.0.0/8", "128.16.0.0/12", "128.16.0.0/16"} {
		if !tr.HasEntryInside(mustP(p)) {
			t.Errorf("HasEntryInside(%s) = false over the /17", p)
		}
	}
	for _, p := range []string{"0.0.0.0/1", "129.0.0.0/8", "128.17.0.0/16", "::/0"} {
		if tr.HasEntryInside(mustP(p)) {
			t.Errorf("HasEntryInside(%s) = true", p)
		}
	}
	// A table keeps the fans its last entry under a /8 needed: they hold
	// nothing, and say so.
	tr.Upsert(mustP("10.1.2.0/24"), 3)
	tr.Delete(mustP("10.1.2.0/24"))
	tr.Upsert(mustP("10.0.0.0/9"), 4)
	tr.Delete(mustP("10.0.0.0/9"))
	for _, p := range []string{"10.0.0.0/8", "8.0.0.0/6", "0.0.0.0/1"} {
		if tr.HasEntryInside(mustP(p)) {
			t.Errorf("HasEntryInside(%s) = true over emptied fans", p)
		}
	}
	if !tr.HasEntryInside(mustP("0.0.0.0/0")) {
		t.Error("HasEntryInside(0/0) = false")
	}
}

// The tests named for iterators check the §5.3 safe iterator as it is
// now: a key. A paused task remembers the last prefix it visited and
// resumes with WalkFrom, whatever happened to the table in between.

// next returns the entry WalkFrom(from) yields first.
func next[T any](tr *Table[T], from netip.Prefix) (p netip.Prefix, v T, ok bool) {
	tr.WalkFrom(from, func(q netip.Prefix, w T) bool { p, v, ok = q, w, true; return false })
	return p, v, ok
}

func TestIteratorBasic(t *testing.T) {
	tr := New[int]()
	in := []string{"10.0.0.0/8", "10.1.0.0/16", "172.16.0.0/12", "192.168.1.0/24"}
	for i, s := range in {
		tr.Upsert(mustP(s), i)
	}
	var got []string
	for cur, _, ok := next(tr, netip.Prefix{}); ok && len(got) <= len(in); cur, _, ok = next(tr, cur) {
		got = append(got, cur.String())
	}
	if !slices.Equal(got, in) {
		t.Fatalf("stepped %v", got)
	}
}

func TestIteratorSurvivesDeletionOfCurrent(t *testing.T) {
	// The §5.3 scenario: a background task pauses on a route, the route is
	// deleted, and the task must still make forward progress. Deleted by
	// Delete, and by an Update that declines the entry.
	for name, del := range map[string]func(*Table[int], netip.Prefix){
		"Delete": func(tr *Table[int], p netip.Prefix) { tr.Delete(p) },
		"Update": func(tr *Table[int], p netip.Prefix) { tr.Update(p, func(*int, bool) bool { return false }) },
	} {
		tr := New[int]()
		for i, s := range []string{"10.0.0.0/8", "10.1.0.0/16", "10.2.0.0/16", "10.3.0.0/16"} {
			tr.Upsert(mustP(s), i)
		}
		cur, _, _ := next(tr, mustP("10.0.0.0/8"))
		if cur != mustP("10.1.0.0/16") {
			t.Fatalf("%s: cursor at %v", name, cur)
		}
		del(tr, cur)
		if p, v, ok := next(tr, cur); !ok || p != mustP("10.2.0.0/16") || v != 2 {
			t.Fatalf("%s: after delete, resumed at %v %d %v", name, p, v, ok)
		}
		if tr.Len() != 3 || len(walked(tr, netip.Prefix{})) != 3 {
			t.Fatalf("%s: Len = %d", name, tr.Len())
		}
		checkTable(t, tr)
	}
}

func TestIteratorDeleteEverythingWhilePaused(t *testing.T) {
	tr := New[int]()
	var ps []netip.Prefix
	for i := 0; i < 32; i++ {
		p := netip.PrefixFrom(netip.AddrFrom4([4]byte{10, byte(i), 0, 0}), 16)
		ps = append(ps, p)
		tr.Upsert(p, i)
	}
	cur, _, _ := next(tr, netip.Prefix{})
	for _, p := range ps {
		tr.Delete(p)
	}
	if tr.Len() != 0 {
		t.Fatalf("Len = %d", tr.Len())
	}
	if p, _, ok := next(tr, cur); ok {
		t.Fatalf("resumed at %v after delete-all", p)
	}
	checkTable(t, tr)
}

func TestIteratorSeesInsertsAhead(t *testing.T) {
	tr := New[int]()
	tr.Upsert(mustP("10.0.0.0/8"), 0)
	tr.Upsert(mustP("30.0.0.0/8"), 2)
	cur, _, _ := next(tr, netip.Prefix{})
	tr.Upsert(mustP("20.0.0.0/8"), 1)
	tr.Upsert(mustP("5.0.0.0/8"), 1) // behind the cursor: not seen
	if got := walked(tr, cur); len(got) != 2 || got[0] != mustP("20.0.0.0/8") {
		t.Fatalf("resumed %v, want the insert ahead visible", got)
	}
}

func TestIterateFrom(t *testing.T) {
	tr := New[int]()
	for i, s := range []string{"10.0.0.0/8", "20.0.0.0/8", "30.0.0.0/8"} {
		tr.Upsert(mustP(s), i)
	}
	if p, _, _ := next(tr, mustP("15.0.0.0/8")); p != mustP("20.0.0.0/8") {
		t.Fatalf("WalkFrom(15/8) landed on %v", p)
	}
	if p, _, _ := next(tr, mustP("20.0.0.0/8")); p != mustP("30.0.0.0/8") {
		t.Fatalf("WalkFrom(20/8) landed on %v: it must start after its key", p)
	}
}

func TestMultipleIteratorsSameNode(t *testing.T) {
	tr := New[int]()
	tr.Upsert(mustP("10.0.0.0/8"), 0)
	tr.Upsert(mustP("20.0.0.0/8"), 1)
	c1, _, _ := next(tr, netip.Prefix{})
	c2 := c1
	tr.Delete(mustP("10.0.0.0/8"))
	c1, _, _ = next(tr, c1)
	if c2, _, _ = next(tr, c2); c1 != c2 || c2 != mustP("20.0.0.0/8") {
		t.Fatalf("cursors at %v and %v", c1, c2)
	}
	if tr.Len() != 1 {
		t.Fatalf("Len = %d", tr.Len())
	}
}

// TestWriteInsideWalkPanics: a write inside the table's own walk could
// recycle the node the walk stands on, so it panics — in WalkFrom too —
// and a walk that ends, stopped early or not, leaves the table writable.
func TestWriteInsideWalkPanics(t *testing.T) {
	tr := New[int]()
	tr.Upsert(mustP("10.0.0.0/8"), 1)
	tr.Upsert(mustP("10.1.0.0/16"), 2)
	for name, write := range map[string]func(netip.Prefix){
		"Upsert": func(p netip.Prefix) { tr.Upsert(p, 3) },
		"Delete": func(p netip.Prefix) { tr.Delete(p) },
		"Update": func(p netip.Prefix) { tr.Update(p, func(*int, bool) bool { return false }) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s inside WalkFrom did not panic", name)
				}
			}()
			tr.WalkFrom(netip.Prefix{}, func(p netip.Prefix, _ int) bool { write(p); return true })
		}()
	}
	tr.Walk(func(netip.Prefix, int) bool { return false })
	tr.Upsert(mustP("10.2.0.0/16"), 4)
	if tr.Len() != 3 {
		t.Fatalf("Len = %d", tr.Len())
	}
}

// checkTable verifies the layout under a Table: every Patricia node sits
// in the fan slot its prefix names, strictly inside its parent under the
// right branch, with its word key in sync (a wide node's second word
// included); its kind is canonical — a glue node has two children, so
// every leaf holds a value, an inner node at least one, and a leaf, whose
// allocation has no child words, none; an unpinned table owns every node
// and fan, a pinned one carries no mark newer than its own; Len counts the
// valued nodes; and no node on any of the six free lists is in the tree,
// is listed twice or holds anything but its list's link: no key word,
// child, tail or value, and a leaf stack keeps nothing past its end.
func checkTable[T any](t *testing.T, tr *Table[T]) {
	t.Helper()
	s := &tr.s
	owned := func(o owner) bool {
		if s.blocks { // never pinned
			return o.is(s.id)
		}
		id := uint64(o[0]) | uint64(o[1])<<16 | uint64(o[2])<<32
		return id != 0 && id <= s.id
	}
	inTree := map[*pnode[T]]bool{}
	valuedN := 0
	var walkP func(n *pnode[T], lo, hi uint8, path key128, pathBits uint8, v4 bool)
	walkP = func(n *pnode[T], lo, hi uint8, path key128, pathBits uint8, v4 bool) {
		if n == nil {
			return
		}
		k := n.key()
		p := prefixOf(k, n.bits, v4)
		inTree[n] = true
		kids := n.kids()
		switch {
		case n.bits < lo || n.bits > hi || !k.hasPrefix(path, pathBits):
			t.Fatalf("%v sits in the wrong fan slot (lengths %d…%d)", p, lo, hi)
		case k != k.masked(n.bits) || k != keyOf(p.Addr()):
			t.Fatalf("%v: word key out of sync", p)
		case !owned(n.owner):
			t.Fatalf("%v: a node the table does not own", p)
		case n.kind == glueKind && (kids[0] == nil || kids[1] == nil):
			t.Fatalf("glue node %v has fewer than two children", p)
		case n.kind == innerKind && kids[0] == nil && kids[1] == nil:
			t.Fatalf("inner node %v has no children: it should be a leaf", p)
		case n.kind > leafKind:
			t.Fatalf("%v: kind %d", p, n.kind)
		}
		if n.kind != glueKind {
			valuedN++
		}
		for b, c := range kids {
			if c == nil {
				continue
			}
			if ck := c.key(); c.bits <= n.bits || !ck.hasPrefix(k, n.bits) || ck.bit(n.bits) != b {
				t.Fatalf("%v is not under branch %d of %v", prefixOf(ck, c.bits, v4), b, p)
			}
			walkP(c, lo, hi, path, pathBits, v4)
		}
	}
	var walkF func(f *fan[T], depth uint8, path key128, v4 bool)
	walkF = func(f *fan[T], depth uint8, path key128, v4 bool) {
		if f == nil {
			return
		}
		if !owned(f.owner) || (f.tries != nil) != (depth == fanLevels-1) || (f.kids != nil) == (f.tries != nil) {
			t.Fatalf("fan at depth %d: wrong owner or shape", depth)
		}
		walkP(f.sub, 4*depth, 4*depth+3, path, 4*depth, v4)
		for i := range 16 {
			slot := path
			slot.hi |= uint64(i) << (60 - 4*depth)
			if f.tries != nil {
				walkP(f.tries[i], 4*(depth+1), 128, slot, 4*(depth+1), v4)
			} else {
				walkF(f.kids[i], depth+1, slot, v4)
			}
		}
	}
	walkF(s.tbl.root4, 0, key128{}, true)
	walkF(s.tbl.root6, 0, key128{}, false)
	if valuedN != tr.Len() {
		t.Fatalf("%d valued nodes, Len %d", valuedN, tr.Len())
	}
	// A free node is zeroed, so its header no longer says its shape: the
	// list it is on does, and its whole allocation is read as that shape,
	// the link of a linked list aside.
	zeroed := func(n *pnode[T], size uintptr, linked bool) bool {
		b := unsafe.Slice((*byte)(unsafe.Pointer(n)), size)
		if linked { // skip the first child, the link
			o := unsafe.Offsetof(branch[T]{}.child)
			b = append(append([]byte{}, b[:o]...), b[o+unsafe.Sizeof(n):]...)
		}
		return !slices.ContainsFunc(b, func(c byte) bool { return c != 0 })
	}
	listed := map[*pnode[T]]bool{}
	free := func(n *pnode[T], what string, size uintptr, linked bool) {
		switch {
		case inTree[n]:
			t.Fatalf("a node on the %s free list is still in the tree", what)
		case listed[n]:
			t.Fatalf("a node is on the free lists twice (%s)", what)
		case !zeroed(n, size, linked):
			t.Fatalf("a node on the %s free list was not zeroed", what)
		}
		listed[n] = true
	}
	for _, l := range []struct {
		what string
		head *pnode[T]
		size uintptr
	}{
		{"glue", s.freeG, unsafe.Sizeof(branch[T]{})},
		{"inner", s.freeI, unsafe.Sizeof(inner[T]{})},
		{"wide glue", s.freeWG, unsafe.Sizeof(wideBranch[T]{})},
		{"wide inner", s.freeWI, unsafe.Sizeof(wideInner[T]{})},
	} {
		for n := l.head; n != nil; n = (*branch[T])(unsafe.Pointer(n)).child[0] {
			free(n, l.what, l.size, true)
		}
	}
	for _, l := range []struct {
		what  string
		stack []*pnode[T]
		size  uintptr
	}{
		{"leaf", s.freeL, unsafe.Sizeof(leaf[T]{})},
		{"wide leaf", s.freeWL, unsafe.Sizeof(wideLeaf[T]{})},
	} {
		for _, n := range l.stack {
			free(n, l.what, l.size, false)
		}
		if slices.ContainsFunc(l.stack[len(l.stack):cap(l.stack)], func(n *pnode[T]) bool { return n != nil }) {
			t.Fatalf("the %s free list keeps a leaf past its end", l.what)
		}
	}
	if !reflect.ValueOf(s.scratch).Elem().IsZero() {
		t.Fatal("Update's scratch value was left set")
	}
}

func randomPrefix(r *rand.Rand) netip.Prefix {
	bits := r.Intn(25) // 0..24 keeps collisions frequent
	a := netip.AddrFrom4([4]byte{byte(r.Intn(4)), byte(r.Intn(4)), byte(r.Intn(256)), 0})
	p, _ := a.Prefix(bits)
	return p
}

func TestQuickAgainstModel(t *testing.T) {
	// Property: a table subjected to a random op sequence agrees with a
	// map-based model on Get, Len, LongestMatch and Walk contents.
	f := func(seed int64, nops uint8) bool {
		r := rand.New(rand.NewSource(seed))
		tr := New[int]()
		model := map[netip.Prefix]int{}
		for i := 0; i < int(nops)+20; i++ {
			p := randomPrefix(r)
			switch r.Intn(3) {
			case 0, 1:
				tr.Upsert(p, i)
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
		checkTable(t, tr)
		return count == len(model)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickIteratorUnderMutation(t *testing.T) {
	// Property: a key cursor interleaved with random mutation always
	// terminates, only ever stands on entries the table holds, never goes
	// backwards, and afterwards the table is still well formed.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		tr := New[int]()
		for i := 0; i < 60; i++ {
			tr.Upsert(randomPrefix(r), i)
		}
		cur, _, ok := next(tr, netip.Prefix{})
		for steps := 0; ok && steps < 500; steps++ {
			switch r.Intn(4) {
			case 0:
				tr.Upsert(randomPrefix(r), steps)
			case 1:
				tr.Delete(randomPrefix(r))
			case 2:
				tr.Delete(cur) // the entry under the cursor
			}
			var p netip.Prefix
			if p, _, ok = next(tr, cur); ok {
				if _, present := tr.Get(p); !present || ComparePrefix(p, cur) <= 0 {
					return false
				}
				cur = p
			}
		}
		checkTable(t, tr)
		return len(walked(tr, netip.Prefix{})) == tr.Len()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestInvalidPrefix(t *testing.T) {
	tr := New[int]()
	tr.Upsert(netip.Prefix{}, 1)
	tr.Update(netip.Prefix{}, func(*int, bool) bool { t.Fatal("Update called fn for an invalid prefix"); return true })
	if _, ok := tr.Delete(netip.Prefix{}); ok || tr.Len() != 0 {
		t.Fatal("invalid prefix stored")
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
	// Unmasked input is normalized.
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
	// Property: a Table's one-descent Upsert and Delete answer what a
	// persistent version's Get, then Insert or Delete, do.
	r := rand.New(rand.NewSource(11))
	a, b := New[int](), NewPersistent[int]()
	for i := 0; i < 4000; i++ {
		p := randomPrefix(r)
		oldB, existedB := b.Get(p)
		b = b.Insert(p, i)
		oldA, existedA := a.Upsert(p, i)
		if oldA != oldB || existedA != existedB {
			t.Fatalf("Upsert(%v) = (%d,%v), Get+Insert = (%d,%v)", p, oldA, existedA, oldB, existedB)
		}
		if r.Intn(4) == 0 {
			q := randomPrefix(r)
			vb, _ := b.Get(q)
			va, oka := a.Delete(q)
			var okb bool
			if b, okb = b.Delete(q); va != vb && okb || oka != okb {
				t.Fatalf("Delete(%v) diverged", q)
			}
		}
	}
	if a.Len() != b.Len() {
		t.Fatalf("Len diverged: %d vs %d", a.Len(), b.Len())
	}
	checkTable(t, a)
}

// TestMissBuildsNothing: a Delete of an absent prefix, and an Update that
// declines an absent prefix, take no node and build no fan — at a glue
// node, below a leaf, where a glue node would be needed, and in a family
// with no entries.
func TestMissBuildsNothing(t *testing.T) {
	tr := New[int]()
	for _, s := range []string{"10.0.0.0/8", "10.0.0.0/9", "10.128.0.0/9", "10.1.0.0/16", "10.2.0.0/16"} {
		tr.Upsert(mustP(s), 1)
	}
	tr.Delete(mustP("10.0.0.0/8")) // 10.0.0.0/8's fan trie keeps a glue node there
	type state struct {
		blockG, blockI, blockL int
		freeG, freeI           *pnode[int]
		freeL                  int
		root4, root6           *fan[int]
		len                    int
	}
	snap := func() state {
		s := &tr.s
		return state{len(s.blockG), len(s.blockI), len(s.blockL), s.freeG, s.freeI, len(s.freeL), s.tbl.root4, s.tbl.root6, tr.Len()}
	}
	before, shape := snap(), walked(tr, netip.Prefix{})
	for _, s := range []string{"10.0.0.0/8", "10.1.2.0/24", "10.128.0.0/10", "11.0.0.0/8", "2001:db8::/32"} {
		p := mustP(s)
		if _, ok := tr.Delete(p); ok {
			t.Fatalf("Delete(%v) found an entry", p)
		}
		tr.Update(p, func(v *int, existed bool) bool {
			if existed || *v != 0 {
				t.Fatalf("Update(%v) handed (%d, %v), want a zeroed fresh value", p, *v, existed)
			}
			*v = 7
			return false
		})
		if after := snap(); after != before || !slices.Equal(walked(tr, netip.Prefix{}), shape) {
			t.Fatalf("a miss on %v changed the table: %+v, was %+v", p, after, before)
		}
		if _, ok := tr.Get(p); ok {
			t.Fatalf("declined %v is stored", p)
		}
	}
	checkTable(t, tr)
}

func TestDeepChainWalk(t *testing.T) {
	// A /0→/128 chain is the worst case for the subtree walk: every node
	// has exactly one child, so the walk is 129 levels deep. The iterative
	// explicit-stack walk must visit all of it in order, and a walk
	// resumed in the middle of the chain must seek down it.
	tr := New[int]()
	base := mustA("8000::") // high bit set so every chain step branches on bit i
	for bits := 0; bits <= 128; bits++ {
		p, err := base.Prefix(bits)
		if err != nil {
			t.Fatal(err)
		}
		tr.Upsert(p, bits)
	}
	// And the v4 analogue.
	for bits := 0; bits <= 32; bits++ {
		p, err := mustA("128.0.0.0").Prefix(bits)
		if err != nil {
			t.Fatal(err)
		}
		tr.Upsert(p, 1000+bits)
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
	mid, _ := base.Prefix(77)
	if got := walked(tr, mid); len(got) != 128-77 || got[0].Bits() != 78 {
		t.Fatalf("walk resumed after %v yields %d entries from %v", mid, len(got), got)
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
	if n = len(walked(tr, netip.Prefix{})); n != tr.Len() {
		t.Fatalf("walk saw %d, Len %d", n, tr.Len())
	}
	checkTable(t, tr)
}

func TestLongestMatchZeroAllocs(t *testing.T) {
	tr := New[int]()
	r := rand.New(rand.NewSource(3))
	for i := 0; i < 10000; i++ {
		a := netip.AddrFrom4([4]byte{byte(r.Intn(223) + 1), byte(r.Intn(256)), byte(r.Intn(256)), 0})
		p, _ := a.Prefix(16 + r.Intn(9))
		tr.Upsert(p, i)
	}
	addr := netip.AddrFrom4([4]byte{100, 1, 2, 3})
	if allocs := testing.AllocsPerRun(200, func() { tr.LongestMatch(addr) }); allocs != 0 {
		t.Fatalf("LongestMatch allocates %.1f/op", allocs)
	}
	if allocs := testing.AllocsPerRun(200, func() { tr.Get(mustP("100.1.0.0/16")) }); allocs != 0 {
		t.Fatalf("Get allocates %.1f/op", allocs)
	}

	// Every way out of either holder rebuilds a netip.Prefix from the key;
	// none of them may pay an allocation for it.
	pt := NewPersistent[int]()
	for _, s := range []string{"0.0.0.0/0", "96.0.0.0/3", "100.0.0.0/8", "100.1.0.0/16", "100.1.2.0/24", "2001:db8::/32"} {
		tr.Upsert(mustP(s), 1)
		pt = pt.Insert(mustP(s), 1)
	}
	n := 0
	count := func(netip.Prefix, int) bool { n++; return true }
	stop := func(netip.Prefix, int) bool { n++; return false }
	for what, f := range map[string]func(){
		"Persistent.LongestMatch": func() { pt.LongestMatch(addr) },
		"Persistent.Get":          func() { pt.Get(mustP("100.1.2.0/24")) },
		"Persistent.Walk":         func() { pt.Walk(count) },
		"Table.WalkFrom":          func() { tr.WalkFrom(mustP("100.1.2.0/24"), stop) },
		"Table.HasEntryInside":    func() { tr.HasEntryInside(mustP("100.0.0.0/8")) },
	} {
		if allocs := testing.AllocsPerRun(200, f); allocs != 0 {
			t.Errorf("%s allocates %.1f/op", what, allocs)
		}
	}
	if n == 0 {
		t.Fatal("no walk visited anything")
	}
}

// big is a value worth collecting.
type big struct{ _ [1 << 10]byte }

// insertFinalized stores a fresh *big at p and returns a channel closed
// when the collector has finalized it. Its own frame holds the only other
// reference, and is gone when it returns.
//
//go:noinline
func insertFinalized(tr *Table[*big], p netip.Prefix) <-chan struct{} {
	done := make(chan struct{})
	b := new(big)
	runtime.SetFinalizer(b, func(*big) { close(done) })
	tr.Upsert(p, b)
	return done
}

// TestTrieDeleteReleasesValue: a node outlives its entry (it goes on the
// free list inside a block that stays), so Delete must clear its value or
// the table keeps every value it ever held reachable.
func TestTrieDeleteReleasesValue(t *testing.T) {
	tr := New[*big]()
	tr.Upsert(mustP("10.0.0.0/8"), new(big)) // the block stays in use
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
			tr.Upsert(p, j)
		}
	}
}

// BenchmarkTrieLongestMatch measures the word-keyed LPM walk against a
// full table; the fast path requires it to stay at 0 allocs/op.
func BenchmarkTrieLongestMatch(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	tr := New[int]()
	for i := 0; i < 150000; i++ {
		a := netip.AddrFrom4([4]byte{byte(r.Intn(223) + 1), byte(r.Intn(256)), byte(r.Intn(256)), 0})
		p, _ := a.Prefix(16 + r.Intn(9))
		tr.Upsert(p, i)
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

// BenchmarkTrieUpsert measures the one-descent Upsert on the replace path
// (no node allocation).
func BenchmarkTrieUpsert(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	tr := New[int]()
	ps := make([]netip.Prefix, 0, 150000)
	for i := 0; i < 150000; i++ {
		a := netip.AddrFrom4([4]byte{byte(r.Intn(223) + 1), byte(r.Intn(256)), byte(r.Intn(256)), 0})
		p, _ := a.Prefix(16 + r.Intn(9))
		if _, replaced := tr.Upsert(p, i); !replaced {
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

// TestTableChurnAllocatesNothing: announcing, replacing and withdrawing a
// prefix in a full table allocates nothing — trickle's steady state —
// both in a /16 that holds routes and in an empty one under an /8 whose
// fans exist, and in a /8 whose last route went: the table keeps its fans
// and reuses the nodes it dropped. So does an IPv6 /128 beside another,
// whose wide leaf and the wide glue above it go on wide free lists of
// their own. A whole 256-route slice withdrawn and announced again
// allocates nothing either, bulk's steady state. A leaf that gains a route
// below it and loses it again, a /16 over a /24 and an IPv6 /80 over a
// /96, moves between the leaf and inner shapes through the free lists,
// and allocates nothing either, before a pin and after one.
func TestTableChurnAllocatesNothing(t *testing.T) {
	tr := New[int]()
	ps := fullTable(146515)
	for i, p := range ps {
		tr.Upsert(p, i)
	}
	tr.Upsert(mustP("2001:db8:1::4/128"), 0)
	wide := mustP("2001:db8:1::5/128")
	var fresh, empty netip.Prefix
	for x := 0; x < 1<<16 && !(fresh.IsValid() && empty.IsValid()); x++ {
		p := netip.PrefixFrom(netip.AddrFrom4([4]byte{100, byte(x >> 8), byte(x), 0}), 24)
		if _, ok := tr.Get(p); ok {
			continue
		}
		if tr.HasEntryInside(netip.PrefixFrom(p.Addr(), 16)) {
			fresh = p
		} else {
			empty = p
		}
	}
	lone := mustP("240.1.2.0/24") // first octet past every route: its fans empty after each op
	if !fresh.IsValid() || !empty.IsValid() {
		t.Fatalf("no probe prefixes (fresh %v, empty %v)", fresh, empty)
	}
	for _, p := range []netip.Prefix{fresh, empty, lone, wide} {
		allocs := testing.AllocsPerRun(100, func() {
			tr.Upsert(p, 1)
			tr.Upsert(p, 2)
			tr.Update(p, func(v *int, _ bool) bool { *v++; return true })
			tr.Delete(p)
		})
		if allocs != 0 {
			t.Errorf("announce, replace, withdraw of %v allocates %.1f", p, allocs)
		}
	}
	slice := ps[512:768]
	allocs := testing.AllocsPerRun(10, func() {
		for _, p := range slice {
			tr.Delete(p)
		}
		for j, p := range slice {
			tr.Upsert(p, j)
		}
	})
	if allocs != 0 {
		t.Errorf("a 256-route slice withdrawn and announced again allocates %.1f", allocs)
	}
	checkTable(t, tr)

	leaves := []struct{ top, below netip.Prefix }{
		{mustP("241.7.0.0/16"), mustP("241.7.1.0/24")},
		{mustP("2001:db8:2::/80"), mustP("2001:db8:2::/96")},
	}
	promote := func(what string) {
		t.Helper()
		for _, l := range leaves {
			allocs := testing.AllocsPerRun(100, func() {
				tr.Upsert(l.below, 1)
				if nodeAt(tr, l.top).kind != innerKind {
					t.Fatalf("%s: %v did not become an inner node over %v", what, l.top, l.below)
				}
				tr.Delete(l.below)
			})
			if n := nodeAt(tr, l.top); n.kind != leafKind || *n.value() != 3 {
				t.Fatalf("%s: %v is not a leaf holding its value after %v went", what, l.top, l.below)
			}
			if allocs != 0 {
				t.Errorf("%s: %v gaining and losing %v allocates %.1f", what, l.top, l.below, allocs)
			}
		}
	}
	for _, l := range leaves {
		tr.Upsert(l.top, 3)
	}
	promote("unpinned")
	pinned := tr.Pin()
	promote("pinned")
	for _, l := range leaves {
		if v, ok := pinned.Get(l.top); !ok || v != 3 || pinned.hasEntryInside(l.top) {
			t.Fatalf("the pinned version's %v changed: (%d, %v), something under it %v", l.top, v, ok, pinned.hasEntryInside(l.top))
		}
	}
	checkTable(t, tr)
}

// nodeAt returns the node at exactly p in tr, valued or glue, or nil.
func nodeAt[T any](tr *Table[T], p netip.Prefix) *pnode[T] {
	root, _ := tr.s.tbl.root(p.Addr())
	k, pb := keyOf(p.Addr()), uint8(p.Bits())
	for n := (*root).trieOf(k, pb); n != nil && n.covers(k, pb); n = n.kids()[k.bit(n.bits)] {
		if n.bits == pb {
			return n
		}
	}
	return nil
}

// BenchmarkTrieSliceChurn is bulk's shape at the trie layer: each op
// deletes one 256-prefix slice of a full table, taken in insertion order,
// then inserts it again.
func BenchmarkTrieSliceChurn(b *testing.B) {
	const slice = 256
	ps := fullTable(146515)
	tr := New[int]()
	for i, p := range ps {
		tr.Upsert(p, i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := ps[i%(len(ps)/slice)*slice:][:slice]
		for _, p := range s {
			tr.Delete(p)
		}
		for j, p := range s {
			tr.Upsert(p, j)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*slice), "ns/route")
}

// TestIterateFromMatchesLinearScan cross-checks the seeking WalkFrom
// against a reference linear scan over random tables, including start
// prefixes that are absent, covered, covering, before-all and after-all:
// the whole rest of the walk, not only its first entry.
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
			if _, replaced := tr.Upsert(p, i); !replaced {
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
			if _, replaced := tr.Upsert(p, i); !replaced {
				entries = append(entries, p)
			}
		}
		slices.SortFunc(entries, ComparePrefix)
		probe := func(start netip.Prefix) {
			t.Helper()
			var want []netip.Prefix
			for _, e := range entries {
				if ComparePrefix(e, start) > 0 {
					want = append(want, e)
				}
			}
			if got := walked(tr, start); !slices.Equal(got, want) {
				t.Fatalf("WalkFrom(%v) = %v, want %v", start, got, want)
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
		if got := walked(tr, netip.Prefix{}); !slices.Equal(got, entries) {
			t.Fatalf("WalkFrom(invalid) = %v, want the whole table", got)
		}
	}
}
