package trie

import (
	"math/rand"
	"net/netip"
	"runtime"
	"testing"
	"unsafe"

	"xorp/internal/route"
)

func TestPersistentBasic(t *testing.T) {
	p0 := NewPersistent[string]()
	p1 := p0.Insert(netip.MustParsePrefix("10.0.0.0/8"), "a")
	p2 := p1.Insert(netip.MustParsePrefix("10.1.0.0/16"), "b")
	p3 := p2.Insert(netip.MustParsePrefix("10.1.1.0/24"), "c")

	if p0.Len() != 0 || p1.Len() != 1 || p2.Len() != 2 || p3.Len() != 3 {
		t.Fatalf("lengths: %d %d %d %d", p0.Len(), p1.Len(), p2.Len(), p3.Len())
	}

	// Older versions are untouched by later inserts.
	if _, _, ok := p1.LongestMatch(netip.MustParseAddr("10.1.1.1")); !ok {
		t.Fatal("p1 lost its /8")
	}
	if pfx, v, _ := p1.LongestMatch(netip.MustParseAddr("10.1.1.1")); v != "a" || pfx.Bits() != 8 {
		t.Fatalf("p1 match = %v %q, want /8 a", pfx, v)
	}
	if pfx, v, _ := p3.LongestMatch(netip.MustParseAddr("10.1.1.1")); v != "c" || pfx.Bits() != 24 {
		t.Fatalf("p3 match = %v %q, want /24 c", pfx, v)
	}

	// Replacing a value leaves the old version with the old value.
	p4 := p3.Insert(netip.MustParsePrefix("10.1.1.0/24"), "c2")
	if p4.Len() != 3 {
		t.Fatalf("replace changed len: %d", p4.Len())
	}
	if v, _ := p3.Get(netip.MustParsePrefix("10.1.1.0/24")); v != "c" {
		t.Fatalf("p3 value mutated: %q", v)
	}
	if v, _ := p4.Get(netip.MustParsePrefix("10.1.1.0/24")); v != "c2" {
		t.Fatalf("p4 value = %q", v)
	}

	// Deleting from p4 leaves p4 intact in the new version's ancestors.
	p5, ok := p4.Delete(netip.MustParsePrefix("10.1.0.0/16"))
	if !ok || p5.Len() != 2 {
		t.Fatalf("delete: ok=%v len=%d", ok, p5.Len())
	}
	if _, ok := p4.Get(netip.MustParsePrefix("10.1.0.0/16")); !ok {
		t.Fatal("p4 lost its /16 after delete on successor")
	}
	if pfx, _, _ := p5.LongestMatch(netip.MustParseAddr("10.1.1.1")); pfx.Bits() != 24 {
		t.Fatalf("p5 LPM = %v, want /24", pfx)
	}
	if pfx, _, _ := p5.LongestMatch(netip.MustParseAddr("10.1.2.1")); pfx.Bits() != 8 {
		t.Fatalf("p5 LPM = %v, want /8", pfx)
	}

	// Deleting a missing prefix returns the receiver.
	same, ok := p5.Delete(netip.MustParsePrefix("192.168.0.0/16"))
	if ok || same != p5 {
		t.Fatal("delete of missing prefix must return the receiver unchanged")
	}
}

func TestPersistentV6(t *testing.T) {
	p := NewPersistent[int]().
		Insert(netip.MustParsePrefix("2001:db8::/32"), 1).
		Insert(netip.MustParsePrefix("2001:db8:1::/48"), 2).
		Insert(netip.MustParsePrefix("10.0.0.0/8"), 3)
	if p.Len() != 3 {
		t.Fatalf("len = %d", p.Len())
	}
	if _, v, _ := p.LongestMatch(netip.MustParseAddr("2001:db8:1::5")); v != 2 {
		t.Fatalf("v6 LPM = %d, want 2", v)
	}
	if _, v, _ := p.LongestMatch(netip.MustParseAddr("2001:db8:2::5")); v != 1 {
		t.Fatalf("v6 LPM = %d, want 1", v)
	}
	if _, v, _ := p.LongestMatch(netip.MustParseAddr("10.9.9.9")); v != 3 {
		t.Fatalf("v4 LPM through mixed table = %d, want 3", v)
	}
	if _, _, ok := p.LongestMatch(netip.MustParseAddr("2002::1")); ok {
		t.Fatal("unexpected v6 match")
	}
}

// TestLongestMatchDeepestFanFirst pins the lookup order: the /16's trie
// first, then the fans' own tries from the deepest up. Each family holds a
// prefix in a depth-2 fan's own trie, one in a depth-3 fan's and one in a
// /16's trie; an address the /16's trie misses must get the depth-3 fan's
// prefix, not the shorter one above it.
func TestLongestMatchDeepestFanFirst(t *testing.T) {
	for _, c := range []struct {
		held  [3]string // depth 2, depth 3, the /16's trie
		probe [4]string // answered by the /16's trie, depth 3, depth 2, nothing
	}{
		{[3]string{"10.0.0.0/9", "10.0.0.0/14", "10.0.1.0/24"}, [4]string{"10.0.1.1", "10.0.2.1", "10.4.0.1", "10.200.0.1"}},
		{[3]string{"2000::/9", "2000::/14", "2001:db8::/32"}, [4]string{"2001:db8::1", "2001:db9::1", "2004::1", "2100::1"}},
	} {
		tbl := NewPersistent[int]()
		for i, s := range c.held {
			tbl = tbl.Insert(mustP(s), i)
		}
		at := mustP(c.held[2]).Addr()
		k := keyOf(at)
		root, _ := tbl.root(at)
		d2 := (*root).kids[k.nibble(0)].kids[k.nibble(1)]
		d3 := d2.kids[k.nibble(2)]
		if d2.sub == nil || d3.sub == nil || d3.tries[k.nibble(3)] == nil {
			t.Fatalf("%v: the prefixes do not sit at depths 2, 3 and in a /16's trie", c.held)
		}
		for i, s := range c.probe {
			a := netip.MustParseAddr(s)
			p, v, ok := tbl.LongestMatch(a)
			switch {
			case i == 3 && ok:
				t.Errorf("LongestMatch(%v) = %v, want no match", a, p)
			case i < 3 && (!ok || p != mustP(c.held[2-i]) || v != 2-i):
				t.Errorf("LongestMatch(%v) = %v %d %v, want %v", a, p, v, ok, c.held[2-i])
			}
			if n := testing.AllocsPerRun(100, func() { tbl.LongestMatch(a) }); n != 0 {
				t.Errorf("LongestMatch(%v) allocates %.1f/op", a, n)
			}
		}
	}
}

// kv is one table entry as Walk yields it.
type kv struct {
	p netip.Prefix
	v uint32
}

func walkAll(walk func(func(netip.Prefix, uint32) bool)) []kv {
	var out []kv
	walk(func(p netip.Prefix, v uint32) bool { out = append(out, kv{p, v}); return true })
	return out
}

func sameKVs(a, b []kv) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestPersistentMatchesTrie drives the same random operation stream
// (inserts, replaces and deletes over both address families) into three
// tables — a mutable Table, a Persistent chain advanced one always-copy
// Insert/Delete at a time, and a second Table pinned after runs of random
// length 1…300 — and demands identical Get, LongestMatch and Walk results
// at every pin. It also keeps every version ever pinned and checks that
// each still walks to the contents recorded at its pin: a write must never
// land in a node a pinned version can reach. This is the correctness
// anchor the fwd snapshot oracle builds on.
func TestPersistentMatchesTrie(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	mt := New[uint32]()
	pt := NewPersistent[uint32]()
	pinning := New[uint32]()

	randAddr := func(host bool) netip.Addr {
		last := byte(r.Intn(4))
		if host {
			last = byte(r.Intn(256))
		}
		if r.Intn(4) == 0 {
			return netip.AddrFrom16([16]byte{0x20, 0x01, 0x0d, 0xb8, byte(r.Intn(4)), byte(r.Intn(8)), 0, byte(r.Intn(8)), 15: last})
		}
		return netip.AddrFrom4([4]byte{byte(10 + r.Intn(4)), byte(r.Intn(8)), byte(r.Intn(8)), last})
	}
	randPrefix := func() netip.Prefix {
		a := randAddr(false)
		bits := 8 + r.Intn(25) // 8..32
		if a.Is6() {
			bits = 32 + r.Intn(97) // 32..128
		}
		p, _ := a.Prefix(bits)
		return p
	}
	probes := make([]netip.Addr, 96)
	for i := range probes {
		probes[i] = randAddr(true)
	}

	type version struct {
		tbl  *Persistent[uint32]
		want []kv
	}
	var pinned []version

	var live []netip.Prefix
	left := 1 + r.Intn(300)
	const steps = 12000
	for step := 0; step < steps; step++ {
		switch {
		case len(live) > 0 && r.Intn(3) == 0:
			i := r.Intn(len(live))
			p := live[i]
			live = append(live[:i], live[i+1:]...)
			_, mok := mt.Delete(p)
			var pok bool
			pt, pok = pt.Delete(p)
			_, eok := pinning.Delete(p)
			if mok != pok || mok != eok {
				t.Fatalf("step %d: delete(%v) trie=%v persistent=%v pinned=%v", step, p, mok, pok, eok)
			}
		default:
			p := randPrefix()
			if len(live) > 0 && r.Intn(4) == 0 {
				p = live[r.Intn(len(live))] // replace
			} else {
				live = append(live, p)
			}
			v := r.Uint32()
			mt.Upsert(p, v)
			pt = pt.Insert(p, v)
			pinning.Upsert(p, v)
		}
		if mt.Len() != pt.Len() || mt.Len() != pinning.Len() {
			t.Fatalf("step %d: len trie=%d persistent=%d pinned=%d", step, mt.Len(), pt.Len(), pinning.Len())
		}
		if left--; left > 0 && step != steps-1 {
			continue
		}

		v := pinning.Pin()
		et := &v
		left = 1 + r.Intn(300)

		want := walkAll(mt.Walk)
		if got := walkAll(pt.Walk); !sameKVs(got, want) {
			t.Fatalf("step %d: persistent walk differs from trie", step)
		}
		if got := walkAll(et.Walk); !sameKVs(got, want) {
			t.Fatalf("step %d: pinned walk differs from trie", step)
		}
		for _, e := range want {
			pv, pok := pt.Get(e.p)
			ev, eok := et.Get(e.p)
			if !pok || !eok || pv != e.v || ev != e.v {
				t.Fatalf("step %d: Get(%v) persistent=(%d,%v) pinned=(%d,%v), want %d", step, e.p, pv, pok, ev, eok, e.v)
			}
		}
		for _, a := range probes {
			mp, mv, mok := mt.LongestMatch(a)
			pp, pv, pok := pt.LongestMatch(a)
			ep, ev, eok := et.LongestMatch(a)
			if mok != pok || mp != pp || mv != pv || mok != eok || mp != ep || mv != ev {
				t.Fatalf("step %d: LPM(%v) trie=(%v,%d,%v) persistent=(%v,%d,%v) pinned=(%v,%d,%v)",
					step, a, mp, mv, mok, pp, pv, pok, ep, ev, eok)
			}
		}
		for i, old := range pinned {
			if old.tbl.Len() != len(old.want) || !sameKVs(walkAll(old.tbl.Walk), old.want) {
				t.Fatalf("step %d: version %d changed after it was pinned", step, i)
			}
		}
		pinned = append(pinned, version{et, want})
	}
	if len(pinned) < 40 {
		t.Fatalf("only %d versions pinned", len(pinned))
	}
}

// TestPnodeSize pins every node to its allocator size class: a field
// added to a header, or padding after the owner mark, grows every table.
// The header holds one key word and no child pair, so every route table's
// leaf is 32 bytes, its inner node 48 and its glue 32, each filling its
// class exactly; only IPv6 nodes past /64 carry the second word, in a word
// of their own after the header or the child pair.
func TestPnodeSize(t *testing.T) {
	type slot struct{ attrs, who *int } // a ribSlot is two pointers
	for _, c := range []struct {
		what      string
		got, want uintptr
		exact     bool
	}{
		{"header pnode", unsafe.Sizeof(pnode[route.Entry]{}), 16, true},
		{"glue branch", unsafe.Sizeof(branch[route.Entry]{}), 32, true},
		{"glue branch[uint64]", unsafe.Sizeof(branch[uint64]{}), 32, true},
		// The forwarding plane's valued nodes: a leaf fills the 32 class,
		// an inner node the 48; a field more lands every route a class up.
		{"route.Stored", unsafe.Sizeof(route.Stored{}), 16, true},
		{"leaf[route.Stored]", unsafe.Sizeof(leaf[route.Stored]{}), 32, true},
		{"leaf[ribSlot]", unsafe.Sizeof(leaf[slot]{}), 32, true},
		{"inner[route.Stored]", unsafe.Sizeof(inner[route.Stored]{}), 48, true},
		{"inner[ribSlot]", unsafe.Sizeof(inner[slot]{}), 48, true},
		{"wideLeaf[route.Stored]", unsafe.Sizeof(wideLeaf[route.Stored]{}), 40, true},
		{"wideLeaf[ribSlot]", unsafe.Sizeof(wideLeaf[slot]{}), 40, true},
		{"wideBranch", unsafe.Sizeof(wideBranch[route.Stored]{}), 40, true},
		{"wideInner[route.Stored]", unsafe.Sizeof(wideInner[route.Stored]{}), 56, true},
		{"inner[route.Entry]", unsafe.Sizeof(inner[route.Entry]{}), 136, false},
		{"fan with its kids", unsafe.Sizeof(fanned[route.Entry]{}), 160, false},
		{"last fan with its tries", unsafe.Sizeof(rooted[route.Entry]{}), 160, false},
	} {
		if c.got != c.want && (c.exact || c.got > c.want) {
			t.Errorf("%s is %d bytes, want %d (exact=%v)", c.what, c.got, c.want, c.exact)
		}
	}
	// A Table's blocks and the allocator's 8-byte header for a large
	// pointerful object fill the 8,192-byte class to within one node, for
	// each node type its own count: the route tables' leaves and inner
	// nodes, BGP's RIB-in leaves and glue.
	for _, c := range []struct {
		what              string
		node, count, want uintptr
	}{
		{"leaf[route.Stored]", unsafe.Sizeof(leaf[route.Stored]{}), uintptr(len(newBlock[leaf[route.Stored]]())), 255},
		{"leaf[ribSlot]", unsafe.Sizeof(leaf[slot]{}), uintptr(len(newBlock[leaf[slot]]())), 255},
		{"inner[route.Stored]", unsafe.Sizeof(inner[route.Stored]{}), uintptr(len(newBlock[inner[route.Stored]]())), 170},
		{"inner[ribSlot]", unsafe.Sizeof(inner[slot]{}), uintptr(len(newBlock[inner[slot]]())), 170},
		{"glue branch[route.Stored]", unsafe.Sizeof(branch[route.Stored]{}), uintptr(len(newBlock[branch[route.Stored]]())), 255},
	} {
		if block := c.count*c.node + 8; c.count != c.want || block > blockBytes || block <= blockBytes-c.node {
			t.Errorf("a block of %d %s is %d bytes with its header, want %d within one node under the %d class", c.count, c.what, block, c.want, blockBytes)
		}
	}
	// A valued node's tail is its value, reached without a pointer: right
	// after the header for a leaf, after the child pair for an inner node.
	s := &session[int]{id: 1}
	n := s.valued(pnode[int]{}, 0, [2]*pnode[int]{}, 7)
	if n.kind != leafKind || n.kids() != ([2]*pnode[int]{}) || unsafe.Pointer(n.value()) != unsafe.Add(unsafe.Pointer(n), unsafe.Offsetof(leaf[int]{}.v)) || *n.value() != 7 {
		t.Error("a childless valued node is not a leaf heading its own value")
	}
	kids := [2]*pnode[int]{nil, n}
	in := s.valued(pnode[int]{}, 0, kids, 8)
	if in.kind != innerKind || in.kids() != kids || unsafe.Pointer(in.value()) != unsafe.Add(unsafe.Pointer(in), unsafe.Offsetof(inner[int]{}.v)) || *in.value() != 8 {
		t.Error("a valued node with a child is not an inner node heading its children and value")
	}
	if g := s.glue(*in, 0, kids); g.kind != glueKind || g.kids() != kids {
		t.Error("a glue node made from an inner header is not glue with its children")
	}
	// A wide node's key's second word follows the header, or the child
	// pair, and its value follows that.
	w := s.valued(pnode[int]{hi: 1, bits: 65}, 1<<63, [2]*pnode[int]{}, 7)
	if w.kind != leafKind || unsafe.Pointer(w.value()) != unsafe.Add(unsafe.Pointer(w), unsafe.Offsetof(wideLeaf[int]{}.v)) || *w.value() != 7 || w.key() != (key128{1, 1 << 63}) {
		t.Error("a wide leaf does not keep its key's second word and its value in its tail")
	}
	wi := s.valued(*w, w.lo(), kids, 8)
	if wi.kind != innerKind || wi.kids() != kids || unsafe.Pointer(wi.value()) != unsafe.Add(unsafe.Pointer(wi), unsafe.Offsetof(wideInner[int]{}.v)) || *wi.value() != 8 || wi.key() != w.key() {
		t.Error("a wide inner node does not keep its children, its key's second word and its value")
	}
	if g := s.glue(*wi, wi.lo(), kids); g.kind != glueKind || g.key() != w.key() || g.kids() != kids {
		t.Error("a wide glue node made from a wide inner one lost its tail")
	}
	f := (*fan[int])(nil).own(1, 0)
	if f.tries != nil || unsafe.Pointer(f.kids) != unsafe.Add(unsafe.Pointer(f), unsafe.Offsetof(fanned[int]{}.arr)) {
		t.Error("a fan's kids does not point at its own tail")
	}
	l := (*fan[int])(nil).own(1, fanLevels-1)
	if l.kids != nil || unsafe.Pointer(l.tries) != unsafe.Add(unsafe.Pointer(l), unsafe.Offsetof(rooted[int]{}.arr)) {
		t.Error("the last fan's tries does not point at its own tail")
	}
}

// TestEditOwnerMark pins the safety of the owner mark: ids are unique
// across tables and element types, they fit the 48 bits a node stores, a
// pin renews its table's id, and a version pinned from a table is never
// written by the table's later writes.
func TestEditOwnerMark(t *testing.T) {
	a, b, c := New[int](), New[string](), New[int]()
	if a.s.id == 0 || a.s.id == b.s.id || b.s.id == c.s.id || a.s.id == c.s.id {
		t.Fatalf("table ids not unique: %d %d %d", a.s.id, b.s.id, c.s.id)
	}

	// A node stores every bit of the widest id.
	const widest = uint64(1<<editIDBits - 1)
	as := func(id uint64) *session[int] { return &session[int]{id: id} }
	n := as(widest).valued(pnode[int]{}, 0, [2]*pnode[int]{}, 0)
	if !n.owner.is(widest) {
		t.Fatal("widest id does not round-trip through a node")
	}
	if n.owner.is(widest&^1) || n.owner.is(widest&^(1<<40)) {
		t.Fatal("ids differing in one half matched")
	}
	// Id 0 (always-copy mode) owns nothing, not even unmarked nodes.
	if z := (&branch[int]{}).pnode; z.owner.is(0) {
		t.Fatal("id 0 took ownership of an unmarked node")
	}
	// Both fan shapes carry the same mark under the same rules, and a copy
	// keeps its shape.
	for _, depth := range []uint8{0, fanLevels - 1} {
		f := (*fan[int])(nil).own(widest, depth)
		if f.own(widest, depth) != f || f.own(widest&^1, depth) == f || f.own(0, depth) == f {
			t.Fatalf("fan at depth %d: owner mark does not follow the node rules", depth)
		}
		if z := (*fan[int])(nil).own(0, depth); z.own(0, depth) == z {
			t.Fatal("id 0 took ownership of an unmarked fan")
		}
		if c := f.own(widest&^1, depth); (c.kids == nil) != (f.kids == nil) || (c.tries == nil) != (f.tries == nil) {
			t.Fatalf("fan at depth %d: a copy changed shape", depth)
		}
	}

	// The writes after a pin copy, never share.
	p10 := netip.MustParsePrefix("10.0.0.0/8")
	a.Upsert(p10, 1)
	before := a.s.id
	v1 := a.Pin()
	if a.s.id == before || a.s.id == 0 {
		t.Fatal("Pin left the table's mark as it was")
	}
	a.Upsert(p10, 2)
	v2 := a.Pin()
	if got, _ := v1.Get(p10); got != 1 {
		t.Fatalf("v1 mutated by a later write: %d", got)
	}
	if got, _ := v2.Get(p10); got != 2 {
		t.Fatalf("v2 = %d", got)
	}

	// Exhaustion panics instead of wrapping into ids still in use.
	saved := editIDs.Swap(1<<editIDBits - 1)
	defer editIDs.Store(saved)
	defer func() {
		if recover() == nil {
			t.Error("Pin past the last id did not panic")
		}
	}()
	a.Pin()
}

// TestEditCopiesEachNodeOnce is the point of writing in place: n changes
// under one shared path after a pin cost about one copy of that path, not
// n.
func TestEditCopiesEachNodeOnce(t *testing.T) {
	base, tbl := NewPersistent[int](), New[int]()
	var nets []netip.Prefix
	for i := 0; i < 4096; i++ {
		p := netip.PrefixFrom(netip.AddrFrom4([4]byte{10, byte(i >> 8), byte(i), 0}), 24)
		nets = append(nets, p)
		base = base.Insert(p, i)
		tbl.Upsert(p, i)
	}
	batch := nets[1024 : 1024+256]
	perOp := testing.AllocsPerRun(10, func() {
		tbl := base
		for _, p := range batch {
			tbl = tbl.Insert(p, -1)
		}
	})
	session := testing.AllocsPerRun(10, func() {
		tbl.Pin()
		for _, p := range batch {
			tbl.Upsert(p, -1)
		}
	})
	// 256 adjacent /24s: 256 leaves + 255 interior nodes + the shared
	// path above them.
	if session > 2.2*float64(len(batch)) || session*4 > perOp {
		t.Fatalf("pinned batch %.0f allocs vs per-op %.0f for %d replaces", session, perOp, len(batch))
	}
}

// liveHeap returns the bytes reachable after two collections.
func liveHeap() int64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return int64(m.HeapAlloc)
}

// TestPersistentChurnHoldsOneVersion: a table that is written and pinned
// forever while only its newest pinned version is held must stay the size
// of one version. The
// shape is the one that caught the prototype of this layout: a valued node
// with a subtree under it (a /16 over its 256 /24s). A copy of that node
// which left the value in the old allocation would keep the old node, and
// through its child pointers the whole previous version of the subtree,
// alive behind every new version.
func TestPersistentChurnHoldsOneVersion(t *testing.T) {
	type val [32]uint64
	nets := []netip.Prefix{mustP("10.7.0.0/16")}
	for i := 0; i < 256; i++ {
		nets = append(nets, netip.PrefixFrom(netip.AddrFrom4([4]byte{10, 7, byte(i), 0}), 24))
	}
	base := liveHeap()
	tr := New[val]()
	for _, p := range nets {
		tr.Upsert(p, val{})
	}
	tbl := tr.Pin()
	fresh := liveHeap() - base

	for session := 1; session <= 200; session++ {
		for _, p := range nets[1:] {
			tr.Upsert(p, val{uint64(session)})
		}
		tbl = tr.Pin()
	}
	churned := liveHeap() - base
	if v, ok := tbl.Get(nets[0]); !ok || v != (val{}) || tbl.Len() != len(nets) {
		t.Fatalf("the /16 did not survive the churn: %v %v, len %d", v, ok, tbl.Len())
	}
	if churned > fresh+fresh/10 {
		t.Fatalf("after 200 pins the table and its newest version hold %d bytes live, a fresh table %d", churned, fresh)
	}

	// Pins that each follow one replaced route leave the newest version's
	// nodes spread over all of them. Nodes a pinned table took from blocks
	// would pin a block of dead ones each.
	for session := 1; session <= 200; session++ {
		tr.Upsert(nets[1+session%(len(nets)-1)], val{uint64(session)})
		tbl = tr.Pin()
	}
	if spread := liveHeap() - base; spread > fresh+fresh/10 {
		t.Fatalf("after 200 one-route pins the table and its newest version hold %d bytes live, a fresh table %d", spread, fresh)
	}
	runtime.KeepAlive(tr)
	runtime.KeepAlive(tbl)
}

// countFans returns how many fans hang under f, f included, and how many
// /16 tries hang under those.
func countFans[T any](f *fan[T]) (fans, tries int) {
	if f == nil {
		return 0, 0
	}
	for i := range 16 {
		switch {
		case f.tries != nil && f.tries[i] != nil:
			tries++
		case f.kids != nil:
			kf, kt := countFans(f.kids[i])
			fans, tries = fans+kf, tries+kt
		}
	}
	return fans + 1, tries
}

// TestEmptiedFanIsPruned: the fans and the /16 trie a route needed go when
// Persistent.Delete removes the route, whether it sat in a /16's trie or
// in a fan's own short-prefix trie, and when a Table removes it after a
// pin, where keeping them would cost a copy. An unpinned Table keeps the
// fans it owns, for the next route (TestTableChurnAllocatesNothing).
func TestEmptiedFanIsPruned(t *testing.T) {
	base := NewPersistent[int]()
	held := []string{"10.1.0.0/16", "10.1.1.0/24", "192.168.0.0/24", "128.0.0.0/2", "2001:db8::/32"}
	for i, s := range held {
		base = base.Insert(mustP(s), i)
	}
	shape := func(t *Persistent[int]) [4]int {
		f4, b4 := countFans(t.root4)
		f6, b6 := countFans(t.root6)
		return [4]int{f4, b4, f6, b6}
	}
	want := shape(base)
	for _, s := range []string{"172.16.5.0/24", "172.16.0.0/16", "172.16.0.0/13", "176.0.0.0/6", "fd00:1::/64", "fd00::/9"} {
		p := mustP(s)
		with := base.Insert(p, 9)
		if shape(with) == want {
			t.Fatalf("%v: the test wants a route that needs a fan of its own", p)
		}
		without, ok := with.Delete(p)
		if got := shape(without); !ok || got != want {
			t.Errorf("Delete(%v): fans and tries (v4, v6) = %v, want %v", p, got, want)
		}
	}
	if got := shape(base); got != want {
		t.Fatalf("base changed under its successors: %v, want %v", got, want)
	}

	tbl := New[int]()
	for i, s := range held {
		tbl.Upsert(mustP(s), i)
	}
	p := mustP("172.16.5.0/24")
	tbl.Upsert(p, 9)
	tbl.Delete(p)
	if shape(&tbl.s.tbl) == want {
		t.Errorf("an unpinned table dropped the fans it owns")
	}
	tbl.Upsert(p, 9)
	tbl.Pin()
	if tbl.Delete(p); shape(&tbl.s.tbl) != want {
		t.Errorf("Delete(%v) after a pin: fans and tries (v4, v6) = %v, want %v", p, shape(&tbl.s.tbl), want)
	}

	empty := base
	for _, s := range held {
		empty, _ = empty.Delete(mustP(s))
	}
	if empty.root4 != nil || empty.root6 != nil || empty.Len() != 0 {
		t.Fatalf("emptied table still has roots: %v", shape(empty))
	}
}

func BenchmarkPersistentLongestMatch(b *testing.B) {
	r := rand.New(rand.NewSource(3))
	pt := NewPersistent[int]()
	for i := 0; i < 100000; i++ {
		a := netip.AddrFrom4([4]byte{byte(r.Intn(224)), byte(r.Intn(256)), byte(r.Intn(256)), 0})
		p, _ := a.Prefix(8 + r.Intn(17))
		pt = pt.Insert(p, i)
	}
	addrs := make([]netip.Addr, 1024)
	for i := range addrs {
		addrs[i] = netip.AddrFrom4([4]byte{byte(r.Intn(224)), byte(r.Intn(256)), byte(r.Intn(256)), byte(r.Intn(256))})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pt.LongestMatch(addrs[i%len(addrs)])
	}
}

func BenchmarkPersistentInsert(b *testing.B) {
	r := rand.New(rand.NewSource(3))
	prefixes := make([]netip.Prefix, 4096)
	for i := range prefixes {
		a := netip.AddrFrom4([4]byte{byte(r.Intn(224)), byte(r.Intn(256)), byte(r.Intn(256)), 0})
		prefixes[i], _ = a.Prefix(8 + r.Intn(17))
	}
	b.ReportAllocs()
	b.ResetTimer()
	pt := NewPersistent[int]()
	for i := 0; i < b.N; i++ {
		pt = pt.Insert(prefixes[i%len(prefixes)], i)
	}
}
