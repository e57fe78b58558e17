package trie

import (
	"maps"
	"net/netip"
	"slices"
	"testing"
)

// FuzzTrie differentially fuzzes the one table type against a map and
// linear-scan reference model. The input bytes are decoded as an op stream
// over both address families: insert, upsert, delete, get, longest-match
// and update (keeping or declining the entry), with every result
// cross-checked. After every op the op prefix's LongestMatch and
// HasEntryInside and the whole Walk are checked against the model — the
// walk in strictly increasing ComparePrefix order, IPv4 before IPv6, since
// membership alone would pass a fan that emitted its short prefixes after
// its kids — and after every mutation the Table's structure is
// (checkTable), free lists included.
//
// A third model rides along: a second Table, given the same writes and
// pinned at points the input chooses (every 1…300 mutations), writes going
// on after each pin. It also inserts, replaces and deletes the op's prefix
// around the op itself, so it drops nodes it owns and takes them back from
// its free lists. Every pinned version must equal the reference model at
// its pin, the newest must still equal it after every later write, and
// all of them at the end. The checked-in seed pin_then_rewrite pins one
// entry, then deletes and re-inserts it and a route under it: a Pin that
// kept the owner id would let those writes land in the pinned nodes. A
// pinned version's longest match goes to a /16's trie before the fans'
// own short-prefix tries, and reads those deepest first; the checked-in
// seed deepest_fan_first holds, in each family, a prefix in a depth-2 fan,
// one in a depth-3 fan and one in a /16's trie, which a shallowest-first
// scan answers wrongly. The checked-in seed wide_boundary sits on the /64
// boundary, where a node's key outgrows its header's one word: under one
// /48 it inserts IPv6 prefixes of 63, 64, 65, 66, 127 and 128 bits, two of
// the /65s with a second key word that is not zero, deletes both /65s so
// that wide valued nodes become wide glue, writes them back, and goes on
// rewriting under them across the second table's pins. The checked-in
// seed leaf_promote drives the shape moves in IPv4, narrow IPv6 and wide
// IPv6: a leaf gains a child and loses it again, three times, and is
// rewritten after each; a glue node under a leaf takes a value and gives
// it up; a new prefix covers a leaf and so starts out inner, then demotes.
// The second table's pins fall between them, so a promotion that drops
// the value, a skipped demotion, a leaf recycled onto another shape's
// free list and a pinned leaf written in place each fail it.
//
// A §5.3 cursor rides along too: the last prefix a paused walk visited.
// Op bytes 6–31 move it (even: to the op's prefix, odd: one entry on, with
// WalkFrom); every other op byte is one of the six ops above, by op % 6 —
// the checked-in corpus keeps its meaning. Wherever it stands, the rest of
// the walk resumed from it must be the model's entries after it.
func FuzzTrie(f *testing.F) {
	f.Add([]byte{0, 10, 0, 0, 0, 8, 1, 10, 1, 0, 0, 16, 2, 10, 0, 0, 0, 8})
	f.Add([]byte{0, 1, 2, 3, 4, 32, 4, 1, 2, 3, 4, 32, 2, 1, 2, 3, 4, 32})
	f.Add([]byte{
		0x80, 0x20, 0x01, 0x0d, 0xb8, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 128,
		0x84, 0x20, 0x01, 0x0d, 0xb8, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 64,
	})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1, 1, 0, 0, 0, 0, 2, 2, 0, 0, 0, 0, 0})
	f.Add(nibbleBoundarySeed())
	// Update (every fourth step declines): a fresh slot kept, an entry kept,
	// a fresh slot declined, a glue node's slot kept, an entry declined.
	f.Add([]byte{
		5, 10, 0, 0, 0, 8, 0, 10, 0, 0, 0, 8, 5, 10, 0, 0, 0, 8, 5, 10, 128, 0, 0, 9,
		0, 10, 1, 0, 0, 16, 0, 10, 2, 0, 0, 16, 5, 10, 0, 0, 0, 14, 5, 10, 0, 0, 0, 8,
	})
	// A /16's trie: its top spliced into its only child, valued (the /16
	// itself) and glue (the /23 two /24s make); a /15 inserted above it in
	// its fan's own trie; a /16's trie emptied while the cursor stands on
	// its top, filled again and left; emptied again and left empty.
	f.Add([]byte{
		0, 10, 1, 0, 0, 16, 0, 10, 1, 2, 0, 24, 2, 10, 1, 0, 0, 16, 3, 10, 1, 2, 0, 24,
		0, 10, 2, 2, 0, 24, 0, 10, 2, 3, 0, 24, 2, 10, 2, 3, 0, 24, 3, 10, 2, 2, 0, 24,
		0, 10, 0, 0, 0, 15, 3, 10, 1, 2, 0, 24, 0, 10, 1, 3, 0, 24, 2, 10, 0, 0, 0, 15,
		6, 10, 2, 2, 0, 24, 2, 10, 2, 2, 0, 24, 3, 10, 2, 2, 0, 24, 0, 10, 2, 2, 0, 24,
		2, 10, 2, 2, 0, 24, 0, 10, 2, 3, 0, 24, 7, 0, 0, 0, 0, 0, 3, 10, 2, 3, 0, 24,
		6, 10, 2, 3, 0, 24, 2, 10, 2, 3, 0, 24, 7, 0, 0, 0, 0, 0, 3, 10, 2, 3, 0, 24,
	})

	f.Fuzz(func(t *testing.T, data []byte) {
		tr := New[int]()
		model := map[netip.Prefix]int{}
		var cursor netip.Prefix // invalid: the walk has not started

		type version struct {
			tbl  *Persistent[int]
			want map[netip.Prefix]int
		}
		var pinned []version
		// sorted returns the model's prefixes after from in walk order.
		sorted := func(want map[netip.Prefix]int, from netip.Prefix) []netip.Prefix {
			var out []netip.Prefix
			for p := range want {
				if !from.IsValid() || ComparePrefix(p, from) > 0 {
					out = append(out, p)
				}
			}
			slices.SortFunc(out, ComparePrefix)
			return out
		}
		// sameWalk checks that walk yields exactly want's entries after
		// from, in order.
		sameWalk := func(what string, walk func(func(netip.Prefix, int) bool), want map[netip.Prefix]int, from netip.Prefix) {
			exp := sorted(want, from)
			i := 0
			walk(func(p netip.Prefix, v int) bool {
				if i >= len(exp) || p != exp[i] || v != want[p] {
					t.Fatalf("%s after %v yielded (%v,%d) at %d, want %v", what, from, p, v, i, exp)
				}
				i++
				return true
			})
			if i != len(exp) {
				t.Fatalf("%s after %v yielded %d entries, want %d", what, from, i, len(exp))
			}
		}
		checkVersion := func(v version) {
			if v.tbl.Len() != len(v.want) {
				t.Fatalf("version Len = %d, recorded %d", v.tbl.Len(), len(v.want))
			}
			sameWalk("version Walk", v.tbl.Walk, v.want, netip.Prefix{})
		}
		pt, left := New[int](), 1
		// mutated checks tr's structure and the newest pinned version, and
		// counts one mutation of pt; when the count is reached pt is
		// pinned, the version is checked against tr, and the next count
		// comes from the op's bytes.
		mutated := func(seed int) {
			checkTable(t, tr)
			checkTable(t, pt)
			if len(pinned) > 0 {
				checkVersion(pinned[len(pinned)-1])
			}
			if left--; left > 0 {
				return
			}
			tbl := pt.Pin()
			v := version{&tbl, maps.Clone(model)}
			for p, val := range model {
				if got, ok := v.tbl.Get(p); !ok || got != val {
					t.Fatalf("pinned Get(%v) = (%d,%v), model %d", p, got, ok, val)
				}
				ep, ev, eok := v.tbl.LongestMatch(p.Addr())
				tp, tv, tok := tr.LongestMatch(p.Addr())
				if ep != tp || ev != tv || eok != tok {
					t.Fatalf("pinned LongestMatch(%v) = (%v,%d,%v), table (%v,%d,%v)", p.Addr(), ep, ev, eok, tp, tv, tok)
				}
			}
			checkVersion(v)
			pinned = append(pinned, v)
			if left = 1 + seed%8; seed%3 == 0 {
				left = 1 + seed%300
			}
		}
		// churn inserts, replaces and deletes p in pt, leaving it as it
		// was: the nodes it drops go on pt's free lists.
		churn := func(p netip.Prefix, step int) {
			if _, had := model[p]; !had {
				pt.Upsert(p, -step)
				pt.Upsert(p, ^step)
				pt.Delete(p)
			}
		}

		// decode pulls one op from the stream: 1 op byte (bit 7 selects
		// IPv6), then 4 or 16 address bytes, then 1 prefix-length byte.
		i := 0
		next := func() (op int, p netip.Prefix, ok bool) {
			if i >= len(data) {
				return 0, p, false
			}
			b := data[i]
			i++
			v6 := b&0x80 != 0
			op = int(b & 0x7f)
			var a netip.Addr
			if v6 {
				if i+16 > len(data) {
					return 0, p, false
				}
				var raw [16]byte
				copy(raw[:], data[i:i+16])
				a = netip.AddrFrom16(raw)
				i += 16
			} else {
				if i+4 > len(data) {
					return 0, p, false
				}
				var raw [4]byte
				copy(raw[:], data[i:i+4])
				a = netip.AddrFrom4(raw)
				i += 4
			}
			if i >= len(data) {
				return 0, p, false
			}
			bits := int(data[i]) % (a.BitLen() + 1)
			i++
			p, err := a.Prefix(bits)
			if err != nil {
				return 0, p, false
			}
			return op, p, true
		}

		step := 0
		for {
			op, p, ok := next()
			if !ok {
				break
			}
			step++
			switch {
			case op >= 6 && op < 32 && op%2 == 0: // the cursor, moved to p
				cursor = p
			case op >= 6 && op < 32: // the cursor, one entry on
				want := sorted(model, cursor)
				got, v, ok := netip.Prefix{}, 0, false
				tr.WalkFrom(cursor, func(q netip.Prefix, w int) bool { got, v, ok = q, w, true; return false })
				if ok != (len(want) > 0) || ok && (got != want[0] || v != model[got]) {
					t.Fatalf("cursor after %v stepped to (%v,%d,%v), model %v", cursor, got, v, ok, want)
				}
				if ok {
					cursor = got
				}
			case op%6 == 0 || op%6 == 1: // Insert, Upsert
				wantOld, wantExisted := model[p]
				old, existed := tr.Upsert(p, step)
				if existed != wantExisted || old != wantOld {
					t.Fatalf("Upsert(%v) = (%d,%v), model (%d,%v)", p, old, existed, wantOld, wantExisted)
				}
				churn(p, step)
				model[p] = step
				pt.Upsert(p, step)
				mutated(step*7 + p.Bits())
			case op%6 == 2: // Delete
				wantOld, wantExisted := model[p]
				old, existed := tr.Delete(p)
				if existed != wantExisted || old != wantOld {
					t.Fatalf("Delete(%v) = (%d,%v), model (%d,%v)", p, old, existed, wantOld, wantExisted)
				}
				delete(model, p)
				if _, removed := pt.Delete(p); removed != wantExisted {
					t.Fatalf("pinned table's Delete(%v) = %v, model %v", p, removed, wantExisted)
				}
				churn(p, step)
				mutated(step*7 + p.Bits())
			case op%6 == 3: // Get
				wantV, wantOK := model[p]
				v, ok := tr.Get(p)
				if ok != wantOK || v != wantV {
					t.Fatalf("Get(%v) = (%d,%v), model (%d,%v)", p, v, ok, wantV, wantOK)
				}
			case op%6 == 4: // LongestMatch, checked below for every op
			case op%6 == 5: // Update: every fourth step declines, else stores step
				wantV, wantExisted := model[p]
				keep := step%4 != 0
				tr.Update(p, func(v *int, existed bool) bool {
					if existed != wantExisted || *v != wantV {
						t.Fatalf("Update(%v) handed (%d,%v), model (%d,%v)", p, *v, existed, wantV, wantExisted)
					}
					*v = step
					return keep
				})
				if keep {
					churn(p, step)
					model[p] = step
					pt.Upsert(p, step)
				} else {
					delete(model, p)
					pt.Delete(p)
					churn(p, step)
				}
				mutated(step*7 + p.Bits())
			}

			addr := p.Addr()
			var bestP netip.Prefix
			bestLen, found, inside := -1, false, false
			for q := range model {
				if q.Addr().Is4() == addr.Is4() && q.Contains(addr) && q.Bits() > bestLen {
					bestP, bestLen, found = q, q.Bits(), true
				}
				inside = inside || q.Addr().Is4() == addr.Is4() && q.Bits() > p.Bits() && p.Contains(q.Addr())
			}
			gp, gv, ok := tr.LongestMatch(addr)
			if ok != found || ok && (gp != bestP || gv != model[bestP]) {
				t.Fatalf("LongestMatch(%v) = (%v,%d,%v), model (%v,%v)", addr, gp, gv, ok, bestP, found)
			}
			if got := tr.HasEntryInside(p); got != inside {
				t.Fatalf("HasEntryInside(%v) = %v, model %v", p, got, inside)
			}
			if tr.Len() != len(model) {
				t.Fatalf("Len = %d, model %d", tr.Len(), len(model))
			}
			sameWalk("Walk", tr.Walk, model, netip.Prefix{})
			sameWalk("WalkFrom", func(fn func(netip.Prefix, int) bool) { tr.WalkFrom(cursor, fn) }, model, cursor)
		}

		left = 1
		mutated(0) // pin what the last pin missed
		for _, v := range pinned {
			checkVersion(v)
		}
	})
}

// nibbleBoundarySeed is an op stream that inserts a prefix on each side of
// every fan level in both families — the lengths where an entry moves
// between a fan's own trie, its kids and a /16's trie — then an IPv4-mapped
// IPv6 prefix, which must come back from the IPv6 side exactly as
// inserted, then looks one address up in each family and deletes the
// boundary entries again so that fans empty.
func nibbleBoundarySeed() []byte {
	var out []byte
	op4 := func(op byte, a [4]byte, bits byte) { out = append(append(append(out, op), a[:]...), bits) }
	op6 := func(op byte, a [16]byte, bits byte) { out = append(append(append(out, op|0x80), a[:]...), bits) }
	v4 := [4]byte{0xa5, 0x5a, 0xc3, 0x3c}
	v6 := [16]byte{0x20, 0x01, 0x0d, 0xb8, 15: 1}
	mapped := [16]byte{10: 0xff, 11: 0xff, 12: 10, 13: 1, 14: 2, 15: 3}
	lens4 := []byte{0, 3, 4, 7, 8, 11, 12, 15, 16, 17, 32}
	lens6 := []byte{0, 3, 4, 15, 16, 17, 128}
	for _, l := range lens4 {
		op4(0, v4, l)
		op4(0, [4]byte{}, l)
	}
	for _, l := range lens6 {
		op6(0, v6, l)
		op6(1, [16]byte{}, l)
	}
	op6(0, mapped, 104)
	op6(3, mapped, 104)
	op4(4, v4, 32)
	op6(4, v6, 128)
	op6(4, mapped, 128)
	for _, l := range lens4 {
		op4(2, v4, l)
	}
	for _, l := range lens6 {
		op6(2, v6, l)
	}
	return out
}
