package trie

import (
	"net/netip"
	"testing"
)

// FuzzTrie differentially fuzzes the trie against a map+linear-scan
// reference model. The input bytes are decoded as an op stream over both
// address families: insert, upsert, delete, get, longest-match and update
// (keeping or declining the slot), with every result cross-checked, plus a
// full-content sweep at the end.
//
// A third model rides along: a Persistent chain advanced through edit
// sessions whose lengths (1…300 mutations) the input also chooses. Every
// published version must equal the reference model of that moment, and
// must still equal it after every later session has run.
//
// Every Walk — the Trie's and each version's — must also come out in
// strictly increasing ComparePrefix order, IPv4 before IPv6: membership
// alone would pass a fan that emitted its short prefixes after its kids.
//
// One §5.3 iterator rides along too, pinning the node it stands on so that
// deletions under it are deferred: op bytes 6–31 move it (even: IterateFrom
// the op's prefix, odd: Next), every other op byte is one of the six ops
// above, by op % 6 — the checked-in corpus uses no byte in 6–31, so its
// inputs keep their meaning. After every mutation the Trie's structure,
// its /16 index included, is checked (checkInvariants), not only its
// contents.
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
	// The /16 index: a region's top spliced into its only child, valued
	// (the /16 itself) and glue (the /23 two /24s make); a /15 inserted
	// above a region's top; a region emptied while the iterator is pinned
	// on its top, written through the pinned node's slot and left; emptied
	// again and left empty.
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
		it := tr.Iterate()

		type version struct {
			tbl  *Persistent[int]
			want map[netip.Prefix]int
		}
		var published []version
		// ordered returns a check that the prefixes it is fed strictly
		// increase in ComparePrefix order.
		ordered := func(what string) func(netip.Prefix) {
			var last netip.Prefix
			return func(p netip.Prefix) {
				if last.IsValid() && ComparePrefix(last, p) >= 0 {
					t.Fatalf("%s yielded %v after %v", what, p, last)
				}
				last = p
			}
		}
		checkVersion := func(v version) {
			if v.tbl.Len() != len(v.want) {
				t.Fatalf("version Len = %d, recorded %d", v.tbl.Len(), len(v.want))
			}
			n := 0
			inOrder := ordered("version Walk")
			v.tbl.Walk(func(p netip.Prefix, got int) bool {
				if w, ok := v.want[p]; !ok || w != got {
					t.Fatalf("version Walk yielded (%v,%d), recorded (%d,%v)", p, got, w, ok)
				}
				inOrder(p)
				n++
				return true
			})
			if n != len(v.want) {
				t.Fatalf("version Walk yielded %d entries, recorded %d", n, len(v.want))
			}
		}
		edit, left := NewPersistent[int]().Edit(), 1
		// mutated checks tr's structure and counts one session mutation;
		// when the session's length is reached it publishes, is checked
		// against tr, and the next session's length comes from the op's
		// bytes.
		mutated := func(seed int) {
			checkInvariants(t, tr)
			if left--; left > 0 {
				return
			}
			v := version{edit.Publish(), make(map[netip.Prefix]int, len(model))}
			for p, val := range model {
				v.want[p] = val
				if got, ok := v.tbl.Get(p); !ok || got != val {
					t.Fatalf("session Get(%v) = (%d,%v), model %d", p, got, ok, val)
				}
				ep, ev, eok := v.tbl.LongestMatch(p.Addr())
				tp, tv, tok := tr.LongestMatch(p.Addr())
				if ep != tp || ev != tv || eok != tok {
					t.Fatalf("session LongestMatch(%v) = (%v,%d,%v), trie (%v,%d,%v)", p.Addr(), ep, ev, eok, tp, tv, tok)
				}
			}
			checkVersion(v)
			published = append(published, v)
			edit = v.tbl.Edit()
			if left = 1 + seed%8; seed%3 == 0 {
				left = 1 + seed%300
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

		// first is where the model says the iterator stands: its least entry
		// at or after p (strictly after, if strict), or the zero prefix.
		first := func(p netip.Prefix, strict bool) (w netip.Prefix) {
			for e := range model {
				c := ComparePrefix(e, p)
				if (c > 0 || c == 0 && !strict) && (!w.IsValid() || ComparePrefix(e, w) < 0) {
					w = e
				}
			}
			return w
		}

		step := 0
		for {
			op, p, ok := next()
			if !ok {
				break
			}
			step++
			if op >= 6 && op < 32 { // the iterator
				var want netip.Prefix
				if op%2 == 0 {
					want = first(p, false)
					it.Close()
					it = tr.IterateFrom(p)
				} else if it.Valid() {
					want = first(it.Prefix(), true)
					it.Next()
				}
				got, v, ok := it.Entry()
				if got != want || ok != want.IsValid() || ok && v != model[want] {
					t.Fatalf("iterator at (%v,%d,%v), model %v", got, v, ok, want)
				}
				checkInvariants(t, tr) // leaving a node may have removed it
				continue
			}
			switch op % 6 {
			case 0: // Insert
				wantReplaced := false
				if _, had := model[p]; had {
					wantReplaced = true
				}
				replaced, err := tr.Insert(p, step)
				if err != nil || replaced != wantReplaced {
					t.Fatalf("Insert(%v) = %v, %v; model replaced=%v", p, replaced, err, wantReplaced)
				}
				model[p] = step
				edit.Insert(p, step)
				mutated(step*7 + p.Bits())
			case 1: // Upsert
				wantOld, wantExisted := model[p]
				old, existed := tr.Upsert(p, step)
				if existed != wantExisted || old != wantOld {
					t.Fatalf("Upsert(%v) = (%d,%v), model (%d,%v)", p, old, existed, wantOld, wantExisted)
				}
				model[p] = step
				edit.Insert(p, step)
				mutated(step*7 + p.Bits())
			case 2: // Delete
				wantOld, wantExisted := model[p]
				old, existed := tr.Delete(p)
				if existed != wantExisted || old != wantOld {
					t.Fatalf("Delete(%v) = (%d,%v), model (%d,%v)", p, old, existed, wantOld, wantExisted)
				}
				delete(model, p)
				if removed := edit.Delete(p); removed != wantExisted {
					t.Fatalf("session Delete(%v) = %v, model %v", p, removed, wantExisted)
				}
				mutated(step*7 + p.Bits())
			case 3: // Get
				wantV, wantOK := model[p]
				v, ok := tr.Get(p)
				if ok != wantOK || v != wantV {
					t.Fatalf("Get(%v) = (%d,%v), model (%d,%v)", p, v, ok, wantV, wantOK)
				}
			case 4: // LongestMatch on the prefix's address
				addr := p.Addr()
				var bestP netip.Prefix
				bestLen, found := -1, false
				for q := range model {
					if q.Addr().Is4() == addr.Is4() && q.Contains(addr) && q.Bits() > bestLen {
						bestP, bestLen, found = q, q.Bits(), true
					}
				}
				gp, gv, ok := tr.LongestMatch(addr)
				if ok != found || (ok && gp != bestP) {
					t.Fatalf("LongestMatch(%v) = (%v,%v), model (%v,%v)", addr, gp, ok, bestP, found)
				}
				if ok && gv != model[bestP] {
					t.Fatalf("LongestMatch(%v) value %d, model %d", addr, gv, model[bestP])
				}
			case 5: // Update: every fourth step declines, else stores step
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
					model[p] = step
					edit.Insert(p, step)
				} else {
					delete(model, p)
					edit.Delete(p)
				}
				mutated(step*7 + p.Bits())
			}
		}
		it.Close() // performs any removal its pin deferred
		checkInvariants(t, tr)

		if tr.Len() != len(model) {
			t.Fatalf("Len = %d, model %d", tr.Len(), len(model))
		}
		walked := 0
		inOrder := ordered("Walk")
		tr.Walk(func(p netip.Prefix, v int) bool {
			if mv, ok := model[p]; !ok || mv != v {
				t.Fatalf("Walk yielded (%v,%d), model has (%d,%v)", p, v, mv, ok)
			}
			inOrder(p)
			walked++
			return true
		})
		if walked != len(model) {
			t.Fatalf("Walk yielded %d entries, model %d", walked, len(model))
		}

		left = 1
		mutated(0) // publish the open session
		for _, v := range published {
			checkVersion(v)
		}
	})
}

// nibbleBoundarySeed is an op stream that inserts a prefix on each side of
// every fan level in both families — the lengths where an entry moves
// between a fan's own trie, its kids and a bucket — then an IPv4-mapped
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
