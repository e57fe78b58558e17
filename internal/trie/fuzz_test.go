package trie

import (
	"net/netip"
	"testing"
)

// FuzzTrie differentially fuzzes the trie against a map+linear-scan
// reference model. The input bytes are decoded as an op stream over both
// address families: insert, upsert, delete, get and longest-match, with
// every result cross-checked, plus a full-content sweep at the end.
//
// A third model rides along: a Persistent chain advanced through edit
// sessions whose lengths (1…300 mutations) the input also chooses. Every
// published version must equal the reference model of that moment, and
// must still equal it after every later session has run.
func FuzzTrie(f *testing.F) {
	f.Add([]byte{0, 10, 0, 0, 0, 8, 1, 10, 1, 0, 0, 16, 2, 10, 0, 0, 0, 8})
	f.Add([]byte{0, 1, 2, 3, 4, 32, 4, 1, 2, 3, 4, 32, 2, 1, 2, 3, 4, 32})
	f.Add([]byte{
		0x80, 0x20, 0x01, 0x0d, 0xb8, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 128,
		0x84, 0x20, 0x01, 0x0d, 0xb8, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 64,
	})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1, 1, 0, 0, 0, 0, 2, 2, 0, 0, 0, 0, 0})

	f.Fuzz(func(t *testing.T, data []byte) {
		tr := New[int]()
		model := map[netip.Prefix]int{}

		type version struct {
			tbl  *Persistent[int]
			want map[netip.Prefix]int
		}
		var published []version
		checkVersion := func(v version) {
			if v.tbl.Len() != len(v.want) {
				t.Fatalf("version Len = %d, recorded %d", v.tbl.Len(), len(v.want))
			}
			n := 0
			v.tbl.Walk(func(p netip.Prefix, got int) bool {
				if w, ok := v.want[p]; !ok || w != got {
					t.Fatalf("version Walk yielded (%v,%d), recorded (%d,%v)", p, got, w, ok)
				}
				n++
				return true
			})
			if n != len(v.want) {
				t.Fatalf("version Walk yielded %d entries, recorded %d", n, len(v.want))
			}
		}
		edit, left := NewPersistent[int]().Edit(), 1
		// mutated counts one session mutation; when the session's length
		// is reached it publishes, is checked against tr, and the next
		// session's length comes from the op's bytes.
		mutated := func(seed int) {
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

		step := 0
		for {
			op, p, ok := next()
			if !ok {
				break
			}
			step++
			switch op % 5 {
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
			}
		}

		if tr.Len() != len(model) {
			t.Fatalf("Len = %d, model %d", tr.Len(), len(model))
		}
		walked := 0
		tr.Walk(func(p netip.Prefix, v int) bool {
			if mv, ok := model[p]; !ok || mv != v {
				t.Fatalf("Walk yielded (%v,%d), model has (%d,%v)", p, v, mv, ok)
			}
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
