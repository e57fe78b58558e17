package bgp

import (
	"net/netip"
	"slices"
	"testing"
)

// streamPeers are the sessions a fuzzed script speaks on: two clients of a
// shared group, a group of one, and an IBGP peer.
var streamPeers = []struct {
	name, addr string
	as         uint16
	group      string
}{
	{"e1", "10.0.0.1", 65001, "rs"},
	{"e2", "10.0.0.2", 65002, "rs"},
	{"s1", "10.0.0.3", 65003, ""},
	{"i1", "10.0.1.1", 65000, "ibgp"},
}

// Script steps: one opcode byte — kind in bits 0-1, peer in bits 2-3 — and,
// for an UPDATE, a length byte and that many bytes of message body, which
// the harness frames with a correct header: the fuzzer's work goes into what
// an UPDATE says, not into keeping a length field right.
const (
	stepUpdate   = 0 // and 1
	stepPeerDown = 2
	stepBusy     = 3 // bit 4: busy or not
)

// streamUpdate is the script step in which peer sends u.
func streamUpdate(tb testing.TB, peer int, u *UpdateMsg) []byte {
	wire, err := AppendUpdate(nil, u)
	if err != nil || len(wire)-headerLen > 255 {
		tb.Fatalf("seed UPDATE: %d bytes, err %v", len(wire), err)
	}
	body := wire[headerLen:]
	return append([]byte{byte(stepUpdate | peer<<2), byte(len(body))}, body...)
}

// FuzzUpdateStream fuzzes the stream, not just the message: a script of
// wire UPDATEs (decoded by DecodeMessage, as a session would), peer-downs
// and branch stalls on four sessions is driven through the stage network
// and through refRouter side by side. A peer-down takes the session down
// too, parking its group when no other member is up, and the next step on
// that peer brings it back with a resync. Every member must be sent the same
// atoms in the same order and end with the same adj-RIB-out, and the pool
// must hold exactly one reference per stored route. An UPDATE the decoder
// rejects is skipped, as the session would drop it (and the peer).
func FuzzUpdateStream(f *testing.F) {
	// The corpus under testdata/fuzz is scripts built like this one.
	f.Add(slices.Concat(
		streamUpdate(f, 0, &UpdateMsg{Attrs: attrsVia("10.0.0.1", 65001), NLRI: []netip.Prefix{mustP("10.1.0.0/16")}}),
		streamUpdate(f, 1, &UpdateMsg{Attrs: attrsVia("10.0.0.2", 65002), NLRI: []netip.Prefix{mustP("10.1.0.0/16")}}),
		[]byte{stepPeerDown | 0<<2},
	))
	// Groups parked and woken: s1's and i1's sessions go down while e1 and
	// e2 go on; s1's next UPDATE wakes its group, i1 comes back at the end.
	f.Add(slices.Concat(
		streamUpdate(f, 0, &UpdateMsg{Attrs: attrsVia("10.0.0.1", 65001), NLRI: []netip.Prefix{mustP("10.1.0.0/16"), mustP("10.2.0.0/16")}}),
		[]byte{stepPeerDown | 2<<2, stepPeerDown | 3<<2},
		streamUpdate(f, 1, &UpdateMsg{Attrs: attrsVia("10.0.0.2", 65002), NLRI: []netip.Prefix{mustP("10.2.0.0/16"), mustP("10.3.0.0/16")}}),
		streamUpdate(f, 0, &UpdateMsg{Withdrawn: []netip.Prefix{mustP("10.1.0.0/16")}}),
		streamUpdate(f, 2, &UpdateMsg{Attrs: attrsVia("10.0.0.3", 65003), NLRI: []netip.Prefix{mustP("10.4.0.0/16")}}),
	))
	f.Fuzz(func(t *testing.T, script []byte) {
		localAddr := mustA("192.0.2.1")
		ref := newRefRouter(t, 65000)
		fast := newOracleRouter(t, false, 65000)
		branch := make([]string, len(streamPeers))
		busy := make(map[string]bool) // by branch
		for i, p := range streamPeers {
			ref.addMember(p.name, p.addr, p.as, localAddr, nil)
			fast.addMember(p.name, p.addr, p.as, p.group, localAddr, nil)
			if branch[i] = "group:" + p.group; p.group == "" {
				branch[i] = p.name
			}
		}
		// comeBack brings a peer's session back up: the fast side resyncs
		// it, which must tell it exactly the model's adj-RIB-out; the model
		// takes those atoms as its own, and both streams go on from there.
		comeBack := func(peer int) {
			rm, fm := ref.members[peer], fast.members[peer]
			rm.down = false
			start := len(fm.atoms)
			fm.gout.ResyncMember(fm.handle)
			checkHolds(t, fm.atoms[start:], rm.out)
			rm.atoms = append(rm.atoms, fm.atoms[start:]...)
		}
		for len(script) > 0 {
			op := script[0]
			script = script[1:]
			peer := int(op >> 2 & 3)
			name := streamPeers[peer].name
			if ref.members[peer].down {
				comeBack(peer)
			}
			switch op & 3 {
			case stepPeerDown:
				// What a session was not sent before it went down it never
				// is: the resync tells the next session the whole table. The
				// model sends as it goes, so behind a busy branch it has told
				// the peer more than the pipeline has; the session's stream
				// ends where the pipeline's did.
				rm, fm := ref.byName[name], fast.byName[name]
				if sent := len(fm.atoms); busy[branch[peer]] && sent < len(rm.atoms) {
					compareAtomStreams(t, name, rm.atoms[:sent], fm.atoms)
					rm.atoms = rm.atoms[:sent]
				}
				// The session goes down, and the model withdraws the peer's
				// routes at once, so the deletion stage is run to the end
				// before the next step.
				fm.gout.down(fm.handle)
				rm.down = true
				ref.peerDown(name)
				if d := fm.in.PeerDown(); d != nil {
					for !d.Done() {
						d.step()
						fast.loop.RunPending()
					}
					d.task.Stop()
				}
			case stepBusy:
				busy[branch[peer]] = op&0x10 != 0
				fast.fan.SetBusy(branch[peer], busy[branch[peer]])
				fast.loop.RunPending()
			default:
				if len(script) == 0 {
					continue
				}
				n := min(int(script[0]), len(script)-1)
				wire, lenOff := appendHeader(nil, MsgUpdate)
				wire = append(wire, script[1:1+n]...)
				patchLen(wire, lenOff, 0)
				script = script[1+n:]
				// Decoded once a side: a message belongs to who decoded it.
				m, err := DecodeMessage(wire)
				if err != nil || m.Update == nil {
					continue
				}
				ref.inject(name, m.Update)
				if m, err = DecodeMessage(wire); err != nil {
					t.Fatalf("second decode of the same bytes: %v", err)
				}
				fast.inject(name, m.Update)
			}
		}
		for _, b := range branch {
			fast.fan.SetBusy(b, false)
		}
		fast.loop.RunPending()
		for peer, rm := range ref.members {
			if rm.down {
				comeBack(peer)
			}
		}

		stored := 0
		for i, rm := range ref.members {
			fm := fast.members[i]
			compareAtomStreams(t, rm.handle.Name, rm.atoms, fm.atoms)
			fa := fast.announcedSet(fm)
			if len(rm.out) != len(fa) {
				t.Fatalf("%s: adj-RIB-out size model=%d fast=%d", rm.handle.Name, len(rm.out), len(fa))
			}
			for net, lr := range rm.out {
				if fr, ok := fa[net]; !ok || !lr.Attrs.Equal(fr.Attrs) || lr.Src.Name != fr.Src.Name {
					t.Fatalf("%s: adj-RIB-out differs at %v", rm.handle.Name, net)
				}
			}
			stored += fm.in.Len()
		}
		if got := fast.pool.Refs(); got != stored {
			t.Fatalf("pool holds %d references for %d stored routes", got, stored)
		}
	})
}
