package bgp

import (
	"bytes"
	"fmt"
	"math/rand"
	"net/netip"
	"slices"
	"testing"
	"time"

	"xorp/internal/eventloop"
	"xorp/internal/trie"
)

// segOp is one step of a segmentation script: peer announces net with
// attrs, or withdraws it (attrs nil).
type segOp struct {
	peer  string
	net   netip.Prefix
	attrs *PathAttrs
}

// segScript generates a random announce/withdraw script over a small
// prefix universe, in bursts by one peer with one attribute set so that
// packing has something to pack.
func segScript(r *rand.Rand, peers []string, attrs map[string][]*PathAttrs, steps int) []segOp {
	var universe []netip.Prefix
	for i := 0; i < 40; i++ {
		universe = append(universe, randPrefix4(r))
	}
	for i := 0; i < 16; i++ {
		universe = append(universe, randPrefix6(r))
	}
	var ops []segOp
	for len(ops) < steps {
		peer := peers[r.Intn(len(peers))]
		var a *PathAttrs
		if r.Intn(3) > 0 {
			a = attrs[peer][r.Intn(len(attrs[peer]))]
		}
		for n := 1 + r.Intn(12); n > 0; n-- {
			ops = append(ops, segOp{peer: peer, net: universe[r.Intn(len(universe))], attrs: a})
		}
	}
	return ops
}

// segUpdates cuts a script into UPDATEs. Consecutive ops of one peer, one
// kind and one attribute set may share a message; cut decides, given the
// length so far, whether to close the message anyway.
func segUpdates(ops []segOp, cut func(n int) bool) []oracleEvent {
	var evs []oracleEvent
	for i := 0; i < len(ops); {
		j := i + 1
		for j < len(ops) && ops[j].peer == ops[i].peer && ops[j].attrs == ops[i].attrs && !cut(j-i) {
			j++
		}
		var nets []netip.Prefix
		for _, op := range ops[i:j] {
			nets = append(nets, op.net)
		}
		a := ops[i].attrs
		evs = append(evs, oracleEvent{peer: ops[i].peer, msg: func() *UpdateMsg {
			if a == nil {
				return &UpdateMsg{Withdrawn: nets}
			}
			return &UpdateMsg{Attrs: a.Clone(), NLRI: nets}
		}})
		i = j
	}
	return evs
}

// TestSegmentationInvariant: how a peer cuts its announcements into
// UPDATEs must not show downstream. One random script is fed as one-NLRI
// UPDATEs, as maximally packed UPDATEs and cut at random; every member
// must be sent the same atoms in the same order and end with the same
// adj-RIB-out. The export policy is prefix-dependent (the filter bank has
// to cut runs), and in the second variant a peer goes down halfway and
// comes back while its deletion stage still holds the old table (the
// deletion stage has to cut runs).
func TestSegmentationInvariant(t *testing.T) {
	policy := []Filter{
		FilterFunc(func(rt *Route) *PathAttrs {
			if rt.Net.Bits()%5 == 0 {
				return nil
			}
			return rt.Attrs
		}),
		FilterFunc(func(rt *Route) *PathAttrs {
			a := rt.Attrs.Clone()
			a.MED, a.HasMED = uint32(rt.Net.Bits()%3), true
			return a
		}),
	}
	members := []struct {
		name, addr string
		as         uint16
		group      string
	}{
		{"e1", "10.0.0.1", 65001, "rs"},
		{"e2", "10.0.0.2", 65002, "rs"},
		{"e3", "10.0.0.3", 65003, "rs"},
		{"s1", "10.0.0.4", 65004, ""}, // a group of one
	}
	for _, withDeletion := range []bool{false, true} {
		for seed := int64(0); seed < 4; seed++ {
			r := rand.New(rand.NewSource(seed))
			var names []string
			attrs := make(map[string][]*PathAttrs)
			for _, m := range members {
				names = append(names, m.name)
				for v := 0; v < 3; v++ {
					attrs[m.name] = append(attrs[m.name], attrsVia(m.addr, m.as, uint16(64512+r.Intn(50))))
				}
			}
			ops := segScript(r, names, attrs, 400)
			cuts := map[string]func(int) bool{
				"singletons": func(int) bool { return true },
				"packed":     func(int) bool { return false },
				"random":     func(int) bool { return r.Intn(3) == 0 },
			}
			var want *oracleRouter
			for _, shape := range []string{"singletons", "packed", "random"} {
				o := newOracleRouter(t, false, 65000)
				for _, m := range members {
					o.addMember(m.name, m.addr, m.as, m.group, mustA("192.0.2.1"), policy)
				}
				for _, ev := range segUpdates(ops[:len(ops)/2], cuts[shape]) {
					o.inject(ev.peer, ev.msg())
				}
				var held *DeletionStage
				if withDeletion {
					// e1 bounces. Its deletion stage is kept from running
					// by itself, so it holds what is left of the old table
					// for the rest of the script in every shape alike.
					if held = o.byName["e1"].in.PeerDown(); held != nil {
						held.task.Stop()
					}
				}
				for _, ev := range segUpdates(ops[len(ops)/2:], cuts[shape]) {
					o.inject(ev.peer, ev.msg())
				}
				for held != nil && !held.Done() {
					held.step()
					o.loop.RunPending()
				}
				if want == nil {
					want = o
					continue
				}
				for i, wm := range want.members {
					gm := o.members[i]
					name := fmt.Sprintf("deletion=%v seed=%d %s %s", withDeletion, seed, shape, wm.handle.Name)
					compareAtomStreams(t, name, wm.atoms, gm.atoms)
					wa, ga := want.announcedSet(wm), o.announcedSet(gm)
					if len(wa) != len(ga) {
						t.Fatalf("%s: adj-RIB-out %d routes, singletons %d", name, len(ga), len(wa))
					}
					for net, wr := range wa {
						if gr, ok := ga[net]; !ok || !gr.Attrs.Equal(wr.Attrs) || gr.Src.Name != wr.Src.Name {
							t.Fatalf("%s: adj-RIB-out differs at %v", name, net)
						}
					}
				}
			}
		}
	}
}

// TestRunOfOneAllocs: the run is the only add message, so a run of one
// must cost no more than the per-route Add it replaced. One one-NLRI
// UPDATE through PeerIn → resolver → Decision → Fanout → out-filter →
// group of one, and its withdrawal, cost 28 allocations at the parent of
// the change that made Add take a run (per-peer PeerOut, no-op sender), and
// 3 — the PeerIn's Route, the pool's entry and its key — before a route was
// a value and the pool one table. Under a set the pool and the export
// filter have seen they cost none.
func TestRunOfOneAllocs(t *testing.T) {
	loop := eventloop.New(eventloop.NewSimClock(time.Unix(0, 0)))
	dec := NewDecision("decision")
	fan := NewFanout("fanout", loop)
	Plumb(dec, fan)
	pool := NewAttrPool()
	mk := func(name, addr string, as uint16) *PeerIn {
		h := testPeer(name, addr, as, false)
		in := NewPeerIn(loop, h, pool)
		res := NewNexthopResolver("nexthop("+name+")", &StaticMetricSource{})
		Plumb(in, res)
		dec.AddParent(res)
		g := NewGroupOut(name)
		bank := NewFilterBank("out-filter("+name+")", FilterEBGPExport(65000, mustA("192.0.2.1")))
		Plumb(bank, g)
		fan.AddPeerBranch(name, h, bank)
		if err := g.AddMember(h, GroupSenderFunc(func([]byte) {})); err != nil {
			t.Fatal(err)
		}
		return in
	}
	in := mk("a", "10.0.0.1", 65001)
	mk("b", "10.0.0.2", 65002)
	net := mustP("10.9.0.0/16")
	ann := &UpdateMsg{Attrs: attrsVia("10.0.0.1", 65001), NLRI: []netip.Prefix{net}}
	wd := &UpdateMsg{Withdrawn: []netip.Prefix{net}}
	cycle := func() {
		in.ReceiveUpdate(ann, 65000)
		loop.RunPending()
		in.ReceiveUpdate(wd, 65000)
		loop.RunPending()
	}
	cycle()
	if got := testing.AllocsPerRun(200, cycle); got > 0 {
		t.Fatalf("announce+withdraw of one route costs %.0f allocations, want 0", got)
	}
}

// TestSoloPeerIsGroupOfOne: a peer outside any group gets a GroupOut of
// its own behind a fanout branch that carries the peer's name and screens
// for it, so split horizon and the IBGP rule hold, the peer's own routes
// cost its group nothing, and flow control by peer name still works. A
// group whose session is not established does no work: it reports 0 and
// encodes nothing, and the session's coming up tells it the table.
func TestSoloPeerIsGroupOfOne(t *testing.T) {
	loop := eventloop.New(eventloop.NewSimClock(time.Unix(0, 0)))
	p := NewProcess(loop, Config{AS: 65000, BGPID: mustA("10.0.0.254")}, nil, nil)
	outs := make(map[string]*GroupOut)
	peers := make(map[string]*Peer)
	for _, pc := range []PeerConfig{
		{Name: "e1", PeerAddr: mustA("10.0.0.1"), PeerAS: 65001, LocalAddr: mustA("192.0.2.1")},
		{Name: "i1", PeerAddr: mustA("10.0.1.1"), PeerAS: 65000},
		{Name: "i2", PeerAddr: mustA("10.0.1.2"), PeerAS: 65000},
	} {
		peer, err := p.AddPeer(pc)
		if err != nil {
			t.Fatal(err)
		}
		if peer.group.out.Members() != 1 || p.Group(pc.Name) != nil {
			t.Fatalf("%s: not a private group of one", pc.Name)
		}
		outs[pc.Name], peers[pc.Name] = peer.group.out, peer
	}
	inject := func(peer string, as uint16, nets ...string) {
		t.Helper()
		u := &UpdateMsg{Attrs: attrsVia("10.0.0.1", as)}
		for _, n := range nets {
			u.NLRI = append(u.NLRI, mustP(n))
		}
		if err := p.InjectUpdate(peer, u); err != nil {
			t.Fatal(err)
		}
		loop.RunPending()
	}
	counts := func() [3]int {
		return [3]int{outs["e1"].AnnouncedCount(), outs["i1"].AnnouncedCount(), outs["i2"].AnnouncedCount()}
	}
	encodes := func() int { return outs["e1"].EncodeCalls + outs["i1"].EncodeCalls + outs["i2"].EncodeCalls }

	inject("e1", 65001, "10.5.0.0/16", "10.6.0.0/16")
	if got := counts(); got != [3]int{0, 0, 0} || encodes() != 0 {
		t.Fatalf("sessionless: e1/i1/i2 hold %v after %d encodes, want [0 0 0] and none", got, encodes())
	}
	conns := make(map[string]*memConn)
	for _, name := range []string{"e1", "i1", "i2"} {
		conns[name] = establish(t, peers[name])
	}
	if got := counts(); got != [3]int{0, 2, 2} {
		t.Fatalf("after e1's routes: e1/i1/i2 hold %v, want [0 2 2] (split horizon, nothing stored for the originator)", got)
	}
	if got := [3]int{conns["e1"].announced(t), conns["i1"].announced(t), conns["i2"].announced(t)}; got != [3]int{0, 2, 2} {
		t.Fatalf("the sessions were told %v, want [0 2 2]", got)
	}
	inject("i1", 65009, "10.7.0.0/16")
	if got := counts(); got != [3]int{1, 2, 2} {
		t.Fatalf("after i1's route: e1/i1/i2 hold %v, want [1 2 2] (IBGP routes go to EBGP peers only)", got)
	}
	if r := lookup(outs["e1"], mustP("10.7.0.0/16")); r == nil || r.Attrs.ASPath.Length() != 2 {
		t.Fatalf("e1 was told %+v, want i1's route through the EBGP export transform", r)
	}

	// A replace that moves the winner to the member's own peer is a
	// withdrawal for that member.
	inject("i1", 65009, "10.5.0.0/16") // same path length as e1's; i1 loses to EBGP
	if got := counts(); got != [3]int{1, 2, 2} {
		t.Fatalf("after a losing route: %v", got)
	}

	// Flow control by peer name stalls that peer's branch only.
	p.Fanout().SetBusy("i1", true)
	inject("e1", 65001, "10.8.0.0/16")
	if got := counts(); got != [3]int{1, 2, 3} {
		t.Fatalf("with i1 busy: e1/i1/i2 hold %v, want [1 2 3]", got)
	}
	if p.Fanout().Backlog("i1") != 1 || p.Fanout().Backlog("i2") != 0 {
		t.Fatalf("backlogs i1=%d i2=%d", p.Fanout().Backlog("i1"), p.Fanout().Backlog("i2"))
	}
	p.Fanout().SetBusy("i1", false)
	loop.RunPending()
	if got := counts(); got != [3]int{1, 3, 3} {
		t.Fatalf("after i1 resumes: %v, want [1 3 3]", got)
	}

	// Removing the peer removes its branch.
	if err := p.RemovePeer("i1"); err != nil {
		t.Fatal(err)
	}
	before := outs["i1"].EncodeCalls
	inject("e1", 65001, "10.9.0.0/16")
	if p.fanout.branches["i1"] != nil || outs["i1"].AnnouncedCount() != 0 || outs["i1"].EncodeCalls != before {
		t.Fatalf("removed peer's group still fed: %d routes, %d encodes", outs["i1"].AnnouncedCount(), outs["i1"].EncodeCalls-before)
	}
}

// TestResyncIsDeterministic: a session bounce replays the adj-RIB-out in
// prefix order, attribute sets in the order of their first prefix, so two
// replays of one table are the same bytes.
func TestResyncIsDeterministic(t *testing.T) {
	peer := testPeer("p", "10.0.0.9", 65009, false)
	g := NewGroupOut("p")
	up := newUpstream()
	up.branch(nil, nil, g)
	var sent []byte
	if err := g.AddMember(peer, GroupSenderFunc(func(b []byte) { sent = append(sent, b...) })); err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(7))
	src := testPeer("src", "10.0.0.1", 65001, false)
	sets := []*PathAttrs{attrsVia("10.0.0.1", 65001), attrsVia("10.0.0.1", 65001, 65002), attrsVia("10.0.0.2", 65003)}
	seen := make(map[netip.Prefix]bool)
	for len(seen) < 300 {
		net := randPrefix4(r)
		if len(seen)%4 == 0 {
			net = randPrefix6(r)
		}
		if !seen[net] {
			seen[net] = true
			up.announce([]Route{{Net: net, Attrs: sets[r.Intn(len(sets))], Src: src}})
		}
	}
	replay := func() []byte {
		sent = nil
		g.ResyncMember(peer)
		return sent
	}
	first := replay()
	for i := 0; i < 5; i++ {
		if !bytes.Equal(first, replay()) {
			t.Fatalf("replay %d differs from the first", i+2)
		}
	}
	// In prefix order within each attribute set, every route once.
	replayed := 0
	for _, u := range decodeUpdates(t, first) {
		if !slices.IsSortedFunc(u.NLRI, trie.ComparePrefix) {
			t.Fatalf("message NLRI out of prefix order: %v", u.NLRI)
		}
		replayed += len(u.NLRI)
	}
	if replayed != 300 {
		t.Fatalf("replayed %d routes, want 300", replayed)
	}
}

// TestResyncPacksEqualSets: an exported attribute set is a fresh object per
// run, so a replay that grouped prefixes by set identity would send one
// UPDATE per run the table was learned in. Four runs exported from two
// distinct sets replay as two announcements carrying the same prefixes.
func TestResyncPacksEqualSets(t *testing.T) {
	g, _, runs, up := exportSide(t, 2, 8)
	half := len(runs[0]) / 2
	var live []*UpdateMsg
	record := GroupSenderFunc(func(buf []byte) { live = append(live, decodeUpdates(t, buf)...) })
	late := testPeer("late", "10.0.1.9", 65019, false)
	if err := g.AddMember(late, record); err != nil {
		t.Fatal(err)
	}
	for _, run := range [][]Route{runs[0][:half], runs[1][:half], runs[0][half:], runs[1][half:]} {
		up.announce(run) // the export filter remembers one rewrite: each of these is a new set
	}
	if len(live) != 4 {
		t.Fatalf("the live path sent %d messages for 4 runs", len(live))
	}
	var replay []*UpdateMsg
	g.member(late).sender = GroupSenderFunc(func(buf []byte) { replay = append(replay, decodeUpdates(t, buf)...) })
	g.ResyncMember(late)
	if len(replay) != 2 {
		t.Fatalf("replay of 4 runs over 2 distinct sets sent %d announcements, want 2", len(replay))
	}
	for k, u := range replay {
		var want []netip.Prefix
		for _, r := range runs[k] {
			want = append(want, r.Net)
		}
		if !u.Attrs.Equal(naiveEBGPExport(runs[k][0].Attrs, 65000, mustA("192.0.2.1"))) || !slices.Equal(u.NLRI, want) {
			t.Fatalf("replayed announcement %d carries %v under %+v, want %v under run %d's exported set", k, u.NLRI, u.Attrs, want, k)
		}
	}
}

// TestEncodeFailureIsCountedDrop: what a peer may validly send can become
// unencodable on export. A full 255-AS AS_SEQUENCE must get a second
// segment for the local AS (RFC 4271 §5.1.2) and go out; an attribute set
// that fills the 4096-byte message before the local AS is prepended
// cannot go out, and is dropped and counted with every member's
// adj-RIB-out left consistent — not a panic that takes BGP down.
func TestEncodeFailureIsCountedDrop(t *testing.T) {
	g := NewGroupOut("rs")
	up := newUpstream()
	up.branch(nil, NewFilterBank("out-filter(group:rs)", FilterEBGPExport(65000, mustA("192.0.2.1"))), g)
	src := testPeer("src", "10.0.0.1", 65001, false)
	var sent [2][]*UpdateMsg
	for i := range sent {
		h := testPeer(fmt.Sprintf("m%d", i), fmt.Sprintf("10.0.1.%d", i+1), uint16(65010+i), false)
		if err := g.AddMember(h, GroupSenderFunc(func(buf []byte) {
			sent[i] = append(sent[i], decodeUpdates(t, buf)...)
		})); err != nil {
			t.Fatal(err)
		}
	}
	// validFromPeer checks the route is something a peer can send.
	validFromPeer := func(r Route) int {
		t.Helper()
		buf, err := AppendUpdate(nil, &UpdateMsg{Attrs: r.Attrs, NLRI: []netip.Prefix{r.Net}})
		if err != nil {
			t.Fatalf("test route does not encode: %v", err)
		}
		return len(buf)
	}

	// A full first segment.
	long := attrsVia("10.0.0.1", 65001)
	for len(long.ASPath[0].ASes) < 255 {
		long.ASPath[0].ASes = append(long.ASPath[0].ASes, uint16(64000+len(long.ASPath[0].ASes)))
	}
	r1 := Route{Net: mustP("10.1.0.0/16"), Attrs: long, Src: src}
	validFromPeer(r1)
	up.announce([]Route{r1})
	for i := range sent {
		if len(sent[i]) != 1 {
			t.Fatalf("member %d got %d messages for the 255-AS route", i, len(sent[i]))
		}
		path := sent[i][0].Attrs.ASPath
		if len(path) != 2 || !slices.Equal(path[0].ASes, []uint16{65000}) || len(path[1].ASes) != 255 || path.Length() != 256 {
			t.Fatalf("member %d got path with segments %d", i, len(path))
		}
	}
	if g.EncodeErrors.Value() != 0 || g.AnnouncedCount() != 1 {
		t.Fatalf("errors %d announced %d", g.EncodeErrors.Value(), g.AnnouncedCount())
	}

	// A message-filling attribute set: exactly 4096 bytes from the peer,
	// two more once the local AS is prepended.
	big := attrsVia("10.0.0.1", 65001)
	for len(big.Communities) < 1012 {
		big.Communities = append(big.Communities, uint32(len(big.Communities)))
	}
	r2 := Route{Net: mustP("10.2.0.0/16"), Attrs: big, Src: src}
	if n := validFromPeer(r2); n != maxMsgLen {
		t.Fatalf("test route encodes to %d bytes, want the full %d", n, maxMsgLen)
	}
	sent = [2][]*UpdateMsg{}
	up.announce([]Route{r2})
	if g.EncodeErrors.Value() != 1 {
		t.Fatalf("encode errors %d, want 1", g.EncodeErrors.Value())
	}
	if g.AnnouncedCount() != 1 || lookup(g, r2.Net) != nil {
		t.Fatal("dropped route recorded in the adj-RIB-out")
	}
	// A bounce replays what was sent: the dropped route is not tried again.
	g.ResyncMember(g.members[0].handle)
	if len(sent[0]) != 1 || !slices.Equal(sent[0][0].NLRI, []netip.Prefix{r1.Net}) || len(sent[1]) != 0 || g.EncodeErrors.Value() != 1 {
		t.Fatalf("replay with a dropped route sent %+v, %d errors; want %v alone", sent[0], g.EncodeErrors.Value(), r1.Net)
	}
	sent = [2][]*UpdateMsg{}
	up.withdraw(r2) // never sent: nothing to withdraw
	if len(sent[0])+len(sent[1]) != 0 {
		t.Fatalf("dropped route caused %d+%d messages", len(sent[0]), len(sent[1]))
	}

	// A replace whose new side cannot go out withdraws the old.
	r1big := Route{Net: r1.Net, Attrs: big, Src: src}
	up.announce([]Route{r1big})
	for i := range sent {
		if len(sent[i]) != 1 || len(sent[i][0].Withdrawn) != 1 || sent[i][0].Withdrawn[0] != r1.Net {
			t.Fatalf("member %d got %+v, want the withdrawal of %v", i, sent[i], r1.Net)
		}
	}
	if g.EncodeErrors.Value() != 2 || g.AnnouncedCount() != 0 {
		t.Fatalf("errors %d announced %d, want 2 and 0", g.EncodeErrors.Value(), g.AnnouncedCount())
	}
	// ...and the way back is a plain announcement.
	sent = [2][]*UpdateMsg{}
	up.announce([]Route{r1})
	for i := range sent {
		if len(sent[i]) != 1 || len(sent[i][0].NLRI) != 1 {
			t.Fatalf("member %d got %+v, want %v announced again", i, sent[i], r1.Net)
		}
	}
	if g.AnnouncedCount() != 1 || g.MemberAnnouncedCount(g.members[0].handle) != 1 {
		t.Fatalf("announced %d", g.AnnouncedCount())
	}
}

// TestGroupWithdrawsARun: a run's withdrawal is one shared encode, packed
// as an announcement is. 64 prefixes reach each member as one UPDATE;
// 1,200 outgrow the 4,096-byte message and arrive as several UPDATEs that
// together withdraw every prefix exactly once, IPv4 in the classic field
// and IPv6 in MP_UNREACH_NLRI. The member the run came from is sent
// nothing.
func TestGroupWithdrawsARun(t *testing.T) {
	src := testPeer("src", "10.0.9.9", 65100, false)
	v4 := func(i int) netip.Prefix {
		return netip.PrefixFrom(netip.AddrFrom4([4]byte{10, byte(i >> 8), byte(i), 0}), 24)
	}
	v6 := func(i int) netip.Prefix {
		return netip.PrefixFrom(netip.AddrFrom16([16]byte{0x20, 0x01, 0x0d, 0xb8, byte(i >> 8), byte(i)}), 48)
	}
	for _, c := range []struct {
		n, minMsgs, maxMsgs int
		net                 func(int) netip.Prefix
	}{{64, 1, 1, v4}, {1200, 2, 2, v4}, {1200, 3, 3, v6}} {
		g := NewGroupOut("rs")
		var got [2][]*UpdateMsg
		for i := range got {
			h := testPeer(fmt.Sprintf("m%d", i), fmt.Sprintf("10.0.0.%d", i+1), uint16(65001+i), false)
			if err := g.AddMember(h, GroupSenderFunc(func(b []byte) { got[i] = append(got[i], decodeUpdates(t, b)...) })); err != nil {
				t.Fatal(err)
			}
		}
		toSrc := 0
		if err := g.AddMember(src, GroupSenderFunc(func([]byte) { toSrc++ })); err != nil {
			t.Fatal(err)
		}
		run := make([]Route, c.n)
		for i := range run {
			run[i] = Route{Net: c.net(i), Attrs: testAttrs(), Src: src}
		}
		g.Add(run)
		got, encodes := [2][]*UpdateMsg{}, g.EncodeCalls
		g.Delete(run)
		if g.EncodeCalls != encodes+1 || toSrc != 0 || g.AnnouncedCount() != 0 {
			t.Fatalf("%d prefixes: %d encodes, %d sends to the source, %d routes left; want 1, 0, 0",
				c.n, g.EncodeCalls-encodes, toSrc, g.AnnouncedCount())
		}
		for i, msgs := range got {
			if len(msgs) < c.minMsgs || len(msgs) > c.maxMsgs {
				t.Fatalf("%d prefixes reached member %d as %d UPDATEs, want %d to %d", c.n, i, len(msgs), c.minMsgs, c.maxMsgs)
			}
			seen := map[netip.Prefix]int{}
			for _, m := range msgs {
				if m.Attrs != nil || len(m.NLRI) != 0 {
					t.Fatalf("member %d: a withdrawal message carries attributes %v and NLRI %v", i, m.Attrs, m.NLRI)
				}
				for _, w := range m.Withdrawn {
					seen[w]++
				}
			}
			for _, r := range run {
				if seen[r.Net] != 1 {
					t.Fatalf("%d prefixes: member %d was told of %v's withdrawal %d times", c.n, i, r.Net, seen[r.Net])
				}
			}
			if len(seen) != c.n {
				t.Fatalf("%d prefixes: member %d was told of %d withdrawals", c.n, i, len(seen))
			}
		}
	}
}
