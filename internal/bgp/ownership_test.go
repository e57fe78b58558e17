package bgp

import (
	"fmt"
	"net/netip"
	"runtime"
	"slices"
	"testing"
	"time"

	"xorp/internal/core"
	"xorp/internal/eventloop"
)

// Pins for "a route is a value": what a stage queues is its own copy, so
// nothing the sender does afterwards — withdrawing the prefix, reusing its
// run buffer for the next UPDATE — can change what the queue delivers.

// recMsg is one stage message as msgLog received it.
type recMsg struct {
	op       core.Op
	old, new Route
	run      []Route
}

// msgLog is a terminal stage that keeps every message it is sent, by value
// (a run is valid only for the call, so it is copied).
type msgLog struct {
	core.Base[Route]
	msgs []recMsg
}

func (l *msgLog) Add(run []Route) {
	l.msgs = append(l.msgs, recMsg{op: core.OpAdd, run: slices.Clone(run)})
}
func (l *msgLog) Replace(old, new Route) {
	l.msgs = append(l.msgs, recMsg{op: core.OpReplace, old: old, new: new})
}
func (l *msgLog) Delete(run []Route) {
	for _, r := range run {
		l.msgs = append(l.msgs, recMsg{op: core.OpDelete, old: r})
	}
}

// ownNets returns n /24s under 10.second/16, in prefix order.
func ownNets(second byte, n int) (nets []netip.Prefix) {
	for i := 0; i < n; i++ {
		nets = append(nets, netip.PrefixFrom(netip.AddrFrom4([4]byte{10, second, byte(i), 0}), 24))
	}
	return nets
}

// wantRun fails unless m is the Add of exactly nets, in order, each under
// attrs and from src.
func wantRun(t *testing.T, what string, m recMsg, nets []netip.Prefix, attrs *PathAttrs, src *PeerHandle) {
	t.Helper()
	if m.op != core.OpAdd || len(m.run) != len(nets) {
		t.Fatalf("%s: got %v of %d routes, want an add of %d", what, m.op, len(m.run), len(nets))
	}
	for i, r := range m.run {
		if r.Net != nets[i] || !r.Attrs.Equal(attrs) || r.Src != src || !r.Resolvable {
			t.Fatalf("%s: route %d is %v via %v from %v (resolvable %v), want %v via %v from %v",
				what, i, r.Net, r.Attrs.NextHop, r.Src, r.Resolvable, nets[i], attrs.NextHop, src)
		}
	}
}

// TestQueuedRouteSurvivesWithdraw: a busy fanout branch, and an op parked in
// the resolver behind an unanswered nexthop, deliver the values they were
// handed — after the source has withdrawn half of them, announced others,
// and every run buffer on the way has carried other peers' routes.
func TestQueuedRouteSurvivesWithdraw(t *testing.T) {
	const n = 64
	first, other, third := ownNets(1, n), ownNets(2, n), ownNets(3, n)
	setA, setB, setC := attrsVia("10.0.0.1", 65001), attrsVia("10.0.0.1", 65001, 64512), attrsVia("10.0.0.2", 65002)

	t.Run("fanout", func(t *testing.T) {
		tr := newTestRouter(t, 65000)
		p1 := tr.addPeer(t, "p1", "10.0.0.1", 65001)
		p2 := tr.addPeer(t, "p2", "10.0.0.2", 65002)
		// Both nexthops known, so a run stays a run through the resolver.
		p1.peerin.Announce(mustP("10.9.1.0/24"), setA.Clone())
		p2.peerin.Announce(mustP("10.9.2.0/24"), setC.Clone())
		tr.settle()
		slow := &msgLog{Base: newBase("slow")}
		tr.fanout.AddGroupBranch("slow", slow)
		tr.fanout.SetBusy("slow", true)

		p1.peerin.ReceiveUpdate(&UpdateMsg{Attrs: setA.Clone(), NLRI: first}, 65000)
		tr.settle()
		p1.peerin.ReceiveUpdate(&UpdateMsg{Withdrawn: first[:n/2]}, 65000)
		p1.peerin.ReceiveUpdate(&UpdateMsg{Attrs: setB.Clone(), NLRI: other}, 65000)
		p2.peerin.ReceiveUpdate(&UpdateMsg{Attrs: setC.Clone(), NLRI: third}, 65000)
		tr.settle()
		// Queued: the run, the withdrawal run and two more runs.
		if len(slow.msgs) != 0 || tr.fanout.Backlog("slow") != 4 {
			t.Fatalf("busy branch was sent %d messages, backlog %d", len(slow.msgs), tr.fanout.Backlog("slow"))
		}
		tr.fanout.SetBusy("slow", false)
		tr.settle()

		if len(slow.msgs) != 3+n/2 {
			t.Fatalf("branch got %d messages, want the run, %d withdrawals and two more runs", len(slow.msgs), n/2)
		}
		wantRun(t, "the queued run", slow.msgs[0], first, setA, p1.peer)
		for i, m := range slow.msgs[1 : 1+n/2] {
			if m.op != core.OpDelete || m.old.Net != first[i] || !m.old.Attrs.Equal(setA) || m.old.Src != p1.peer {
				t.Fatalf("message %d: %v of %v via %v, want the withdrawal of %v", 1+i, m.op, m.old.Net, m.old.Attrs.NextHop, first[i])
			}
		}
		wantRun(t, "the run announced meanwhile", slow.msgs[1+n/2], other, setB, p1.peer)
		wantRun(t, "the other peer's run", slow.msgs[2+n/2], third, setC, p2.peer)
	})

	t.Run("resolver", func(t *testing.T) {
		loop := eventloop.New(eventloop.NewSimClock(time.Unix(0, 0)))
		peer := testPeer("p1", "10.0.0.1", 65001, false)
		in := NewPeerIn(loop, peer, NewAttrPool())
		src := &fakeMetricSource{}
		res := NewNexthopResolver("nexthop(p1)", src)
		log := &msgLog{Base: newBase("log")}
		Plumb(in, res, log)

		in.ReceiveUpdate(&UpdateMsg{Attrs: setA.Clone(), NLRI: first}, 65000)
		in.ReceiveUpdate(&UpdateMsg{Withdrawn: first[:n/2]}, 65000)
		in.ReceiveUpdate(&UpdateMsg{Attrs: setB.Clone(), NLRI: other}, 65000)
		if len(log.msgs) != 0 || res.PendingOps() != 2*n+n/2 {
			t.Fatalf("before the answer: %d messages out, %d ops parked", len(log.msgs), res.PendingOps())
		}
		src.answer(mustA("10.0.0.1"), NexthopInfo{Resolvable: true, Metric: 10, Covering: mustP("10.0.0.0/24")})
		loop.RunPending()

		// Each prefix's ops leave in the order they came; prefixes in the
		// order they first waited. Adds that follow one another leave as
		// one run while they share their attributes: each withdrawn
		// prefix's add alone, then the rest of the first UPDATE's, then
		// the second's.
		if len(log.msgs) != n+2 {
			t.Fatalf("parked ops left as %d messages, want %d", len(log.msgs), n+2)
		}
		var want []string
		for i, net := range first {
			want = append(want, fmt.Sprintf("add %v %v", net, setA.ASPath))
			if i < n/2 {
				want = append(want, fmt.Sprintf("delete %v %v", net, setA.ASPath))
			}
		}
		for _, net := range other {
			want = append(want, fmt.Sprintf("add %v %v", net, setB.ASPath))
		}
		var got []string
		for _, m := range log.msgs {
			rs := m.run
			if m.op != core.OpAdd {
				rs = []Route{m.old}
			}
			for _, r := range rs {
				if r.Src != peer || !r.Resolvable || r.IGPMetric != 10 {
					t.Fatalf("%v of %v from %v, resolvable %v at metric %d", m.op, r.Net, r.Src, r.Resolvable, r.IGPMetric)
				}
				got = append(got, fmt.Sprintf("%v %v %v", m.op, r.Net, r.Attrs.ASPath))
			}
		}
		if !slices.Equal(got, want) {
			t.Fatalf("parked ops left as\n%v\nwant\n%v", got, want)
		}
	})
}

// mallocsOf returns how many heap allocations fn makes.
func mallocsOf(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// inboundSide is the route-server network of one client feeding a shared
// group: PeerIn → resolver → Decision → Fanout → export bank → GroupOut.
func inboundSide(t *testing.T) (*PeerIn, *eventloop.Loop, *GroupOut) {
	loop := eventloop.New(eventloop.NewSimClock(time.Unix(0, 0)))
	dec, fan := NewDecision("decision"), NewFanout("fanout", loop)
	Plumb(dec, fan)
	bank := NewFilterBank("out-filter(group:rs)", FilterEBGPExport(65000, mustA("192.0.2.1")))
	g := NewGroupOut("rs")
	Plumb(bank, g)
	fan.AddGroupBranch("group:rs", bank)
	var in *PeerIn
	pool := NewAttrPool()
	for i := 0; i < 3; i++ { // the sender and two members that are told
		h := testPeer(fmt.Sprintf("c%d", i), fmt.Sprintf("10.0.0.%d", i+1), uint16(65001+i), false)
		pin := NewPeerIn(loop, h, pool)
		res := NewNexthopResolver("nexthop("+h.Name+")", &StaticMetricSource{})
		Plumb(pin, res)
		dec.AddParent(res)
		if err := g.AddMember(h, GroupSenderFunc(func([]byte) {})); err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			in = pin
		}
	}
	return in, loop, g
}

// TestInboundAllocs is TestExportSideAllocs's twin for the other side: from
// the decoded UPDATE to the group's adj-RIB-out nothing is made per route,
// and in steady state nothing at all: the fanout queues the run in storage
// it reuses, the export rewrite of a repeated set is the last one's, and the
// encode's scratch is kept. Whether the UPDATE carries 8, 64 or 256 NLRI it
// costs no allocation, and neither does its withdrawal; per-route work
// would show as 64 times something.
func TestInboundAllocs(t *testing.T) {
	var adds, dels []uint64
	sizes := []int{8, 64, 256}
	for _, n := range sizes {
		in, loop, g := inboundSide(t)
		ann := &UpdateMsg{Attrs: attrsVia("10.0.0.1", 65001, 64512), NLRI: ownNets(7, n)}
		wd := &UpdateMsg{Withdrawn: ann.NLRI}
		announce := func() { in.ReceiveUpdate(ann, 65000); loop.RunPending() }
		withdraw := func() { in.ReceiveUpdate(wd, 65000); loop.RunPending() }
		for i := 0; i < 3; i++ { // steady state: tables, queues and buffers at size
			announce()
			withdraw()
		}
		// Summed over rounds and divided down like testing.AllocsPerRun, so
		// the runtime's own stray allocation does not count.
		const rounds = 20
		var add, del uint64
		for i := 0; i < rounds; i++ {
			add += mallocsOf(announce)
			del += mallocsOf(withdraw)
		}
		if g.AnnouncedCount() != 0 || in.Len() != 0 {
			t.Fatalf("%d routes left announced, %d stored", g.AnnouncedCount(), in.Len())
		}
		adds, dels = append(adds, add/rounds), append(dels, del/rounds)
	}
	t.Logf("allocations per UPDATE of %v NLRI: announce %v, withdraw %v", sizes, adds, dels)
	for i := range sizes {
		if adds[i] != adds[0] || dels[i] != dels[0] {
			t.Errorf("an UPDATE of %d NLRI costs %d allocations and its withdrawal %d; of %d NLRI, %d and %d: something is made per route",
				sizes[i], adds[i], dels[i], sizes[0], adds[0], dels[0])
		}
	}
	if adds[0] > 0 || dels[0] > 0 {
		t.Errorf("an UPDATE costs %d allocations and its withdrawal %d, want 0 and 0", adds[0], dels[0])
	}
}

// TestLoopedReannounceWithdraws: an UPDATE whose AS_PATH holds the local AS
// says the peer has replaced its route with one we must not use (RFC 4271
// §9.1.2). What we hold of its prefixes goes; we do not keep forwarding
// along the path the peer no longer advertises.
func TestLoopedReannounceWithdraws(t *testing.T) {
	loop := eventloop.New(eventloop.NewSimClock(time.Unix(0, 0)))
	p := NewProcess(loop, Config{AS: 65000, BGPID: mustA("10.0.0.254")}, nil, nil)
	peer, err := p.AddPeer(PeerConfig{Name: "p1", PeerAddr: mustA("10.0.0.1"), PeerAS: 65001, LocalAddr: mustA("192.0.2.1")})
	if err != nil {
		t.Fatal(err)
	}
	in := peer.peerin
	s := newSink("sink")
	Plumb(in, s)
	inject := func(u *UpdateMsg) {
		t.Helper()
		if err := p.InjectUpdate("p1", u); err != nil {
			t.Fatal(err)
		}
	}
	held, never, also := mustP("10.1.0.0/16"), mustP("10.2.0.0/16"), mustP("10.3.0.0/16")
	looped := attrsVia("10.0.0.1", 65001, 65000)

	inject(&UpdateMsg{Attrs: attrsVia("10.0.0.1", 65001), NLRI: []netip.Prefix{held, also}})
	inject(&UpdateMsg{Attrs: looped, NLRI: []netip.Prefix{held}})
	if r := lookup(in, held); r != nil || s.deletes != 1 {
		t.Fatalf("PeerIn still answers %v (path %v); sink deletes %d", r.Net, r.Attrs.ASPath, s.deletes)
	}
	if lookup(s, held) != nil || lookup(s, also) == nil {
		t.Fatal("downstream does not hold exactly the prefix the loop left alone")
	}

	// A looped announcement of a prefix the peer never announced is a
	// spurious withdrawal: nothing to say.
	inject(&UpdateMsg{Attrs: looped, NLRI: []netip.Prefix{never}})
	if s.adds != 2 || s.replaces != 0 || s.deletes != 1 {
		t.Fatalf("after a looped announcement of an unknown prefix: %d adds, %d replaces, %d deletes", s.adds, s.replaces, s.deletes)
	}

	// The UPDATE's own withdrawals are not the loop's business.
	inject(&UpdateMsg{Attrs: looped, NLRI: []netip.Prefix{never}, Withdrawn: []netip.Prefix{also}})
	if s.deletes != 2 || in.Len() != 0 || len(s.tbl) != 0 {
		t.Fatalf("a looped UPDATE's withdrawal: %d deletes, %d routes stored, %d downstream", s.deletes, in.Len(), len(s.tbl))
	}
	if got := p.AttrPool().Refs(); got != 0 {
		t.Fatalf("%d pool references left with nothing stored", got)
	}
	if got, _ := p.Metrics().Get("bgp_in_as_loop_routes_total"); got != 3 {
		t.Fatalf("bgp_in_as_loop_routes_total = %v, want 3", got)
	}
}
