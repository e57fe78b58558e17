package bgp

import (
	"bytes"
	"math/rand"
	"net/netip"
	"testing"
	"time"

	"xorp/internal/eventloop"
)

func TestFilterEBGPExport(t *testing.T) {
	f := FilterEBGPExport(65000, mustA("192.168.1.1"))
	in := &Route{
		Net: mustP("10.1.0.0/16"),
		Attrs: &PathAttrs{
			Origin:       OriginIGP,
			ASPath:       ASPath{{Type: SegSequence, ASes: []uint16{65001}}},
			NextHop:      mustA("10.0.0.1"),
			LocalPref:    200,
			HasLocalPref: true,
		},
	}
	out := f.Apply(in)
	if out == nil {
		t.Fatal("export filter dropped the route")
	}
	if !out.ASPath.Contains(65000) || out.ASPath.Length() != 2 {
		t.Fatalf("AS path %v, want local AS prepended", out.ASPath)
	}
	if out.NextHop != mustA("192.168.1.1") {
		t.Fatalf("nexthop %v, want rewritten to local address", out.NextHop)
	}
	if out.HasLocalPref {
		t.Fatal("LOCAL_PREF not stripped for EBGP")
	}
	// Original untouched (stage routes are immutable).
	if in.Attrs.ASPath.Contains(65000) || !in.Attrs.HasLocalPref {
		t.Fatal("export filter mutated the original")
	}
}

func TestFilterIBGPExport(t *testing.T) {
	f := FilterIBGPExport()
	in := &Route{Net: mustP("10.1.0.0/16"), Attrs: attrsVia("10.0.0.1", 65001)}
	out := f.Apply(in)
	if !out.HasLocalPref || out.LocalPref != 100 {
		t.Fatalf("LOCAL_PREF default not applied: %+v", out)
	}
	// Already-set LOCAL_PREF passes through unchanged, same object.
	in2 := &Route{Net: in.Net, Attrs: in.Attrs.Clone()}
	in2.Attrs.HasLocalPref, in2.Attrs.LocalPref = true, 300
	if got := f.Apply(in2); got != in2.Attrs {
		t.Fatal("already-set LOCAL_PREF route was copied")
	}
}

// naiveEBGPExport is the export transform written the obvious way, as the
// filter used to run it for every route: deep-copy the set, then edit the
// copy. It shares nothing with its input.
func naiveEBGPExport(in *PathAttrs, localAS uint16, localAddr netip.Addr) *PathAttrs {
	a := in.Clone()
	if len(a.ASPath) > 0 && a.ASPath[0].Type == SegSequence && len(a.ASPath[0].ASes) < 255 {
		a.ASPath[0].ASes = append([]uint16{localAS}, a.ASPath[0].ASes...)
	} else {
		a.ASPath = append(ASPath{{Type: SegSequence, ASes: []uint16{localAS}}}, a.ASPath...)
	}
	a.NextHop = localAddr
	a.HasLocalPref, a.LocalPref = false, 0
	return a
}

// TestExportRewriteMatchesDeepClone: the export rewrite builds only a new
// leading AS segment and shares the rest of the path and the communities
// with its input. Over seeded attribute sets — empty path, leading set, a
// full 255-AS leading sequence, communities, MED / LOCAL_PREF present and
// absent — it must equal the deep-copy reference, and leave its input as it
// found it, byte for byte of the pool key.
func TestExportRewriteMatchesDeepClone(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	localAddr := mustA("192.0.2.1")
	seg := func(typ uint8, n int) ASSegment {
		s := ASSegment{Type: typ}
		for i := 0; i < n; i++ {
			s.ASes = append(s.ASes, uint16(1+rng.Intn(65000)))
		}
		return s
	}
	for i := 0; i < 400; i++ {
		a := &PathAttrs{Origin: uint8(rng.Intn(3)), NextHop: mustA("10.0.0.1")}
		switch i % 5 {
		case 0: // empty path
		case 1:
			a.ASPath = ASPath{seg(SegSet, 1+rng.Intn(4)), seg(SegSequence, rng.Intn(4))}
		case 2:
			a.ASPath = ASPath{seg(SegSequence, 255), seg(SegSet, 2)}
		case 3:
			a.ASPath = ASPath{seg(SegSequence, 254)}
		default:
			for n := 1 + rng.Intn(3); n > 0; n-- {
				a.ASPath = append(a.ASPath, seg(uint8(SegSet+rng.Intn(2)), 1+rng.Intn(5)))
			}
		}
		if rng.Intn(2) == 0 {
			a.MED, a.HasMED = rng.Uint32(), true
		}
		if rng.Intn(2) == 0 {
			a.LocalPref, a.HasLocalPref = rng.Uint32(), true
		}
		for n := rng.Intn(4); n > 0; n-- {
			a.Communities = append(a.Communities, rng.Uint32())
		}
		before := appendAttrKey(nil, a)
		f := FilterEBGPExport(65000, localAddr)
		r := &Route{Net: mustP("10.1.0.0/16"), Attrs: a}
		got, want := f.Apply(r), naiveEBGPExport(a, 65000, localAddr)
		if !got.Equal(want) {
			t.Fatalf("case %d: sharing rewrite %+v, deep-copy reference %+v", i, got, want)
		}
		if again := f.Apply(&Route{Net: mustP("10.2.0.0/16"), Attrs: a}); again != got {
			t.Fatalf("case %d: a second route under the same set got another set", i)
		}
		if after := appendAttrKey(nil, a); !bytes.Equal(before, after) {
			t.Fatalf("case %d: the rewrite changed its input", i)
		}
		if _, err := AppendUpdate(nil, &UpdateMsg{Attrs: got, NLRI: []netip.Prefix{r.Net}}); err != nil {
			t.Fatalf("case %d: rewritten set does not encode: %v", i, err)
		}
	}
}

// FilterDropIfNexthopEquals drops routes whose NEXT_HOP equals addr
// (e.g. our own address: RFC 4271 §9.1.2).
func FilterDropIfNexthopEquals(addr netip.Addr) Filter {
	return FilterFunc(func(r *Route) *PathAttrs {
		if r.Attrs.NextHop == addr {
			return nil
		}
		return r.Attrs
	})
}

func TestFilterDropIfNexthopEquals(t *testing.T) {
	f := FilterDropIfNexthopEquals(mustA("192.168.1.1"))
	own := &Route{Net: mustP("10.1.0.0/16"), Attrs: attrsVia("192.168.1.1", 65001)}
	other := &Route{Net: mustP("10.1.0.0/16"), Attrs: attrsVia("10.0.0.1", 65001)}
	if f.Apply(own) != nil {
		t.Fatal("route via our own address not dropped")
	}
	if f.Apply(other) == nil {
		t.Fatal("innocent route dropped")
	}
}

// TestExportBankJudgesWithdrawals: an export bank of [a judge dropping one
// nexthop, FilterEBGPExport] into a group. A withdrawal is judged and not
// rewritten: of the routes announced, the withdrawals of those the judge
// dropped are not sent and those of the routes it passed are, and the
// transform's rewrite is called for neither (it saw another set last), nor
// for a Replace's old side.
func TestExportBankJudgesWithdrawals(t *testing.T) {
	export := FilterEBGPExport(65000, mustA("192.0.2.1")).(*rewriter)
	rewrite, rewrites := export.rewrite, 0
	export.rewrite = func(in *PathAttrs) *PathAttrs { rewrites++; return rewrite(in) }
	bank := NewFilterBank("out-filter(group:rs)", FilterDropIfNexthopEquals(mustA("10.0.0.1")), export)
	g := NewGroupOut("rs")
	Plumb(bank, g)
	sent := 0
	if err := g.AddMember(testPeer("m", "10.0.1.1", 65010, false), GroupSenderFunc(func([]byte) { sent++ })); err != nil {
		t.Fatal(err)
	}
	src := testPeer("src", "10.0.0.9", 65009, false)
	run := func(second byte, nh string) []Route {
		attrs := attrsVia(nh, 65009)
		var run []Route
		for i := 0; i < 4; i++ {
			net := netip.PrefixFrom(netip.AddrFrom4([4]byte{20, second, byte(i), 0}), 24)
			run = append(run, Route{Net: net, Attrs: attrs, Src: src, Resolvable: true})
		}
		return run
	}
	dropped, passed, other := run(1, "10.0.0.1"), run(2, "10.0.0.2"), run(3, "10.0.0.3")
	bank.Add(dropped)
	bank.Add(passed)
	bank.Add(other)
	if sent != 2 || rewrites != 2 || g.AnnouncedCount() != 8 {
		t.Fatalf("announcing: %d UPDATEs sent, %d rewrites, %d routes announced; want 2, 2 and 8", sent, rewrites, g.AnnouncedCount())
	}
	sent, rewrites = 0, 0
	if bank.Delete(dropped); sent != 0 {
		t.Fatalf("withdrawing the dropped routes sent %d UPDATEs, want none", sent)
	}
	if bank.Delete(passed); sent != 1 || g.AnnouncedCount() != 4 {
		t.Fatalf("withdrawing the passed routes sent %d UPDATEs and leaves %d announced, want 1 and 4", sent, g.AnnouncedCount())
	}
	if rewrites != 0 {
		t.Fatalf("the withdrawals called the rewrite %d times, want 0", rewrites)
	}
	bank.Add(passed[:1]) // the rewrite sees passed's set last
	rewrites = 0
	next := other[0]
	next.Attrs = passed[0].Attrs
	bank.Replace(other[0], next)
	if rewrites != 0 {
		t.Fatalf("a Replace under the set the rewrite saw last called it %d times for its old side, want 0", rewrites)
	}
}

func TestPeerOutResyncAfterSessionBounce(t *testing.T) {
	// A group of one replays the table across sessions, so a
	// re-established peer receives a full resync.
	peer := testPeer("p", "10.0.0.9", 65009, false)
	po, sent := groupOfOne(t, peer)
	up := newUpstream()
	up.branch(peer, nil, po)
	src := testPeer("src", "10.0.0.1", 65001, false)
	for i := 0; i < 5; i++ {
		up.announce([]Route{{
			Net:   netip.PrefixFrom(netip.AddrFrom4([4]byte{10, byte(i), 0, 0}), 16),
			Attrs: attrsVia("10.0.0.1", 65001),
			Src:   src,
		}})
	}
	if po.AnnouncedCount() != 5 {
		t.Fatalf("announced %d", po.AnnouncedCount())
	}
	// Session bounce: replay.
	*sent = nil
	po.ResyncMember(peer)
	replayed := 0
	for _, m := range *sent {
		replayed += len(m.NLRI)
	}
	if replayed != 5 {
		t.Fatalf("resync replayed %d routes", replayed)
	}
	walked := 0
	po.WalkAnnounced(peer, func(Route) bool {
		walked++
		return true
	})
	if walked != 5 {
		t.Fatalf("walk visited %d routes", walked)
	}
	// Early-terminating walk.
	n := 0
	po.WalkAnnounced(peer, func(Route) bool {
		n++
		return false
	})
	if n != 1 {
		t.Fatalf("walk did not stop early (n=%d)", n)
	}
}

func TestFanoutRemoveBranchStopsDelivery(t *testing.T) {
	loop := eventloop.New(eventloop.NewSimClock(time.Unix(0, 0)))
	f := NewFanout("fanout", loop)
	s := newSink("out")
	f.AddPeerBranch("p", testPeer("p", "10.0.0.9", 65009, false), s)
	f.Add([]Route{{Net: mustP("10.1.0.0/16"), Attrs: attrsVia("10.0.0.1", 65001)}})
	loop.RunPending()
	if s.adds != 1 {
		t.Fatalf("adds %d", s.adds)
	}
	f.RemoveBranch("p")
	f.Add([]Route{{Net: mustP("10.2.0.0/16"), Attrs: attrsVia("10.0.0.1", 65001)}})
	loop.RunPending()
	if s.adds != 1 {
		t.Fatal("removed branch still received routes")
	}
	if f.QueueLen() != 0 {
		t.Fatalf("queue %d with no branches", f.QueueLen())
	}
	// Backlog of an unknown branch is 0, and SetBusy is a no-op.
	if f.Backlog("ghost") != 0 {
		t.Fatal("ghost branch has backlog")
	}
	f.SetBusy("ghost", true)
}

func TestRouteBetterTiebreaks(t *testing.T) {
	// Walk the decision ordering tier by tier.
	mk := func(mod func(*Route)) *Route {
		r := &Route{
			Net:        mustP("10.0.0.0/8"),
			Attrs:      attrsVia("10.0.0.1", 65001, 65002),
			Src:        testPeer("a", "10.0.0.1", 65001, false),
			Resolvable: true,
		}
		mod(r)
		return r
	}
	base := mk(func(*Route) {})

	unres := mk(func(r *Route) { r.Resolvable = false })
	if !base.Better(unres) || unres.Better(base) {
		t.Fatal("resolvable must beat unresolvable")
	}
	lp := mk(func(r *Route) {
		r.Attrs = r.Attrs.Clone()
		r.Attrs.HasLocalPref, r.Attrs.LocalPref = true, 300
	})
	if !lp.Better(base) {
		t.Fatal("higher LOCAL_PREF must win")
	}
	short := mk(func(r *Route) {
		r.Attrs = r.Attrs.Clone()
		r.Attrs.ASPath = ASPath{{Type: SegSequence, ASes: []uint16{65001}}}
	})
	if !short.Better(base) {
		t.Fatal("shorter AS path must win")
	}
	med := mk(func(r *Route) {
		r.Attrs = r.Attrs.Clone()
		r.Attrs.HasMED, r.Attrs.MED = true, 10
	})
	if med.Better(base) {
		t.Fatal("MED 10 must lose to missing MED (treated as 0) from the same neighbor AS")
	}
	ibgp := mk(func(r *Route) { r.Src = testPeer("i", "10.0.0.2", 65001, true) })
	if !base.Better(ibgp) {
		t.Fatal("EBGP must beat IBGP")
	}
	igp := mk(func(r *Route) { r.IGPMetric = 100 })
	if igp.Better(base) || !base.Better(igp) {
		t.Fatal("lower IGP metric must win")
	}
	// Final tiebreak: lower BGP ID.
	lowID := mk(func(r *Route) {
		r.Src = &PeerHandle{Name: "low", Addr: mustA("10.0.0.3"), AS: 65001, BGPID: mustA("1.1.1.1")}
	})
	highID := mk(func(r *Route) {
		r.Src = &PeerHandle{Name: "high", Addr: mustA("10.0.0.4"), AS: 65001, BGPID: mustA("9.9.9.9")}
	})
	if !lowID.Better(highID) || highID.Better(lowID) {
		t.Fatal("lower BGP ID must win the final tiebreak")
	}
	// Nil handling.
	if !base.Better(nil) || (*Route)(nil).Better(base) {
		t.Fatal("nil comparisons broken")
	}
}
