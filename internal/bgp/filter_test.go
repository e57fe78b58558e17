package bgp

import (
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
	out := f(in)
	if out == nil {
		t.Fatal("export filter dropped the route")
	}
	if !out.Attrs.ASPath.Contains(65000) || out.Attrs.ASPath.Length() != 2 {
		t.Fatalf("AS path %v, want local AS prepended", out.Attrs.ASPath)
	}
	if out.Attrs.NextHop != mustA("192.168.1.1") {
		t.Fatalf("nexthop %v, want rewritten to local address", out.Attrs.NextHop)
	}
	if out.Attrs.HasLocalPref {
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
	out := f(in)
	if !out.Attrs.HasLocalPref || out.Attrs.LocalPref != 100 {
		t.Fatalf("LOCAL_PREF default not applied: %+v", out.Attrs)
	}
	// Already-set LOCAL_PREF passes through unchanged, same object.
	in2 := in.Clone()
	in2.Attrs = in.Attrs.Clone()
	in2.Attrs.HasLocalPref, in2.Attrs.LocalPref = true, 300
	if got := f(in2); got != in2 {
		t.Fatal("already-set LOCAL_PREF route was copied")
	}
}

func TestFilterDropIfNexthopEquals(t *testing.T) {
	f := FilterDropIfNexthopEquals(mustA("192.168.1.1"))
	own := &Route{Net: mustP("10.1.0.0/16"), Attrs: attrsVia("192.168.1.1", 65001)}
	other := &Route{Net: mustP("10.1.0.0/16"), Attrs: attrsVia("10.0.0.1", 65001)}
	if f(own) != nil {
		t.Fatal("route via our own address not dropped")
	}
	if f(other) == nil {
		t.Fatal("innocent route dropped")
	}
}

func TestPeerOutResyncAfterSessionBounce(t *testing.T) {
	// A group of one retains the announced table across sessions so a
	// re-established peer receives a full resync.
	peer := testPeer("p", "10.0.0.9", 65009, false)
	po, sent := groupOfOne(t, peer)
	for i := 0; i < 5; i++ {
		po.Add([]*Route{{
			Net:   netip.PrefixFrom(netip.AddrFrom4([4]byte{10, byte(i), 0, 0}), 16),
			Attrs: attrsVia("10.0.0.1", 65001),
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
	po.WalkAnnounced(peer, func(r *Route) bool {
		walked++
		return true
	})
	if walked != 5 {
		t.Fatalf("walk visited %d routes", walked)
	}
	// Early-terminating walk.
	n := 0
	po.WalkAnnounced(peer, func(*Route) bool {
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
	r := &Route{Net: mustP("10.1.0.0/16"), Attrs: attrsVia("10.0.0.1", 65001)}
	f.Add([]*Route{r})
	loop.RunPending()
	if s.adds != 1 {
		t.Fatalf("adds %d", s.adds)
	}
	f.RemoveBranch("p")
	f.Add([]*Route{{Net: mustP("10.2.0.0/16"), Attrs: attrsVia("10.0.0.1", 65001)}})
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
