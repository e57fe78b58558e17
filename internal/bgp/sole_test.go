package bgp

import (
	"testing"
	"time"

	"xorp/internal/core"
)

// TestStaleSoleMark: peer a's route was a's alone when its PeerIn sent it,
// but it reaches the decision process later, when peer b holds the prefix
// too. The decision must compare the two rather than trust a mark from a
// moment that has passed: taking a's route as the only one, it would add it
// over b's, and the cache stage panics. a's route is held back by its
// resolver (the nexthop is unresolved until b has announced) or by a
// damping stage (the prefix is suppressed until b has announced).
func TestStaleSoleMark(t *testing.T) {
	net := mustP("10.1.0.0/16")
	check := func(t *testing.T, tr *testRouter, a, b *testBranch, release func()) {
		t.Helper()
		b.peerin.Announce(net, attrsVia("10.0.0.2", 65002, 65009))
		tr.settle()
		if r := lookup(tr.sink, net); r == nil || r.Src != b.peer {
			t.Fatalf("winner %+v while a's route is held back, want b's", r)
		}
		release()
		tr.settle()
		if r := lookup(tr.sink, net); r == nil || r.Src != a.peer {
			t.Fatalf("winner %+v once a's route arrives, want a's shorter path", r)
		}
	}
	t.Run("resolver", func(t *testing.T) {
		tr := newTestRouter(t, 65000)
		a := tr.addPeer(t, "a", "10.0.0.1", 65001)
		b := tr.addPeer(t, "b", "10.0.0.2", 65002)
		fake := &fakeMetricSource{}
		a.resolver.src = fake
		a.peerin.Announce(net, attrsVia("10.0.0.1", 65001))
		tr.settle()
		if a.resolver.PendingOps() != 1 {
			t.Fatalf("%d ops queued in a's resolver, want 1", a.resolver.PendingOps())
		}
		check(t, tr, a, b, func() {
			fake.answer(mustA("10.0.0.1"), NexthopInfo{Resolvable: true, Metric: 10, Covering: mustP("10.0.0.0/24")})
		})
	})
	t.Run("damping", func(t *testing.T) {
		tr := newTestRouter(t, 65000)
		a := tr.addPeer(t, "a", "10.0.0.1", 65001)
		b := tr.addPeer(t, "b", "10.0.0.2", 65002)
		damp := NewDampingStage("damping(a)", tr.loop)
		core.Splice[Route](a.peerin, damp)
		for i := 0; i < 2; i++ { // a flaps until suppressed
			a.peerin.Announce(net, attrsVia("10.0.0.1", 65001))
			a.peerin.Withdraw(net)
		}
		a.peerin.Announce(net, attrsVia("10.0.0.1", 65001))
		tr.settle()
		if !damp.Suppressed(net) {
			t.Fatal("a's route is not suppressed")
		}
		check(t, tr, a, b, func() { tr.loop.RunFor(2 * time.Hour) })
	})
}

// TestSoleRouteAsksForeignBranch: a branch rooted at a PeerIn over another
// RIB-in answers for routes the decision's RIB-in knows nothing of, so a
// route that is the only one there is not the only one for its prefix. The
// decision must ask that branch, when the route is announced and when it is
// withdrawn.
func TestSoleRouteAsksForeignBranch(t *testing.T) {
	tr := newTestRouter(t, 65000)
	a := tr.addPeer(t, "a", "10.0.0.1", 65001) // the first: its RIB-in is the decision's
	f := testPeer("f", "10.0.0.2", 65002, false)
	fin := NewPeerIn(tr.loop, f, NewAttrPool())
	fres := NewNexthopResolver("nexthop(f)", &StaticMetricSource{})
	Plumb(fin, fres)
	tr.decision.AddParent(fres)
	net := mustP("10.1.0.0/16")
	winner := func(want *PeerHandle, when string) {
		t.Helper()
		tr.settle()
		if r := lookup(tr.sink, net); r == nil || r.Src != want {
			t.Fatalf("winner %+v %s, want %v's", r, when, want)
		}
	}
	fin.Announce(net, attrsVia("10.0.0.2", 65002, 65009))
	winner(f, "with f's route alone")
	a.peerin.Announce(net, attrsVia("10.0.0.1", 65001))
	winner(a.peer, "once a announces a shorter path")
	a.peerin.Withdraw(net)
	winner(f, "once a withdraws")
}

// TestDecisionRIBInGets counts the RIB-in lookups the decision makes on the
// route-server shape, every route announced and then withdrawn. With each
// client on prefixes of its own it makes none:
// every route is the only one for its prefix, and the PeerIn said so. With
// two clients on the same prefixes it makes one per route announced or
// withdrawn while the other holds the prefix, and none for the rest.
func TestDecisionRIBInGets(t *testing.T) {
	const routesEach = 256
	for _, tc := range []struct {
		name    string
		clients int
		shared  bool
		want    int
	}{
		{"disjoint", 32, false, 0},
		{"two holders", 2, true, 2 * routesEach},
	} {
		rs := newRouteServer(tc.clients, nil)
		rs.announce(routesEach, tc.shared, false)
		rs.announce(routesEach, tc.shared, true)
		if rs.group.AnnouncedCount() != 0 {
			t.Fatalf("%s: %d routes left announced", tc.name, rs.group.AnnouncedCount())
		}
		t.Logf("%s: %d RIB-in lookups for %d routes announced and withdrawn", tc.name, rs.dec.gets, tc.clients*routesEach)
		if rs.dec.gets != tc.want {
			t.Errorf("%s: %d RIB-in lookups, want %d", tc.name, rs.dec.gets, tc.want)
		}
	}
}
