package bgp

import (
	"fmt"
	"math/rand"
	"net/netip"
	"slices"
	"testing"
	"time"

	"xorp/internal/core"
	"xorp/internal/eventloop"
	"xorp/internal/telemetry"
)

// pipeline builds peerin → [damping?] → filter → resolver for one peer,
// all feeding a shared decision; a cache stage guards the sink.
type testRouter struct {
	loop     *eventloop.Loop
	decision *Decision
	fanout   *Fanout
	cache    *core.CacheStage[Route]
	sink     *sink
	peers    map[string]*testBranch
	pool     *AttrPool
	localAS  uint16
}

type testBranch struct {
	peer     *PeerHandle
	peerin   *PeerIn
	filter   *FilterBank
	resolver *NexthopResolver
}

func newTestRouter(t *testing.T, localAS uint16) *testRouter {
	loop := eventloop.New(eventloop.NewSimClock(time.Unix(0, 0)))
	tr := &testRouter{
		loop:     loop,
		decision: NewDecision("decision"),
		fanout:   NewFanout("fanout", loop),
		cache:    core.NewCacheStage[Route]("cache", new(telemetry.Counter)),
		sink:     newSink("sink"),
		peers:    make(map[string]*testBranch),
		pool:     NewAttrPool(),
		localAS:  localAS,
	}
	Plumb(tr.decision, tr.fanout)
	tr.cache.Panic = true
	tr.sink.belowDecision = true
	Plumb(tr.cache, tr.sink)
	// The "RIB branch" of the fanout goes through the consistency cache.
	tr.fanout.AddGroupBranch("rib", tr.cache)
	return tr
}

func (tr *testRouter) addPeer(t *testing.T, name, addr string, as uint16) *testBranch {
	ibgp := as == tr.localAS
	b := &testBranch{peer: testPeer(name, addr, as, ibgp)}
	b.peerin = NewPeerIn(tr.loop, b.peer, tr.pool)
	b.filter = NewFilterBank("in-filter(" + name + ")")
	b.resolver = NewNexthopResolver("nexthop("+name+")", &StaticMetricSource{})
	Plumb(b.peerin, b.filter, b.resolver)
	tr.decision.AddParent(b.resolver)
	tr.peers[name] = b
	return b
}

// settle runs pending loop work (fanout pumps etc).
func (tr *testRouter) settle() { tr.loop.RunPending() }

func TestSinglePeerAddReachesSink(t *testing.T) {
	tr := newTestRouter(t, 65000)
	p1 := tr.addPeer(t, "p1", "10.0.0.1", 65001)
	p1.peerin.Announce(mustP("10.1.0.0/16"), attrsVia("10.0.0.1", 65001))
	tr.settle()
	r := lookup(tr.sink, mustP("10.1.0.0/16"))
	if r == nil {
		t.Fatal("route did not reach the sink")
	}
	if !r.Resolvable {
		t.Fatal("route not annotated resolvable")
	}
	if r.Src.Name != "p1" {
		t.Fatalf("winner from %v", r.Src)
	}
	if tr.sink.adds != 1 {
		t.Fatalf("sink saw %d adds", tr.sink.adds)
	}
}

// TestCacheStageCountsViolations: each operation that breaks a §5.1 rule
// counts once, and a clean stream counts nothing.
func TestCacheStageCountsViolations(t *testing.T) {
	var violations telemetry.Counter
	c := core.NewCacheStage[Route]("cache", &violations)
	r := Route{Net: mustP("10.1.0.0/16"), Attrs: attrsVia("10.0.0.1", 65001)}
	c.Add([]Route{r})
	c.Replace(r, r)
	c.Delete([]Route{r})
	if n := violations.Value(); n != 0 {
		t.Fatalf("clean stream counted %d violations", n)
	}
	const n = 7
	for i := 0; i < n; i++ {
		switch i % 3 {
		case 0:
			c.Delete([]Route{r}) // never added
		case 1:
			c.Replace(r, r) // never added
		case 2:
			c.Add([]Route{r, r}) // the second is an add for a prefix present
			c.Delete([]Route{r})
		}
	}
	if got := violations.Value(); got != n {
		t.Fatalf("%d rule-breaking operations counted %d", n, got)
	}
}

func TestDecisionPrefersShorterASPath(t *testing.T) {
	tr := newTestRouter(t, 65000)
	p1 := tr.addPeer(t, "p1", "10.0.0.1", 65001)
	p2 := tr.addPeer(t, "p2", "10.0.0.2", 65002)
	net := mustP("10.1.0.0/16")

	p1.peerin.Announce(net, attrsVia("10.0.0.1", 65001, 65009, 65010))
	tr.settle()
	p2.peerin.Announce(net, attrsVia("10.0.0.2", 65002, 65010))
	tr.settle()

	r := lookup(tr.sink, net)
	if r == nil || r.Src.Name != "p2" {
		t.Fatalf("winner = %v, want p2 (shorter path)", r)
	}
	if tr.sink.adds != 1 || tr.sink.replaces != 1 {
		t.Fatalf("adds=%d replaces=%d, want 1/1", tr.sink.adds, tr.sink.replaces)
	}

	// Announcing a longer path from p2 flips the winner back to p1.
	p2.peerin.Announce(net, attrsVia("10.0.0.2", 65002, 65010, 65011, 65012))
	tr.settle()
	r = lookup(tr.sink, net)
	if r == nil || r.Src.Name != "p1" {
		t.Fatalf("winner after worsening = %v, want p1", r)
	}
}

func TestDecisionLocalPrefDominates(t *testing.T) {
	tr := newTestRouter(t, 65000)
	p1 := tr.addPeer(t, "p1", "10.0.0.1", 65000) // IBGP so LOCAL_PREF applies
	p2 := tr.addPeer(t, "p2", "10.0.0.2", 65000)
	net := mustP("10.1.0.0/16")

	a1 := attrsVia("10.0.0.1", 65001, 65002, 65003)
	a1.HasLocalPref, a1.LocalPref = true, 300
	a2 := attrsVia("10.0.0.2", 65002)
	a2.HasLocalPref, a2.LocalPref = true, 100

	p1.peerin.Announce(net, a1)
	p2.peerin.Announce(net, a2)
	tr.settle()
	r := lookup(tr.sink, net)
	if r == nil || r.Src.Name != "p1" {
		t.Fatalf("winner = %v, want p1 (higher LOCAL_PREF beats shorter path)", r)
	}
}

func TestWithdrawFailsOverToAlternative(t *testing.T) {
	tr := newTestRouter(t, 65000)
	p1 := tr.addPeer(t, "p1", "10.0.0.1", 65001)
	p2 := tr.addPeer(t, "p2", "10.0.0.2", 65002)
	net := mustP("10.1.0.0/16")

	p1.peerin.Announce(net, attrsVia("10.0.0.1", 65001))
	p2.peerin.Announce(net, attrsVia("10.0.0.2", 65002, 65003))
	tr.settle()
	if r := lookup(tr.sink, net); r == nil || r.Src.Name != "p1" {
		t.Fatalf("initial winner %v", r)
	}
	p1.peerin.Withdraw(net)
	tr.settle()
	if r := lookup(tr.sink, net); r == nil || r.Src.Name != "p2" {
		t.Fatalf("failover winner %v, want p2", r)
	}
	p2.peerin.Withdraw(net)
	tr.settle()
	if r := lookup(tr.sink, net); r != nil {
		t.Fatalf("route still present after both withdrawals: %v", r)
	}
	if tr.sink.deletes != 1 {
		t.Fatalf("deletes = %d, want 1", tr.sink.deletes)
	}
}

func TestLosingRouteChangesAreSilent(t *testing.T) {
	tr := newTestRouter(t, 65000)
	p1 := tr.addPeer(t, "p1", "10.0.0.1", 65001)
	p2 := tr.addPeer(t, "p2", "10.0.0.2", 65002)
	net := mustP("10.1.0.0/16")

	p1.peerin.Announce(net, attrsVia("10.0.0.1", 65001))
	p2.peerin.Announce(net, attrsVia("10.0.0.2", 65002, 65003))
	tr.settle()
	adds, reps, dels := tr.sink.adds, tr.sink.replaces, tr.sink.deletes

	// The loser flaps its attributes; downstream must hear nothing.
	p2.peerin.Announce(net, attrsVia("10.0.0.2", 65002, 65004))
	p2.peerin.Withdraw(net)
	p2.peerin.Announce(net, attrsVia("10.0.0.2", 65002, 65005))
	tr.settle()
	if tr.sink.adds != adds || tr.sink.replaces != reps || tr.sink.deletes != dels {
		t.Fatalf("loser churn leaked downstream: %d/%d/%d -> %d/%d/%d",
			adds, reps, dels, tr.sink.adds, tr.sink.replaces, tr.sink.deletes)
	}
}

func TestPeerDownDeletionStage(t *testing.T) {
	tr := newTestRouter(t, 65000)
	p1 := tr.addPeer(t, "p1", "10.0.0.1", 65001)
	const n = 500
	for i := 0; i < n; i++ {
		net := netip.PrefixFrom(netip.AddrFrom4([4]byte{10, byte(i >> 8), byte(i), 0}), 24)
		p1.peerin.Announce(net, attrsVia("10.0.0.1", 65001))
	}
	tr.settle()
	if tr.sink.adds != n {
		t.Fatalf("sink saw %d adds", tr.sink.adds)
	}

	d := p1.peerin.PeerDown()
	if d == nil {
		t.Fatal("no deletion stage created")
	}
	if p1.peerin.Len() != 0 {
		t.Fatal("PeerIn table not emptied by handoff")
	}
	// Background deletion drains in slices; the event loop must interleave.
	tr.settle()
	if !d.Done() {
		t.Fatal("deletion stage not drained")
	}
	if tr.sink.deletes != n {
		t.Fatalf("sink saw %d deletes, want %d", tr.sink.deletes, n)
	}
	if got := len(tr.sink.tbl); got != 0 {
		t.Fatalf("%d routes left in sink", got)
	}
}

// TestDeletionSliceBounds: a slice of a deletion stage among other peers'
// routes deletes at most deletionBatch of its own and steps through at most
// deletionBatch*skipSpan entries, a deletion counting skipSpan. q0's 3,000
// routes sort before q1's 200, so the first two slices step over q0's
// alone and delete nothing, and a slice inside q1's deletes a full batch.
func TestDeletionSliceBounds(t *testing.T) {
	tr := newTestRouter(t, 65000)
	ps := addPeers(tr, 2)
	feedPeer(tr, ps[0], 0, 3000)
	feedPeer(tr, ps[1], 1, 200)
	d := ps[1].peerin.PeerDown()
	var deleted []int
	for !d.Done() {
		before := d.Len()
		d.step()
		deleted = append(deleted, before-d.Len())
	}
	tr.settle()
	// Steps over 1,024, 1,024, then 952 of q0's entries and deletes 5 of
	// q1's (the budget is checked before each entry), then 64, 64, 64 and
	// the last 3.
	if want := []int{0, 0, 5, 64, 64, 64, 3}; !slices.Equal(deleted, want) {
		t.Fatalf("routes deleted per slice %v, want %v", deleted, want)
	}
	if len(tr.sink.tbl) != 3000 {
		t.Fatalf("%d routes left downstream, want q0's 3000", len(tr.sink.tbl))
	}
}

// deadDeletes passes everything through and counts, per prefix, the
// routes carrying dead's attributes that go downstream: deleted, or
// replaced by a fresh route.
type deadDeletes struct {
	core.Base[Route]
	dead *PathAttrs
	n    map[netip.Prefix]int
}

func (c *deadDeletes) Add(run []Route) { c.Next().Add(run) }
func (c *deadDeletes) Replace(old, new Route) {
	if old.Attrs.Equal(c.dead) {
		c.n[old.Net]++
	}
	c.Next().Replace(old, new)
}
func (c *deadDeletes) Delete(run []Route) {
	for _, r := range run {
		if r.Attrs.Equal(c.dead) {
			c.n[r.Net]++
		}
	}
	c.Next().Delete(run)
}
func (c *deadDeletes) Lookup(net netip.Prefix, r *Route) bool { return c.LookupParent(net, r) }

// TestDeletionCursorSurvivesChurn steps a deletion stage one slice at a
// time through a dead peering's 2,000 routes, which share the RIB-in with
// three other holders, and changes the table between slices around the
// cursor, the last prefix a slice visited: the revived peering announces
// and withdraws the prefix at the cursor, q1 announces prefixes behind and
// ahead of it, and q2 withdraws routes of its own on both sides. q0 holds
// a tenth of the dead routes' prefixes too. The cursor must neither skip
// an entry when it resumes nor visit one twice: every dead route goes
// downstream exactly once, nothing of another holder's is touched, and the
// pool's references are the routes the RIB-in still holds.
func TestDeletionCursorSurvivesChurn(t *testing.T) {
	tr := newTestRouter(t, 65000)
	p := tr.addPeer(t, "p", "10.0.0.1", 65001)
	qs := addPeers(tr, 3)
	net := func(j int) netip.Prefix {
		return netip.PrefixFrom(netip.AddrFrom4([4]byte{10, byte(j >> 8), byte(j), 0}), 24)
	}
	idx := func(n netip.Prefix) int { a := n.Addr().As4(); return int(a[1])<<8 | int(a[2]) }
	announce := func(b *testBranch, attrs *PathAttrs, js ...int) {
		u := &UpdateMsg{Attrs: attrs}
		for _, j := range js {
			u.NLRI = append(u.NLRI, net(j))
		}
		b.peerin.ReceiveUpdate(u, tr.localAS)
	}
	withdraw := func(b *testBranch, j int) {
		b.peerin.ReceiveUpdate(&UpdateMsg{Withdrawn: []netip.Prefix{net(j)}}, tr.localAS)
	}
	via := func(b *testBranch, ases ...uint16) *PathAttrs { return attrsVia(b.peer.Addr.String(), ases...) }

	// p holds the even indices below 4,000; q0 every fifth of those; q2
	// the odd multiples of three. q1 takes the other odd ones as it goes.
	const n = 2000
	dead := via(p, 65001, 65100)
	held := [3]map[int]bool{{}, {}, {}}
	var deadJs []int
	for j := 0; j < 2*n; j++ {
		switch {
		case j%2 == 0:
			deadJs = append(deadJs, j)
			if j%10 == 0 {
				held[0][j] = true
			}
		case j%3 == 0:
			held[2][j] = true
		}
	}
	announce(p, dead, deadJs...)
	for i, h := range held {
		for j := range h {
			announce(qs[i], via(qs[i], qs[i].peer.AS), j)
		}
	}
	tr.settle()

	rec := &deadDeletes{Base: newBase("dead-deletes"), dead: dead, n: map[netip.Prefix]int{}}
	core.Splice[Route](p.peerin, rec)
	d := p.peerin.PeerDown()
	if d == nil || d.Len() != n {
		t.Fatalf("deletion stage holds %v routes, want %d", d, n)
	}
	// free returns the nearest index from j on, stepping by dir, that no
	// holder has taken and q1 may: odd, not a multiple of three.
	free := func(j, dir int) (int, bool) {
		for ; j >= 0 && j < 2*n; j += dir {
			if j%2 == 1 && j%3 != 0 && !held[1][j] {
				return j, true
			}
		}
		return 0, false
	}
	slicesRun := 0
	for ; !d.Done(); slicesRun++ {
		d.step()
		if !d.last.IsValid() || d.Done() {
			continue
		}
		c := idx(d.last)
		announce(p, via(p, 65001), c)
		withdraw(p, c)
		for _, dir := range []int{-1, 1} {
			if j, ok := free(c+dir*(1+slicesRun%7), dir); ok {
				held[1][j] = true
				announce(qs[1], via(qs[1], qs[1].peer.AS), j)
			}
			for j := c + dir; j >= 0 && j < 2*n; j += dir {
				if held[2][j] {
					delete(held[2], j)
					withdraw(qs[2], j)
					break
				}
			}
		}
	}
	tr.settle()

	if slicesRun < n/deletionBatch {
		t.Fatalf("drained in %d slices, fewer than %d routes allow", slicesRun, n)
	}
	for _, j := range deadJs {
		if got := rec.n[net(j)]; got != 1 {
			t.Errorf("dead route %v went downstream %d times", net(j), got)
		}
	}
	if len(rec.n) != n {
		t.Errorf("dead routes went downstream for %d prefixes, want %d", len(rec.n), n)
	}
	want := 0
	for i, h := range held {
		if got := qs[i].peerin.Len(); got != len(h) {
			t.Errorf("q%d holds %d routes, want %d", i, got, len(h))
		}
		for j := range h {
			r := lookup(tr.sink, net(j))
			if r == nil || r.Src != qs[i].peer {
				t.Fatalf("q%d's %v is not downstream: %v", i, net(j), r)
			}
		}
		want += len(h)
	}
	if len(tr.sink.tbl) != want || p.peerin.Len() != 0 {
		t.Fatalf("%d routes downstream, want the %d the other holders keep; the revived peering holds %d", len(tr.sink.tbl), want, p.peerin.Len())
	}
	if refs, rib := tr.pool.Refs(), p.peerin.rib; refs != rib.n || rib.n != want {
		t.Fatalf("pool holds %d references for the RIB-in's %d routes, want %d", refs, rib.n, want)
	}
}

func TestPeerFlapDuringBackgroundDeletion(t *testing.T) {
	// The §5.1.2 scenario: the peering comes back up and re-announces
	// while the deletion stage is still draining. Downstream must see a
	// consistent stream (the cache stage panics otherwise).
	tr := newTestRouter(t, 65000)
	p1 := tr.addPeer(t, "p1", "10.0.0.1", 65001)
	var nets []netip.Prefix
	for i := 0; i < 300; i++ {
		net := netip.PrefixFrom(netip.AddrFrom4([4]byte{10, byte(i >> 8), byte(i), 0}), 24)
		nets = append(nets, net)
		p1.peerin.Announce(net, attrsVia("10.0.0.1", 65001))
	}
	tr.settle()

	d1 := p1.peerin.PeerDown()
	// Without running the background task, the peer comes straight back
	// and re-announces half the table with new attributes.
	for i := 0; i < 150; i++ {
		p1.peerin.Announce(nets[i], attrsVia("10.0.0.1", 65001, 65009))
	}
	tr.settle()
	if !d1.Done() {
		// The deletion stage may still hold the other 150.
		tr.settle()
	}
	// Drain everything.
	for i := 0; i < 100 && !d1.Done(); i++ {
		tr.settle()
	}
	if !d1.Done() {
		t.Fatal("deletion stage never drained")
	}
	// The 150 re-announced stay; the other 150 are gone.
	live := 0
	for _, net := range nets {
		if lookup(tr.sink, net) != nil {
			live++
		}
	}
	if live != 150 {
		t.Fatalf("%d live routes, want 150", live)
	}
}

func TestRapidFlapStacksDeletionStages(t *testing.T) {
	tr := newTestRouter(t, 65000)
	p1 := tr.addPeer(t, "p1", "10.0.0.1", 65001)
	mk := func(tag byte) {
		for i := 0; i < 100; i++ {
			net := netip.PrefixFrom(netip.AddrFrom4([4]byte{10, tag, byte(i), 0}), 24)
			p1.peerin.Announce(net, attrsVia("10.0.0.1", 65001))
		}
	}
	mk(1)
	tr.settle()
	d1 := p1.peerin.PeerDown()
	mk(2) // different prefixes this incarnation
	d2 := p1.peerin.PeerDown()
	if d1 == nil || d2 == nil {
		t.Fatal("expected two deletion stages")
	}
	mk(3)
	tr.settle()
	for i := 0; i < 100 && !(d1.Done() && d2.Done()); i++ {
		tr.settle()
	}
	if !d1.Done() || !d2.Done() {
		t.Fatal("stacked deletion stages did not drain")
	}
	// Only incarnation 3 remains.
	if len(tr.sink.tbl) != 100 {
		t.Fatalf("%d routes live, want 100", len(tr.sink.tbl))
	}
}

func TestFilterBankDropAndModify(t *testing.T) {
	tr := newTestRouter(t, 65000)
	p1 := tr.addPeer(t, "p1", "10.0.0.1", 65001)
	// Drop everything in 10.66.0.0/16; add MED 99 to everything else.
	drop := mustP("10.66.0.0/16")
	p1.filter.filters = []Filter{
		FilterFunc(func(r *Route) *PathAttrs {
			if drop.Contains(r.Net.Addr()) {
				return nil
			}
			return r.Attrs
		}),
		FilterFunc(func(r *Route) *PathAttrs {
			a := r.Attrs.Clone()
			a.MED, a.HasMED = 99, true
			return a
		}),
	}
	p1.peerin.Announce(mustP("10.66.1.0/24"), attrsVia("10.0.0.1", 65001))
	p1.peerin.Announce(mustP("10.70.1.0/24"), attrsVia("10.0.0.1", 65001))
	tr.settle()
	if lookup(tr.sink, mustP("10.66.1.0/24")) != nil {
		t.Fatal("filtered route leaked")
	}
	r := lookup(tr.sink, mustP("10.70.1.0/24"))
	if r == nil || !r.Attrs.HasMED || r.Attrs.MED != 99 {
		t.Fatalf("modified route = %+v", r)
	}
	// Withdraw passes the filter consistently.
	p1.peerin.Withdraw(mustP("10.70.1.0/24"))
	p1.peerin.Withdraw(mustP("10.66.1.0/24"))
	tr.settle()
	if len(tr.sink.tbl) != 0 {
		t.Fatal("withdrawals inconsistent through filters")
	}
}

func TestNexthopResolverQueuesUntilAnswer(t *testing.T) {
	tr := newTestRouter(t, 65000)
	p1 := tr.addPeer(t, "p1", "10.0.0.1", 65001)
	fake := &fakeMetricSource{}
	p1.resolver.src = fake // swap in a manual source

	p1.peerin.Announce(mustP("10.1.0.0/16"), attrsVia("10.0.0.1", 65001))
	tr.settle()
	if got := lookup(tr.sink, mustP("10.1.0.0/16")); got != nil {
		t.Fatal("route passed decision before nexthop resolved")
	}
	if p1.resolver.PendingOps() != 1 {
		t.Fatalf("pending ops %d", p1.resolver.PendingOps())
	}
	fake.answer(mustA("10.0.0.1"), NexthopInfo{Resolvable: true, Metric: 10, Covering: mustP("10.0.0.0/24")})
	tr.settle()
	r := lookup(tr.sink, mustP("10.1.0.0/16"))
	if r == nil || r.IGPMetric != 10 {
		t.Fatalf("resolved route %+v", r)
	}
}

// TestDecisionAsksQueuedBranch: a branch answers for a prefix its PeerIn has
// dropped while the withdrawal waits in the resolver behind an op whose
// nexthop is unresolved. The decision must still ask it, or it takes
// another peer's route for the first one and the cache panics on an add
// for a prefix already present; and a replay must still visit the prefix.
func TestDecisionAsksQueuedBranch(t *testing.T) {
	tr := newTestRouter(t, 65000)
	p1 := tr.addPeer(t, "p1", "10.0.0.1", 65001)
	p2 := tr.addPeer(t, "p2", "10.0.0.2", 65002)
	fake := &fakeMetricSource{}
	p2.resolver.src = fake
	net := mustP("10.1.0.0/16")
	resolved := NexthopInfo{Resolvable: true, Metric: 10, Covering: mustP("10.0.0.0/24")}
	g, member := NewGroupOut("rs"), testPeer("m", "10.0.0.3", 65003, false)
	bank := NewFilterBank("out-filter(group:rs)")
	Plumb(bank, g)
	tr.fanout.AddGroupBranch("group:rs", bank)
	if err := g.AddMember(member, GroupSenderFunc(func([]byte) {})); err != nil {
		t.Fatal(err)
	}

	p2.peerin.Announce(net, attrsVia("10.0.0.2", 65002))
	fake.answer(mustA("10.0.0.2"), resolved)
	fake.auto = false
	p2.peerin.Announce(net, attrsVia("10.0.0.99", 65002))
	p2.peerin.Withdraw(net)
	tr.settle()
	if p2.peerin.Len() != 0 || p2.resolver.PendingOps() != 2 {
		t.Fatalf("p2 stores %d routes with %d ops queued, want 0 and 2", p2.peerin.Len(), p2.resolver.PendingOps())
	}
	// A replay carries the route too: the group sent it, though the RIB-in
	// no longer holds the prefix.
	var replayed []Route
	g.WalkAnnounced(member, func(r Route) bool {
		replayed = append(replayed, r)
		return true
	})
	if len(replayed) != 1 || replayed[0].Src != p2.peer || replayed[0].Attrs.NextHop != mustA("10.0.0.2") {
		t.Fatalf("replay %+v, want p2's route via 10.0.0.2", replayed)
	}

	p1.peerin.Announce(net, attrsVia("10.0.0.1", 65001, 65009, 65010))
	tr.settle()
	if r := lookup(tr.sink, net); r == nil || r.Src != p2.peer || r.Attrs.NextHop != mustA("10.0.0.2") {
		t.Fatalf("winner %+v, want p2's route via 10.0.0.2, which downstream still holds", r)
	}

	fake.answer(mustA("10.0.0.99"), resolved)
	tr.settle()
	if r := lookup(tr.sink, net); r == nil || r.Src != p1.peer {
		t.Fatalf("winner after p2's queue drained %+v, want p1's", r)
	}
}

func TestNexthopInvalidationSwingsDecision(t *testing.T) {
	// Two peers, equal routes except IGP metric. When RIP changes the
	// metric to p1's nexthop, the decision must flip — the paper's
	// "RIP route change must immediately notify BGP" scenario (§4).
	tr := newTestRouter(t, 65000)
	p1 := tr.addPeer(t, "p1", "10.0.0.1", 65001)
	p2 := tr.addPeer(t, "p2", "10.0.0.2", 65001)
	f1 := &fakeMetricSource{}
	f2 := &fakeMetricSource{}
	p1.resolver.src = f1
	f1.watch = p1.resolver.invalidate
	p2.resolver.src = f2

	net := mustP("10.9.0.0/16")
	p1.peerin.Announce(net, attrsVia("10.0.0.1", 65001))
	p2.peerin.Announce(net, attrsVia("10.0.0.2", 65001))
	tr.settle()
	f1.answer(mustA("10.0.0.1"), NexthopInfo{Resolvable: true, Metric: 5, Covering: mustP("10.0.0.0/30")})
	f2.answer(mustA("10.0.0.2"), NexthopInfo{Resolvable: true, Metric: 20, Covering: mustP("10.0.0.0/30")})
	tr.settle()
	if r := lookup(tr.sink, net); r == nil || r.Src.Name != "p1" {
		t.Fatalf("initial winner %v, want p1 (metric 5 < 20)", r)
	}

	// IGP metric to p1's nexthop worsens to 50.
	f1.next = NexthopInfo{Resolvable: true, Metric: 50, Covering: mustP("10.0.0.0/30")}
	f1.watch(mustP("10.0.0.0/30"))
	tr.settle()
	if r := lookup(tr.sink, net); r == nil || r.Src.Name != "p2" {
		t.Fatalf("winner after IGP change %v, want p2", r)
	}
}

// fakeMetricSource lets tests control answers and invalidation.
type fakeMetricSource struct {
	pending map[netip.Addr][]func(NexthopInfo)
	watch   func(netip.Prefix)
	next    NexthopInfo // answer for re-queries after invalidation
	auto    bool
}

func (f *fakeMetricSource) LookupNexthop(nh netip.Addr, cb func(NexthopInfo)) {
	if f.auto {
		cb(f.next)
		return
	}
	if f.pending == nil {
		f.pending = make(map[netip.Addr][]func(NexthopInfo))
	}
	f.pending[nh] = append(f.pending[nh], cb)
}

func (f *fakeMetricSource) answer(nh netip.Addr, info NexthopInfo) {
	cbs := f.pending[nh]
	delete(f.pending, nh)
	f.auto = true
	if f.next == (NexthopInfo{}) {
		f.next = info
	}
	for _, cb := range cbs {
		cb(info)
	}
}

func (f *fakeMetricSource) WatchInvalidation(fn func(netip.Prefix)) { f.watch = fn }

func TestFanoutSplitHorizonAndIBGP(t *testing.T) {
	tr := newTestRouter(t, 65000)
	e1 := tr.addPeer(t, "e1", "10.0.0.1", 65001) // EBGP
	i1 := tr.addPeer(t, "i1", "10.0.1.1", 65000) // IBGP
	tr.addPeer(t, "i2", "10.0.1.2", 65000)       // IBGP

	outs := map[string]*sink{}
	for _, name := range []string{"e1", "i1", "i2"} {
		s := newSink("out-" + name)
		outs[name] = s
		tr.fanout.AddPeerBranch(name, tr.peers[name].peer, s)
	}

	net1 := mustP("10.5.0.0/16")
	e1.peerin.Announce(net1, attrsVia("10.0.0.1", 65001))
	tr.settle()
	if lookup(outs["e1"], net1) != nil {
		t.Fatal("split horizon violated: route echoed to originator")
	}
	if lookup(outs["i1"], net1) == nil || lookup(outs["i2"], net1) == nil {
		t.Fatal("EBGP route not fanned out to IBGP peers")
	}

	net2 := mustP("10.6.0.0/16")
	i1.peerin.Announce(net2, attrsVia("10.0.1.1", 65001))
	tr.settle()
	if lookup(outs["i2"], net2) != nil {
		t.Fatal("IBGP route reflected to another IBGP peer")
	}
	if lookup(outs["e1"], net2) == nil {
		t.Fatal("IBGP route not sent to EBGP peer")
	}
}

func TestFanoutSlowPeer(t *testing.T) {
	tr := newTestRouter(t, 65000)
	p1 := tr.addPeer(t, "p1", "10.0.0.1", 65001)
	fast := newSink("fast")
	slow := newSink("slow")
	tr.fanout.AddPeerBranch("fast", testPeer("f", "10.0.2.1", 65002, false), fast)
	tr.fanout.AddPeerBranch("slow", testPeer("s", "10.0.2.2", 65003, false), slow)
	tr.fanout.SetBusy("slow", true)

	for i := 0; i < 200; i++ {
		net := netip.PrefixFrom(netip.AddrFrom4([4]byte{10, 1, byte(i), 0}), 24)
		p1.peerin.Announce(net, attrsVia("10.0.0.1", 65001))
	}
	tr.settle()
	if fast.adds != 200 || slow.adds != 0 {
		t.Fatalf("fast=%d slow=%d", fast.adds, slow.adds)
	}
	if tr.fanout.Backlog("slow") != 200 {
		t.Fatalf("slow backlog %d", tr.fanout.Backlog("slow"))
	}
	tr.fanout.SetBusy("slow", false)
	tr.settle()
	if slow.adds != 200 {
		t.Fatalf("slow saw %d after resume", slow.adds)
	}
	if tr.fanout.QueueLen() != 0 {
		t.Fatalf("fanout queue %d after drain", tr.fanout.QueueLen())
	}
}

// groupOfOne returns a GroupOut with peer as its only member and the
// UPDATEs that member is sent, decoded.
func groupOfOne(t *testing.T, peer *PeerHandle) (*GroupOut, *[]*UpdateMsg) {
	g := NewGroupOut(peer.Name)
	msgs := new([]*UpdateMsg)
	if err := g.AddMember(peer, GroupSenderFunc(func(buf []byte) {
		*msgs = append(*msgs, decodeUpdates(t, buf)...)
	})); err != nil {
		t.Fatal(err)
	}
	return g, msgs
}

func TestPeerOutEmitsUpdates(t *testing.T) {
	po, sent := groupOfOne(t, testPeer("p", "10.0.0.9", 65009, false))
	r1 := Route{Net: mustP("10.1.0.0/16"), Attrs: attrsVia("10.0.0.1", 65001), Src: nil}
	po.Add([]Route{r1})
	r2 := r1
	r2.Attrs = r1.Attrs.Clone()
	r2.Attrs.MED, r2.Attrs.HasMED = 5, true
	po.Replace(r1, r2)
	po.Delete([]Route{r2})
	msgs := *sent
	if len(msgs) != 3 {
		t.Fatalf("%d updates", len(msgs))
	}
	if len(msgs[0].NLRI) != 1 || msgs[0].NLRI[0] != r1.Net {
		t.Fatalf("add update %+v", msgs[0])
	}
	if !msgs[1].Attrs.HasMED {
		t.Fatalf("replace update lost attrs")
	}
	if len(msgs[2].Withdrawn) != 1 {
		t.Fatalf("delete update %+v", msgs[2])
	}
	if po.AnnouncedCount() != 0 {
		t.Fatalf("announced count %d", po.AnnouncedCount())
	}
}

func TestDampingSuppressesFlappingRoute(t *testing.T) {
	clk := eventloop.NewSimClock(time.Unix(0, 0))
	loop := eventloop.New(clk)
	damp := NewDampingStage("damp", loop)
	s := newSink("sink")
	Plumb(damp, s)

	net := mustP("10.1.0.0/16")
	mk := func() Route { return Route{Net: net, Attrs: attrsVia("10.0.0.1", 65001)} }

	damp.Add([]Route{mk()})
	if s.adds != 1 {
		t.Fatal("first announcement suppressed")
	}
	// Flap hard: each delete+add adds 2×1000 penalty; threshold 2000.
	damp.Delete([]Route{mk()})
	damp.Add([]Route{mk()})
	damp.Delete([]Route{mk()})
	damp.Add([]Route{mk()})
	if !damp.Suppressed(net) {
		t.Fatal("flapping route not suppressed")
	}
	if lookup(s, net) != nil {
		t.Fatal("suppressed route still announced downstream")
	}
	if lookup(damp, net) != nil {
		t.Fatal("suppressed route visible via Lookup")
	}

	// After enough half-lives, the reuse timer reannounces — purely
	// event-driven under the simulated clock.
	loop.RunFor(2 * time.Hour)
	if damp.Suppressed(net) {
		t.Fatal("route still suppressed after decay")
	}
	if lookup(s, net) == nil {
		t.Fatal("route not reannounced after reuse")
	}
}

func TestDampingStableRouteUnaffected(t *testing.T) {
	loop := eventloop.New(eventloop.NewSimClock(time.Unix(0, 0)))
	damp := NewDampingStage("damp", loop)
	s := newSink("sink")
	Plumb(damp, s)
	r := Route{Net: mustP("10.1.0.0/16"), Attrs: attrsVia("10.0.0.1", 65001)}
	damp.Add([]Route{r})
	r2 := r
	damp.Replace(r, r2) // one attribute change: below threshold
	if damp.Suppressed(r.Net) {
		t.Fatal("single change suppressed")
	}
	if lookup(s, r.Net) == nil {
		t.Fatal("stable route lost")
	}
}

func TestConsistencyUnderRandomChurn(t *testing.T) {
	// Property-style: random announce/withdraw/flap across 3 peers with
	// the panic-on-violation cache stage downstream. Any violation of the
	// §5.1 consistency rules panics and fails the test.
	for seed := int64(0); seed < 5; seed++ {
		func() {
			defer func() {
				if p := recover(); p != nil {
					t.Fatalf("seed %d: consistency violation: %v", seed, p)
				}
			}()
			r := rand.New(rand.NewSource(seed))
			tr := newTestRouter(t, 65000)
			peers := []*testBranch{
				tr.addPeer(t, "p1", "10.0.0.1", 65001),
				tr.addPeer(t, "p2", "10.0.0.2", 65002),
				tr.addPeer(t, "p3", "10.0.0.3", 65000),
			}
			nets := make([]netip.Prefix, 40)
			for i := range nets {
				nets[i] = netip.PrefixFrom(netip.AddrFrom4([4]byte{10, byte(i), 0, 0}), 16)
			}
			for step := 0; step < 600; step++ {
				p := peers[r.Intn(len(peers))]
				net := nets[r.Intn(len(nets))]
				switch r.Intn(5) {
				case 0, 1, 2:
					nh := fmt.Sprintf("10.0.0.%d", 1+r.Intn(3))
					ases := []uint16{p.peer.AS}
					for k := 0; k < r.Intn(4); k++ {
						ases = append(ases, uint16(65100+r.Intn(20)))
					}
					p.peerin.Announce(net, attrsVia(nh, ases...))
				case 3:
					p.peerin.Withdraw(net)
				case 4:
					if r.Intn(10) == 0 {
						p.peerin.PeerDown()
					}
				}
				if r.Intn(7) == 0 {
					tr.settle()
				}
			}
			for i := 0; i < 200; i++ {
				tr.settle()
			}
			// Final invariant: sink contents equal decision's view.
			for _, net := range nets {
				want := lookup(tr.decision, net)
				got := lookup(tr.sink, net)
				if (want == nil) != (got == nil) {
					t.Fatalf("seed %d: sink/decision disagree on %v: %v vs %v",
						seed, net, got, want)
				}
			}
		}()
	}
}

func TestPipelineIsFamilyGeneric(t *testing.T) {
	// The wire encoding is IPv4 (MP-BGP is out of scope), but the staged
	// pipeline itself — like XORP's templated C++ — handles IPv6 routes
	// end to end when they are injected directly.
	tr := newTestRouter(t, 65000)
	p1 := tr.addPeer(t, "p1", "10.0.0.1", 65001)
	v6net := netip.MustParsePrefix("2001:db8:100::/40")
	attrs := &PathAttrs{
		Origin:  OriginIGP,
		ASPath:  ASPath{{Type: SegSequence, ASes: []uint16{65001}}},
		NextHop: mustA("2001:db8::1"),
	}
	p1.peerin.Announce(v6net, attrs)
	p1.peerin.Announce(mustP("10.1.0.0/16"), attrsVia("10.0.0.1", 65001))
	tr.settle()
	if r := lookup(tr.sink, v6net); r == nil || !r.Resolvable {
		t.Fatalf("v6 route did not traverse the pipeline: %v", r)
	}
	if lookup(tr.sink, mustP("10.1.0.0/16")) == nil {
		t.Fatal("v4 route lost alongside v6")
	}
	// Withdrawal and deletion-stage handling work for v6 too.
	p1.peerin.Withdraw(v6net)
	tr.settle()
	if lookup(tr.sink, v6net) != nil {
		t.Fatal("v6 withdraw lost")
	}
	p1.peerin.Announce(v6net, attrs)
	tr.settle()
	d := p1.peerin.PeerDown()
	for i := 0; i < 50 && !d.Done(); i++ {
		tr.settle()
	}
	if lookup(tr.sink, v6net) != nil {
		t.Fatal("v6 route survived peer down")
	}
}
