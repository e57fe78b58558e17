package bgp

import (
	"fmt"
	"net/netip"
	"reflect"
	"runtime"
	"runtime/metrics"
	"slices"
	"testing"
	"time"

	"xorp/internal/core"
	"xorp/internal/eventloop"
)

// Structural pins for "one route, one holder per role" (§5.1: the PeerIn is
// the only stage that stores input routes). The field-type walks fail when
// someone gives the resolver or a group member a per-route store again,
// whatever it is called; the byte pin fails when the stores come back in a
// shape the walks cannot see.

// reaches reports whether a value of type t can hold a value of one of the
// target types without going through an interface or a func: those are
// links to other stages and callbacks, not storage of this one.
func reaches(t reflect.Type, seen map[reflect.Type]bool, targets ...reflect.Type) bool {
	for _, target := range targets {
		if t == target {
			return true
		}
	}
	if seen[t] {
		return false
	}
	seen[t] = true
	switch t.Kind() {
	case reflect.Pointer, reflect.Slice, reflect.Array:
		return reaches(t.Elem(), seen, targets...)
	case reflect.Map:
		return reaches(t.Key(), seen, targets...) || reaches(t.Elem(), seen, targets...)
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if reaches(t.Field(i).Type, seen, targets...) {
				return true
			}
		}
	}
	return false
}

// assertResolverQuiescent checks the two places a resolver may hold a route
// are empty: the op queues, and the stage's emitter.
func assertResolverQuiescent(t *testing.T, n *NexthopResolver) {
	t.Helper()
	run := pending(&n.em, "run")
	if len(n.queues) != 0 || len(n.waiters) != 0 || len(n.inflight) != 0 || run != 0 {
		t.Fatalf("%s at quiescence: %d queued nets, %d awaited nexthops, %d queries in flight, scratch run of %d",
			n.Name(), len(n.queues), len(n.waiters), len(n.inflight), run)
	}
}

// pending returns the length of the slice field name of the core value v
// points to: an emitter's run, a base's idle scratch.
func pending(v any, name string) int { return reflect.ValueOf(v).Elem().FieldByName(name).Len() }

func TestResolverHoldsNoRoutes(t *testing.T) {
	rt := reflect.TypeOf(NexthopResolver{})
	for i := 0; i < rt.NumField(); i++ {
		f := rt.Field(i)
		holds := reaches(f.Type, map[reflect.Type]bool{}, reflect.TypeOf((*Route)(nil)), reflect.TypeOf(Route{}))
		switch f.Name {
		case "queues", "Base", "em": // unresolved ops; the scratch run every stage builds its output in
			if !holds {
				t.Errorf("NexthopResolver.%s no longer reaches a Route: update this test", f.Name)
			}
		default:
			if holds {
				t.Errorf("NexthopResolver.%s (%v) can hold a Route; only the op queues may", f.Name, f.Type)
			}
		}
	}

	// And those two are empty once every answer is in.
	tr := newTestRouter(t, 65000)
	p1 := tr.addPeer(t, "p1", "10.0.0.1", 65001)
	fake := &fakeMetricSource{}
	p1.resolver.src = fake
	for i := 0; i < 100; i++ {
		p1.peerin.Announce(modelNet(i), attrsVia("10.0.0.1", 65001))
	}
	if p1.resolver.PendingOps() != 100 {
		t.Fatalf("%d ops queued before the answer, want 100", p1.resolver.PendingOps())
	}
	fake.answer(mustA("10.0.0.1"), NexthopInfo{Resolvable: true, Metric: 10, Covering: mustP("10.0.0.0/24")})
	tr.settle()
	if len(tr.sink.tbl) != 100 {
		t.Fatalf("%d routes reached the sink, want 100", len(tr.sink.tbl))
	}
	assertResolverQuiescent(t, p1.resolver)
}

func TestGroupMemberHoldsNoPrefixes(t *testing.T) {
	mt := reflect.TypeOf(groupMember{})
	for i := 0; i < mt.NumField(); i++ {
		f := mt.Field(i)
		if f.Type.Kind() == reflect.Map {
			t.Errorf("groupMember.%s is a map: per-member state must not grow with the table", f.Name)
		}
		if reaches(f.Type, map[reflect.Type]bool{}, reflect.TypeOf((*Route)(nil)), reflect.TypeOf(Route{}), reflect.TypeOf(netip.Prefix{})) {
			t.Errorf("groupMember.%s (%v) can hold a route or a prefix", f.Name, f.Type)
		}
	}
}

// TestGroupOutHoldsNoRoutes: the group keeps no adj-RIB-out. A field that
// could hold a route, by pointer or by value, or an attribute set, or that
// is keyed by prefix, would be the per-route copy back under another name;
// the one prefix-keyed field is the set of prefixes whose announcement
// could not be encoded. What the group answers is asked of the stages
// upstream.
func TestGroupOutHoldsNoRoutes(t *testing.T) {
	gt := reflect.TypeOf(GroupOut{})
	for i := 0; i < gt.NumField(); i++ {
		f := gt.Field(i)
		holds := reaches(f.Type, map[reflect.Type]bool{}, reflect.TypeOf((*Route)(nil)), reflect.TypeOf(Route{}), reflect.TypeOf((*PathAttrs)(nil)))
		if holds != (f.Name == "Base") { // Base: the scratch run of a stage that sends routes on; this one sends none
			t.Errorf("GroupOut.%s (%v): reaches a route or an attribute set = %v", f.Name, f.Type, holds)
		}
		if keyed := f.Type.Kind() == reflect.Map && f.Type.Key() == reflect.TypeOf(netip.Prefix{}); keyed != (f.Name == "dropped") {
			t.Errorf("GroupOut.%s (%v): keyed by prefix = %v; only the drop set may be", f.Name, f.Type, keyed)
		}
	}

	// Behind a bank that rewrites every route in its one scratch view, the
	// routes the group sent read back through the upstream that sent them.
	g, _, runs, up := exportSide(t, 2, 8)
	up.announce(runs[0])
	up.announce(runs[1])
	if n := pending(&g.Base, "buf"); n != 0 {
		t.Fatalf("GroupOut used its scratch run (%d routes)", n)
	}
	for i, run := range runs {
		for _, r := range run {
			got := lookup(g, r.Net)
			if got == nil || got.Src != r.Src || !got.Attrs.Equal(naiveEBGPExport(r.Attrs, 65000, mustA("192.0.2.1"))) {
				t.Fatalf("run %d: the group says %+v for %v", i, got, r.Net)
			}
		}
	}
}

// upstream is the stage network above output branches: a PeerIn and a
// resolver per source over one pool, Decision and Fanout. A GroupOut hung
// under it answers lookups and replays from a real table.
type upstream struct {
	loop *eventloop.Loop
	dec  *Decision
	fan  *Fanout
	pool *AttrPool
	ins  map[*PeerHandle]*PeerIn
}

func newUpstream() *upstream {
	u := &upstream{
		loop: eventloop.New(eventloop.NewSimClock(time.Unix(0, 0))),
		dec:  NewDecision("decision"),
		pool: NewAttrPool(),
		ins:  make(map[*PeerHandle]*PeerIn),
	}
	u.fan = NewFanout("fanout", u.loop)
	Plumb(u.dec, u.fan)
	return u
}

// branch hangs g under the fanout behind bank, a pass-all one if nil: a
// group branch, or with peer set a group of one.
func (u *upstream) branch(peer *PeerHandle, bank *FilterBank, g *GroupOut) {
	if bank == nil {
		bank = NewFilterBank("out-filter(" + g.Name() + ")")
	}
	Plumb(bank, g)
	u.fan.AddPeerBranch(g.Name(), peer, bank)
}

// in returns src's PeerIn, building its input branch on first use.
func (u *upstream) in(src *PeerHandle) *PeerIn {
	in, ok := u.ins[src]
	if !ok {
		in = NewPeerIn(u.loop, src, u.pool)
		res := NewNexthopResolver("nexthop("+src.Name+")", &StaticMetricSource{})
		Plumb(in, res)
		u.dec.AddParent(res)
		u.ins[src] = in
	}
	return in
}

// announce has a run's source announce it in one UPDATE, and drains.
func (u *upstream) announce(run []Route) {
	m := &UpdateMsg{Attrs: run[0].Attrs}
	for _, r := range run {
		m.NLRI = append(m.NLRI, r.Net)
	}
	u.in(run[0].Src).ReceiveUpdate(m, 65000)
	u.loop.RunPending()
}

// withdraw has r's source withdraw it, and drains.
func (u *upstream) withdraw(r Route) {
	u.in(r.Src).Withdraw(r.Net)
	u.loop.RunPending()
}

// exportSide is one output branch — an EBGP export bank into a GroupOut with
// two members that discard what they are sent — under an upstream, and
// nruns runs of n routes, each run with its own attribute set and source.
// A test drives the bank directly, or the upstream.
func exportSide(t *testing.T, nruns, n int) (*GroupOut, *FilterBank, [][]Route, *upstream) {
	g := NewGroupOut("rs")
	bank := NewFilterBank("out-filter(group:rs)", FilterEBGPExport(65000, mustA("192.0.2.1")))
	up := newUpstream()
	up.branch(nil, bank, g)
	for i := 0; i < 2; i++ {
		h := testPeer(fmt.Sprintf("m%d", i), fmt.Sprintf("10.0.1.%d", i+1), uint16(65010+i), false)
		if err := g.AddMember(h, GroupSenderFunc(func([]byte) {})); err != nil {
			t.Fatal(err)
		}
	}
	runs := make([][]Route, nruns)
	for k := range runs {
		src := testPeer(fmt.Sprintf("src%d", k), fmt.Sprintf("10.0.0.%d", k+1), uint16(65001+k), false)
		attrs := attrsVia(src.Addr.String(), src.AS, 64512)
		attrs.Communities = []uint32{uint32(k)}
		for i := 0; i < n; i++ {
			net := netip.PrefixFrom(netip.AddrFrom4([4]byte{byte(20 + k), byte(i), 0, 0}), 16)
			runs[k] = append(runs[k], Route{Net: net, Attrs: attrs, Src: src, Resolvable: true})
		}
	}
	return g, bank, runs, up
}

// TestExportSideAllocs: past the fanout nothing is made per route. A run
// costs the one rewrite its attribute set needs (one attribute block, its
// prepended path inside it), and the encode costs nothing; a withdrawal,
// one by one or as a run, costs nothing whatever set it carries (the bank
// does not rewrite it), and a burst of replaces costs the new side's one
// rewrite. Every shortcut back to per-route work — a view on the heap, a
// rewrite before the memo is asked, a Route in the adj-RIB-out — shows here
// as 64 times something.
func TestExportSideAllocs(t *testing.T) {
	const n = 64
	g, bank, runs, _ := exportSide(t, 2, n)
	twins := slices.Clone(runs[0]) // the same routes as runs[0], as other values
	withdraw := func(run []Route) {
		for i := range run {
			bank.Delete(run[i : i+1])
		}
	}
	for i := 0; i < 3; i++ { // steady state: map and encode buffer at size
		bank.Add(runs[0])
		bank.Add(runs[1])
		withdraw(runs[0])
		withdraw(runs[1])
	}
	// Summed over rounds and divided down like testing.AllocsPerRun, so the
	// runtime's own stray allocation does not count; per-route work would
	// show as 64 times something.
	const rounds = 20
	var add, replace, del, delOther, delRun uint64
	for i := 0; i < rounds; i++ {
		bank.Add(runs[0])
		add += mallocsOf(func() { bank.Add(runs[1]) }) // the filter saw runs[0]'s set last: one rewrite
		del += mallocsOf(func() { withdraw(runs[1]) })
		bank.Add(runs[1])
		replace += mallocsOf(func() { // one rewrite for the new sides, then 63 memo hits
			for i, r := range runs[0] {
				bank.Replace(r, twins[i])
			}
		})
		withdraw(runs[1])
		delOther += mallocsOf(func() { withdraw(runs[0]) }) // under a set the filter did not see last
		bank.Add(runs[0])
		bank.Add(runs[1])
		delRun += mallocsOf(func() { bank.Delete(runs[0]) })
		bank.Delete(runs[1])
	}
	if g.AnnouncedCount() != 0 {
		t.Fatalf("%d routes left announced", g.AnnouncedCount())
	}
	add, del, delOther, delRun, replace = add/rounds, del/rounds, delOther/rounds, delRun/rounds, replace/rounds
	t.Logf("per %d-route call: Add %d, Delete burst under the set seen last %d, under another %d, Delete run %d, Replace burst under another %d",
		n, add, del, delOther, delRun, replace)
	if add > 1 || replace > 1 {
		t.Errorf("Add of a %d-route run costs %d allocations, a burst of Replaces %d; want <= 1 (one rewrite)", n, add, replace)
	}
	if del != 0 || delOther != 0 || delRun != 0 {
		t.Errorf("%d Deletes one by one cost %d allocations under the set the filter saw last, %d under another; as a run %d; want 0",
			n, del, delOther, delRun)
	}
}

// routeServer is the route-server stage network: a PeerIn and a resolver per
// client, Decision, Fanout, one shared export bank and GroupOut.
type routeServer struct {
	loop  *eventloop.Loop
	ins   []*PeerIn
	dec   *Decision
	fan   *Fanout
	group *GroupOut
}

// newRouteServer builds it for clients clients; between, if set, makes the
// stage plumbed between each client's resolver and the decision.
func newRouteServer(clients int, between func() *lookupCounter) *routeServer {
	loop := eventloop.New(eventloop.NewSimClock(time.Unix(0, 0)))
	rs := &routeServer{loop: loop, dec: NewDecision("decision"), fan: NewFanout("fanout", loop), group: NewGroupOut("rs")}
	pool := NewAttrPool()
	Plumb(rs.dec, rs.fan)
	outBank := NewFilterBank("out-filter(group:rs)", FilterEBGPExport(65000, mustA("192.0.2.1")))
	Plumb(outBank, rs.group)
	rs.fan.AddGroupBranch("group:rs", outBank)
	for c := 0; c < clients; c++ {
		addr := netip.AddrFrom4([4]byte{10, 0, 0, byte(1 + c)})
		h := &PeerHandle{Name: addr.String(), Addr: addr, AS: uint16(65001 + c)}
		in := NewPeerIn(loop, h, pool)
		res := NewNexthopResolver("nexthop("+h.Name+")", &StaticMetricSource{})
		var last core.Source[Route] = res
		Plumb(in, res)
		if between != nil {
			s := between()
			Plumb(last, s)
			last = s
		}
		if err := rs.group.AddMember(h, GroupSenderFunc(func([]byte) {})); err != nil {
			panic(err)
		}
		rs.dec.AddParent(last)
		rs.ins = append(rs.ins, in)
	}
	return rs
}

// rsNet is client c's i-th prefix: one of its own, or with shared the same
// for every client.
func rsNet(c, i int, shared bool) netip.Prefix {
	if shared {
		c = 0
	}
	return netip.PrefixFrom(netip.AddrFrom4([4]byte{byte(20 + c), byte(i >> 8), byte(i), 0}), 24)
}

// announce has each client in turn announce routesEach prefixes in
// UPDATEs of 64, or withdraw them.
func (rs *routeServer) announce(routesEach int, shared, withdraw bool) {
	const perUpdate = 64
	for c, in := range rs.ins {
		for first := 0; first < routesEach; first += perUpdate {
			u := &UpdateMsg{Attrs: attrsVia(in.Peer().Addr.String(), in.Peer().AS, uint16(64512+first/perUpdate))}
			for i := first; i < first+perUpdate && i < routesEach; i++ {
				u.NLRI = append(u.NLRI, rsNet(c, i, shared))
			}
			if withdraw {
				u = &UpdateMsg{Withdrawn: u.NLRI}
			}
			in.ReceiveUpdate(u, 65000)
			rs.loop.RunPending()
		}
	}
}

// bytesPerRouteRouter loads a route server and returns it, to be kept
// alive, with the number of (client, prefix) routes it stores.
func bytesPerRouteRouter(clients, routesEach int, shared bool) (keep any, routes int) {
	rs := newRouteServer(clients, nil)
	rs.announce(routesEach, shared, false)
	want := clients * routesEach
	if shared {
		want = routesEach
	}
	if got := rs.group.AnnouncedCount(); got != want {
		panic("route server did not announce every route")
	}
	return rs, clients * routesEach
}

// TestBGPBytesPerRoute pins the live heap a route costs across the BGP
// stage network of a route server, and the part of it the collector scans
// on every cycle (/gc/scan/heap:bytes). With every client on prefixes of
// its own: the RIB-in's 32-byte leaf (a 16-byte header and a 16-byte slot
// in one allocation) and its glue, and nothing in the group, which keeps
// no adj-RIB-out. It measures 70 B, 69 scanned. With 32 clients on the
// same prefixes a (client, prefix) pair costs a slot in a holder list and
// the node shared 32 ways: 25 B, 23 scanned. Each bound is about 8 %
// above its reading.
func TestBGPBytesPerRoute(t *testing.T) {
	for _, tc := range []struct {
		name                string
		clients, routesEach int
		shared              bool
		bound, scanBound    float64
	}{
		{"disjoint", 8, 6400, false, 76, 75},
		{"shared", 32, 6400, true, 27, 25},
	} {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&before)
		scanBefore := heapScanBytes()
		keep, n := bytesPerRouteRouter(tc.clients, tc.routesEach, tc.shared)
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&after)
		perRoute := float64(after.HeapAlloc-before.HeapAlloc) / float64(n)
		scanned := (float64(heapScanBytes()) - float64(scanBefore)) / float64(n)
		runtime.KeepAlive(keep)
		t.Logf("%s: %.0f B of live heap per (client, prefix), %.0f B of it scanned", tc.name, perRoute, scanned)
		if perRoute > tc.bound || scanned > tc.scanBound {
			t.Errorf("%s: %.0f B of live heap per (client, prefix), bound %.0f; %.0f B scanned, bound %.0f", tc.name, perRoute, tc.bound, scanned, tc.scanBound)
		}
	}
}

// heapScanBytes reads /gc/scan/heap:bytes, the heap the collector scans
// on every cycle, as of the last GC.
func heapScanBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/scan/heap:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// lookupCounter passes everything through and counts the Lookups it is
// asked.
type lookupCounter struct {
	core.Base[Route]
	n *int
}

func (c *lookupCounter) Add(run []Route)        { c.Next().Add(run) }
func (c *lookupCounter) Replace(old, new Route) { c.Next().Replace(old, new) }
func (c *lookupCounter) Delete(run []Route)     { c.Next().Delete(run) }
func (c *lookupCounter) Lookup(net netip.Prefix, r *Route) bool {
	*c.n++
	return c.LookupParent(net, r)
}

// TestDecisionLookupsPerRoute counts the branch Lookups the decision makes
// per route announced and withdrawn by 32 clients. On prefixes of their
// own it asks at most the one branch that holds the prefix — none, as that
// branch sent the route — where it asked all 32 each time when every
// branch was asked about every prefix. With every client on the same
// prefixes it asks no more branches than hold the prefix at the time.
func TestDecisionLookupsPerRoute(t *testing.T) {
	const clients, routesEach = 32, 256
	for _, shared := range []bool{false, true} {
		lookups := 0
		rs := newRouteServer(clients, func() *lookupCounter { return &lookupCounter{Base: newBase("count"), n: &lookups} })
		rs.announce(routesEach, shared, false)
		announced := lookups
		rs.announce(routesEach, shared, true)
		withdrawn := lookups - announced
		if rib := rs.ins[0].rib; rs.group.AnnouncedCount() != 0 || rib.tbl.Len() != 0 || rib.n != 0 {
			t.Fatalf("shared=%v: %d routes left announced; the RIB-in keeps %d prefixes, %d routes",
				shared, rs.group.AnnouncedCount(), rib.tbl.Len(), rib.n)
		}
		routes := clients * routesEach
		// Client c announces when c others hold the prefix (shared) and
		// withdraws when clients-1-c others still do.
		wantAnnounced, wantWithdrawn := routes, 0
		if shared {
			wantAnnounced, wantWithdrawn = routesEach*clients*(clients+1)/2, routesEach*clients*(clients-1)/2
		}
		t.Logf("shared=%v: %.2f lookups per route announced, %.2f per route withdrawn",
			shared, float64(announced)/float64(routes), float64(withdrawn)/float64(routes))
		if announced > wantAnnounced || withdrawn > wantWithdrawn {
			t.Errorf("shared=%v: %d lookups for %d announcements, %d for as many withdrawals; want <= %d and %d (one per holder)",
				shared, announced, routes, withdrawn, wantAnnounced, wantWithdrawn)
		}
	}
}
