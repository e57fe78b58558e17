package ospf

import (
	"maps"
	"net/netip"
	"testing"
	"time"

	"xorp/internal/eventloop"
	"xorp/internal/kernel"
	"xorp/internal/route"
)

func mustP(s string) netip.Prefix { return netip.MustParsePrefix(s) }
func mustA(s string) netip.Addr   { return netip.MustParseAddr(s) }

func TestWireRoundTrip(t *testing.T) {
	pkts := []*Packet{
		{Type: TypeHello, RouterID: mustA("10.0.0.1"), Hello: &Hello{
			HelloInterval: 10, DeadInterval: 40,
			Neighbors: []netip.Addr{mustA("10.0.0.2"), mustA("10.0.0.3")},
		}},
		{Type: TypeLSUpdate, RouterID: mustA("10.0.0.2"), LSAs: []LSA{
			{
				Origin: mustA("10.0.0.2"), Seq: 7, Age: 13,
				Links:    []Link{{Neighbor: mustA("10.0.0.1"), Cost: 1}, {Neighbor: mustA("10.0.0.3"), Cost: 5}},
				Prefixes: []StubPrefix{{Net: mustP("172.16.0.0/16"), Cost: 1}, {Net: mustP("0.0.0.0/0"), Cost: 10}},
			},
			{Origin: mustA("10.0.0.9"), Seq: 1},
		}},
		{Type: TypeLSAck, RouterID: mustA("10.0.0.3"), Acks: []Key{
			{Origin: mustA("10.0.0.2"), Seq: 7},
		}},
	}
	for _, p := range pkts {
		buf, err := p.Append(nil)
		if err != nil {
			t.Fatalf("append type %d: %v", p.Type, err)
		}
		got, err := Decode(buf)
		if err != nil {
			t.Fatalf("decode type %d: %v", p.Type, err)
		}
		if got.Type != p.Type || got.RouterID != p.RouterID {
			t.Fatalf("header %+v != %+v", got, p)
		}
		switch p.Type {
		case TypeHello:
			if got.Hello.HelloInterval != 10 || got.Hello.DeadInterval != 40 ||
				len(got.Hello.Neighbors) != 2 || got.Hello.Neighbors[1] != mustA("10.0.0.3") {
				t.Fatalf("hello %+v", got.Hello)
			}
		case TypeLSUpdate:
			if len(got.LSAs) != 2 {
				t.Fatalf("LSAs %+v", got.LSAs)
			}
			l := got.LSAs[0]
			if l.Origin != mustA("10.0.0.2") || l.Seq != 7 || l.Age != 13 ||
				len(l.Links) != 2 || l.Links[1] != (Link{Neighbor: mustA("10.0.0.3"), Cost: 5}) ||
				len(l.Prefixes) != 2 || l.Prefixes[0] != (StubPrefix{Net: mustP("172.16.0.0/16"), Cost: 1}) {
				t.Fatalf("LSA %+v", l)
			}
		case TypeLSAck:
			if len(got.Acks) != 1 || got.Acks[0] != (Key{Origin: mustA("10.0.0.2"), Seq: 7}) {
				t.Fatalf("acks %+v", got.Acks)
			}
		}
	}
}

func TestWireRejectsBadPackets(t *testing.T) {
	good, _ := (&Packet{Type: TypeHello, RouterID: mustA("10.0.0.1"),
		Hello: &Hello{HelloInterval: 10, DeadInterval: 40}}).Append(nil)
	cases := [][]byte{
		{},
		{9, TypeHello, 10, 0, 0, 1}, // bad version
		{Version, 7, 10, 0, 0, 1},   // unknown type
		good[:len(good)-1],          // truncated
		append(append([]byte(nil), good...), 0xff), // trailing bytes
	}
	for _, c := range cases {
		if _, err := Decode(c); err == nil {
			t.Errorf("Decode(%v) accepted", c)
		}
	}
	// A hello claiming more neighbors than present must fail, not hang.
	trunc := append([]byte(nil), good...)
	trunc[len(trunc)-2] = 0 // neighbor count high byte
	trunc[len(trunc)-1] = 9 // claims 9 neighbors, none present
	if _, err := Decode(trunc); err == nil {
		t.Error("over-claimed neighbor count accepted")
	}
	if _, err := (&Packet{Type: 9}).Append(nil); err == nil {
		t.Error("unknown type encoded")
	}
	big := &Packet{Type: TypeLSUpdate, RouterID: mustA("10.0.0.1")}
	for i := 0; i <= MaxLSAsPerUpdate; i++ {
		big.LSAs = append(big.LSAs, LSA{Origin: mustA("10.0.0.1"), Seq: 1})
	}
	if _, err := big.Append(nil); err == nil {
		t.Error("oversized LSU encoded")
	}
}

func TestLSDBInstallOrdering(t *testing.T) {
	db := NewLSDB()
	now := time.Unix(0, 0)
	lsa := LSA{Origin: mustA("10.0.0.1"), Seq: 3, Links: []Link{{Neighbor: mustA("10.0.0.2"), Cost: 1}}}
	if res, topo := db.Install(lsa, now); res != InstallNewer || !topo {
		t.Fatalf("first install: %v %v", res, topo)
	}
	if res, _ := db.Install(lsa, now); res != InstallDuplicate {
		t.Fatal("same seq not a duplicate")
	}
	older := lsa
	older.Seq = 2
	if res, _ := db.Install(older, now); res != InstallOlder {
		t.Fatal("older seq accepted")
	}
	// Newer instance with the same links: not a topology change.
	refresh := lsa.Clone()
	refresh.Seq = 4
	refresh.Prefixes = []StubPrefix{{Net: mustP("10.1.0.0/24"), Cost: 1}}
	if res, topo := db.Install(refresh, now); res != InstallNewer || topo {
		t.Fatalf("refresh install: %v topo=%v, want newer without topo change", res, topo)
	}
	// Newer instance with different links: topology change.
	rewire := refresh.Clone()
	rewire.Seq = 5
	rewire.Links = nil
	if res, topo := db.Install(rewire, now); res != InstallNewer || !topo {
		t.Fatalf("rewire install: %v topo=%v", res, topo)
	}
	// Aging advances with local time.
	aged, ok := db.AgeAt(mustA("10.0.0.1"), now.Add(90*time.Second))
	if !ok || aged.Age != 90 {
		t.Fatalf("aged to %d, want 90", aged.Age)
	}
}

// buildLSDB constructs a database from an adjacency list: edges are
// bidirectional with cost 1, and router i advertises prefix 10.i.0.0/16.
func buildLSDB(t *testing.T, edges map[int][]int, n int) *LSDB {
	t.Helper()
	db := NewLSDB()
	for i := 1; i <= n; i++ {
		lsa := LSA{Origin: netip.AddrFrom4([4]byte{10, 0, 0, byte(i)}), Seq: 1}
		for _, j := range edges[i] {
			lsa.Links = append(lsa.Links, Link{Neighbor: netip.AddrFrom4([4]byte{10, 0, 0, byte(j)}), Cost: 1})
		}
		lsa.Prefixes = []StubPrefix{{Net: netip.PrefixFrom(netip.AddrFrom4([4]byte{10, byte(i), 0, 0}), 16), Cost: 1}}
		db.Install(lsa, time.Time{})
	}
	return db
}

func TestSPFBidirectionalCheck(t *testing.T) {
	// 1—2—3, but 3 does not link back to 2: 3 must be unreachable.
	db := buildLSDB(t, map[int][]int{1: {2}, 2: {1, 3}, 3: {}}, 3)
	spf := NewSPF(mustA("10.0.0.1"))
	routes := spf.Recompute(db, true)
	if _, ok := routes[mustP("10.3.0.0/16")]; ok {
		t.Fatal("prefix of a one-way-linked router is reachable")
	}
	r, ok := routes[mustP("10.2.0.0/16")]
	if !ok || r.Cost != 2 || r.FirstHop != mustA("10.0.0.2") {
		t.Fatalf("route to 10.2/16: %+v", r)
	}
	if own, ok := routes[mustP("10.1.0.0/16")]; !ok || own.FirstHop.IsValid() {
		t.Fatalf("own prefix: %+v", own)
	}
}

func TestSPFIncrementalSkipsDijkstra(t *testing.T) {
	db := buildLSDB(t, map[int][]int{1: {2}, 2: {1, 3}, 3: {2}}, 3)
	spf := NewSPF(mustA("10.0.0.1"))
	spf.Recompute(db, true)
	if s := spf.Stats(); s.Full != 1 || s.Incremental != 0 {
		t.Fatalf("stats after full: %+v", s)
	}
	// Prefix-only change on router 3.
	lsa, _ := db.Get(mustA("10.0.0.3"))
	lsa = lsa.Clone()
	lsa.Seq++
	lsa.Prefixes = append(lsa.Prefixes, StubPrefix{Net: mustP("192.168.9.0/24"), Cost: 4})
	_, topo := db.Install(lsa, time.Time{})
	if topo {
		t.Fatal("prefix-only change flagged as topology change")
	}
	routes := spf.Recompute(db, topo)
	if s := spf.Stats(); s.Full != 1 || s.Incremental != 1 {
		t.Fatalf("stats after incremental: %+v", s)
	}
	r, ok := routes[mustP("192.168.9.0/24")]
	if !ok || r.Cost != 6 || r.FirstHop != mustA("10.0.0.2") {
		t.Fatalf("new prefix after incremental recompute: %+v", r)
	}
}

// TestSPFLinkCostChangeIsTopology re-installs router 1's LSA with one
// link's cost raised and nothing else changed: same neighbours, same
// prefixes. That is a topology change, so Install must say so, and the
// incremental SPF must then answer what a fresh one does.
func TestSPFLinkCostChangeIsTopology(t *testing.T) {
	// A square: 1—2, 1—3, 2—4, 3—4, every link of cost 1.
	db := buildLSDB(t, map[int][]int{1: {2, 3}, 2: {1, 4}, 3: {1, 4}, 4: {2, 3}}, 4)
	root := mustA("10.0.0.1")
	spf := NewSPF(root)
	before := spf.Recompute(db, true)

	lsa, _ := db.Get(root)
	lsa = lsa.Clone()
	lsa.Seq++
	lsa.Links[0].Cost = 10 // 1—2: router 2 is now cheaper by way of 3 and 4
	res, topo := db.Install(lsa, time.Time{})
	if res != InstallNewer || !topo {
		t.Errorf("link-cost change installed as %v, topoChanged=%v; want a newer topology", res, topo)
	}
	got := spf.Recompute(db, topo)
	want := NewSPF(root).Recompute(db, true)
	if !maps.Equal(got, want) {
		t.Fatalf("incremental SPF after a link-cost change:\n%v\nfresh SPF:\n%v", got, want)
	}
	if r := want[mustP("10.2.0.0/16")]; r.Cost != 4 || r.FirstHop != mustA("10.0.0.3") || maps.Equal(before, want) {
		t.Fatalf("route to 10.2/16 after the change: %+v, want cost 4 via 10.0.0.3", r)
	}
}

// --- multi-router integration (FEA relay over the simulated fabric) ---

type ribRec struct {
	routes map[netip.Prefix]route.Entry
}

func (r *ribRec) AddRoutes(es []route.Entry) {
	for _, e := range es {
		r.routes[e.Net] = e
	}
}
func (r *ribRec) DeleteRoutes(nets []netip.Prefix) {
	for _, net := range nets {
		delete(r.routes, net)
	}
}

// ospfNode is one simulated OSPF router: OSPF on a shared loop, its
// transport a host on the fabric.
type ospfNode struct {
	proc *Process
	host *kernel.Host
	rib  *ribRec
}

func newOSPFNode(t *testing.T, loop *eventloop.Loop, netw *kernel.Network, addr string) *ospfNode {
	t.Helper()
	host, err := netw.Attach(mustA(addr))
	if err != nil {
		t.Fatal(err)
	}
	rib := &ribRec{routes: make(map[netip.Prefix]route.Entry)}
	proc := NewProcess(loop, Config{LocalAddr: mustA(addr), IfName: "eth0"}, hostTransport{host, loop}, rib)
	if err := proc.Start(); err != nil {
		t.Fatal(err)
	}
	return &ospfNode{proc: proc, host: host, rib: rib}
}

// hostTransport is a Transport straight onto a host on the fabric, its
// datagrams delivered on loop: what the FEA's relay does, minus the XRLs.
type hostTransport struct {
	host *kernel.Host
	loop *eventloop.Loop
}

func (t hostTransport) Bind(recv func(src netip.AddrPort, payload []byte)) error {
	if err := t.host.JoinGroup(AllSPFRouters); err != nil {
		return err
	}
	return t.host.Bind(Port, func(src netip.AddrPort, payload []byte) {
		t.loop.Dispatch(func() { recv(src, payload) })
	})
}

func (t hostTransport) Send(dst netip.AddrPort, payload []byte) error {
	t.host.SendTo(Port, dst, payload)
	return nil
}

func (t hostTransport) Multicast(payload []byte) error {
	return t.Send(netip.AddrPortFrom(AllSPFRouters, Port), payload)
}

// shapeLinks restricts the fabric to the given links (pairs of host
// addresses), applied to unicast and multicast alike. Additional drops
// may be layered via extra.
func shapeLinks(netw *kernel.Network, links [][2]string, extra func(src, dst netip.AddrPort) bool) {
	allowed := make(map[[2]netip.Addr]bool)
	for _, l := range links {
		a, b := mustA(l[0]), mustA(l[1])
		allowed[[2]netip.Addr{a, b}] = true
		allowed[[2]netip.Addr{b, a}] = true
	}
	netw.SetDropFunc(func(src, dst netip.AddrPort) bool {
		if !allowed[[2]netip.Addr{src.Addr(), dst.Addr()}] {
			return true
		}
		return extra != nil && extra(src, dst)
	})
}

// TestRingConvergenceAndLinkFailure is the acceptance scenario: four
// routers in a ring bring up adjacencies, flood LSAs, converge SPF, and
// the RIB's winning routes match the expected shortest paths; after a
// link is dropped via Network.SetDropFunc, routes reconverge around the
// failure within the protocol's dead interval.
func TestRingConvergenceAndLinkFailure(t *testing.T) {
	loop := eventloop.New(eventloop.NewSimClock(time.Unix(0, 0)))
	netw := kernel.NewNetwork()
	ring := [][2]string{
		{"10.0.0.1", "10.0.0.2"},
		{"10.0.0.2", "10.0.0.3"},
		{"10.0.0.3", "10.0.0.4"},
		{"10.0.0.4", "10.0.0.1"},
	}
	shapeLinks(netw, ring, nil)
	r1 := newOSPFNode(t, loop, netw, "10.0.0.1")
	r2 := newOSPFNode(t, loop, netw, "10.0.0.2")
	r3 := newOSPFNode(t, loop, netw, "10.0.0.3")
	r4 := newOSPFNode(t, loop, netw, "10.0.0.4")
	loop.Dispatch(func() { r1.proc.OriginatePrefix(mustP("172.16.0.0/16"), 1) })
	loop.RunFor(5 * time.Second)

	// Adjacencies: each ring node is Full with exactly its two
	// neighbors.
	for i, n := range []*ospfNode{r1, r2, r3, r4} {
		if got := n.proc.NeighborCount(); got != 2 {
			t.Fatalf("r%d has %d full neighbors, want 2", i+1, got)
		}
	}
	if st := r1.proc.NeighborState(mustA("10.0.0.2")); st != "Full" {
		t.Fatalf("r1->r2 state %q", st)
	}
	if st := r1.proc.NeighborState(mustA("10.0.0.3")); st != "" {
		t.Fatalf("r1 knows non-adjacent r3 (%q)", st)
	}

	// Flooding: every LSDB has all four router LSAs.
	for i, n := range []*ospfNode{r1, r2, r3, r4} {
		if got := n.proc.DB().Len(); got != 4 {
			t.Fatalf("r%d LSDB has %d LSAs, want 4", i+1, got)
		}
	}

	// SPF: shortest paths to r1's prefix. r2 goes direct (cost 2);
	// r3 is two hops away (cost 3) via r2 (deterministic tiebreak).
	pfx := mustP("172.16.0.0/16")
	e2, ok := r2.rib.routes[pfx]
	if !ok || e2.NextHop != mustA("10.0.0.1") || e2.Metric != 2 {
		t.Fatalf("r2's route %+v %v", e2, ok)
	}
	e3, ok := r3.rib.routes[pfx]
	if !ok || e3.NextHop != mustA("10.0.0.2") || e3.Metric != 3 {
		t.Fatalf("r3's route %+v %v", e3, ok)
	}
	e4, ok := r4.rib.routes[pfx]
	if !ok || e4.NextHop != mustA("10.0.0.1") || e4.Metric != 2 {
		t.Fatalf("r4's route %+v %v", e4, ok)
	}

	// Fail the r1—r2 link. Within the dead interval (40 s) plus one
	// hello cycle, r2 must reroute around the ring via r3.
	shapeLinks(netw, ring[1:], nil)
	loop.RunFor(55 * time.Second)
	e2, ok = r2.rib.routes[pfx]
	if !ok {
		t.Fatal("r2 lost the route entirely after link failure")
	}
	if e2.NextHop != mustA("10.0.0.3") || e2.Metric != 4 {
		t.Fatalf("r2's rerouted entry %+v, want via 10.0.0.3 metric 4", e2)
	}
	// r3 keeps its route but now points the other way (via r4): its
	// old path crossed the dead link? No — r3's path was via r2—r1,
	// which is dead; it must now go via r4.
	e3, ok = r3.rib.routes[pfx]
	if !ok || e3.NextHop != mustA("10.0.0.4") || e3.Metric != 3 {
		t.Fatalf("r3's rerouted entry %+v, want via 10.0.0.4 metric 3", e3)
	}
}

func TestLossyFloodingRetransmits(t *testing.T) {
	// Drop every third datagram on the link: reliable flooding must
	// still converge, and the retransmit counter must show work. (A
	// strict 1-in-2 pattern can parity-lock with deterministic timers —
	// every retransmitted LSU delivered, every ack dropped — so the
	// classic 1-in-3 failure injection is used, as in the RIP tests.)
	loop := eventloop.New(eventloop.NewSimClock(time.Unix(0, 0)))
	netw := kernel.NewNetwork()
	n := 0
	lossy := func(src, dst netip.AddrPort) bool {
		n++
		return n%3 == 0
	}
	shapeLinks(netw, [][2]string{{"10.0.0.1", "10.0.0.2"}}, lossy)
	a := newOSPFNode(t, loop, netw, "10.0.0.1")
	b := newOSPFNode(t, loop, netw, "10.0.0.2")
	loop.Dispatch(func() { a.proc.OriginatePrefix(mustP("172.16.0.0/16"), 1) })
	loop.RunFor(2 * time.Minute)
	e, ok := b.rib.routes[mustP("172.16.0.0/16")]
	if !ok || e.Metric != 2 {
		t.Fatalf("b's route over lossy link: %+v %v", e, ok)
	}
	if a.proc.Stats().Retransmits == 0 && b.proc.Stats().Retransmits == 0 {
		t.Fatal("no retransmissions recorded on a lossy link")
	}
}

func TestDeadRouterRoutesWithdrawn(t *testing.T) {
	loop := eventloop.New(eventloop.NewSimClock(time.Unix(0, 0)))
	netw := kernel.NewNetwork()
	a := newOSPFNode(t, loop, netw, "10.0.0.1")
	b := newOSPFNode(t, loop, netw, "10.0.0.2")
	loop.Dispatch(func() { a.proc.OriginatePrefix(mustP("172.16.0.0/16"), 1) })
	loop.RunFor(5 * time.Second)
	if _, ok := b.rib.routes[mustP("172.16.0.0/16")]; !ok {
		t.Fatal("route not learned")
	}
	// Kill a: its hellos stop; b's dead timer must tear the adjacency
	// down and SPF must withdraw the route (a's LSA fails the
	// bidirectional check once b re-originates without the link).
	netw.Detach(mustA("10.0.0.1"))
	a.proc.Stop()
	loop.RunFor(time.Minute)
	if _, ok := b.rib.routes[mustP("172.16.0.0/16")]; ok {
		t.Fatal("dead router's route survived the dead interval")
	}
	if b.proc.NeighborCount() != 0 {
		t.Fatal("dead neighbor still fully adjacent")
	}
}

// A restarted neighbor's first hello does not list us. The one-way
// regression answers at once, so both sides are Full again within a round
// trip rather than after the survivor's next periodic hello.
func TestRestartedNeighborReadjacentAtOnce(t *testing.T) {
	loop := eventloop.New(eventloop.NewSimClock(time.Unix(0, 0)))
	netw := kernel.NewNetwork()
	a := newOSPFNode(t, loop, netw, "10.0.0.1")
	b := newOSPFNode(t, loop, netw, "10.0.0.2")
	loop.RunFor(5 * time.Second)
	a.proc.Stop()
	a.host.Unbind(Port)
	restarted := NewProcess(loop, Config{LocalAddr: mustA("10.0.0.1"), IfName: "eth0"}, a.proc.tr, a.rib)
	if err := restarted.Start(); err != nil {
		t.Fatal(err)
	}
	loop.RunFor(time.Second)
	if st := restarted.NeighborState(mustA("10.0.0.2")); st != "Full" {
		t.Fatalf("restarted router sees b %q, want Full", st)
	}
	if st := b.proc.NeighborState(mustA("10.0.0.1")); st != "Full" {
		t.Fatalf("b sees the restarted router %q, want Full", st)
	}
}

func TestIncrementalSPFOnPrefixChurn(t *testing.T) {
	loop := eventloop.New(eventloop.NewSimClock(time.Unix(0, 0)))
	netw := kernel.NewNetwork()
	a := newOSPFNode(t, loop, netw, "10.0.0.1")
	b := newOSPFNode(t, loop, netw, "10.0.0.2")
	loop.RunFor(5 * time.Second)
	full := b.proc.Stats().SPF.Full
	if full == 0 {
		t.Fatal("no full SPF during bring-up")
	}
	// Prefix-only churn at a: b must recompute incrementally, without
	// another Dijkstra.
	loop.Dispatch(func() { a.proc.OriginatePrefix(mustP("172.16.0.0/16"), 1) })
	loop.RunFor(5 * time.Second)
	loop.Dispatch(func() { a.proc.OriginatePrefix(mustP("172.17.0.0/16"), 2) })
	loop.RunFor(5 * time.Second)
	st := b.proc.Stats().SPF
	if st.Full != full {
		t.Fatalf("prefix churn triggered full SPF (%d -> %d)", full, st.Full)
	}
	if st.Incremental < 2 {
		t.Fatalf("expected >=2 incremental recomputes, got %d", st.Incremental)
	}
	if e, ok := b.rib.routes[mustP("172.17.0.0/16")]; !ok || e.Metric != 3 {
		t.Fatalf("route after incremental recompute: %+v %v", e, ok)
	}
	// Withdrawal is also prefix-only.
	loop.Dispatch(func() { a.proc.WithdrawPrefix(mustP("172.16.0.0/16")) })
	loop.RunFor(5 * time.Second)
	if _, ok := b.rib.routes[mustP("172.16.0.0/16")]; ok {
		t.Fatal("withdrawn prefix still routed")
	}
	if got := b.proc.Stats().SPF.Full; got != full {
		t.Fatalf("withdrawal triggered full SPF (%d -> %d)", full, got)
	}
}

func TestExportFilterAppliesPolicy(t *testing.T) {
	loop := eventloop.New(eventloop.NewSimClock(time.Unix(0, 0)))
	netw := kernel.NewNetwork()
	a := newOSPFNode(t, loop, netw, "10.0.0.1")
	b := newOSPFNode(t, loop, netw, "10.0.0.2")
	// b refuses 172.16/16 and doubles every other metric.
	loop.Dispatch(func() {
		b.proc.SetExportFilter(func(e route.Entry) *route.Entry {
			if e.Net == mustP("172.16.0.0/16") {
				return nil
			}
			e.Metric *= 2
			return &e
		})
	})
	loop.Dispatch(func() {
		a.proc.OriginatePrefix(mustP("172.16.0.0/16"), 1)
		a.proc.OriginatePrefix(mustP("172.17.0.0/16"), 1)
	})
	loop.RunFor(5 * time.Second)
	if _, ok := b.rib.routes[mustP("172.16.0.0/16")]; ok {
		t.Fatal("filtered route reached the RIB")
	}
	if e, ok := b.rib.routes[mustP("172.17.0.0/16")]; !ok || e.Metric != 4 {
		t.Fatalf("rewritten route %+v %v, want metric 4", e, ok)
	}
	// Removing the filter restores the suppressed route.
	loop.Dispatch(func() { b.proc.SetExportFilter(nil) })
	loop.RunFor(time.Second)
	if e, ok := b.rib.routes[mustP("172.16.0.0/16")]; !ok || e.Metric != 2 {
		t.Fatalf("route after filter removal: %+v %v", e, ok)
	}
}

func TestRedistributorShape(t *testing.T) {
	// RedistAdd/RedistDelete let a rib.RedistStage feed OSPF directly.
	loop := eventloop.New(eventloop.NewSimClock(time.Unix(0, 0)))
	netw := kernel.NewNetwork()
	a := newOSPFNode(t, loop, netw, "10.0.0.1")
	b := newOSPFNode(t, loop, netw, "10.0.0.2")
	loop.Dispatch(func() {
		a.proc.RedistAdd(route.Entry{Net: mustP("192.168.5.0/24"), Metric: 7})
	})
	loop.RunFor(5 * time.Second)
	if e, ok := b.rib.routes[mustP("192.168.5.0/24")]; !ok || e.Metric != 8 {
		t.Fatalf("redistributed route %+v %v, want metric 8", e, ok)
	}
	loop.Dispatch(func() {
		a.proc.RedistDelete(route.Entry{Net: mustP("192.168.5.0/24")})
	})
	loop.RunFor(5 * time.Second)
	if _, ok := b.rib.routes[mustP("192.168.5.0/24")]; ok {
		t.Fatal("redistributed route not withdrawn")
	}
}
