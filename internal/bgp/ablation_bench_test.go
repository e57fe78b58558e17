package bgp

// Ablation benchmarks for the design choices DESIGN.md calls out: the
// background deletion stage (vs. a blocking foreground delete), the
// decision process's lookup-upstream design, and the wire codec on the
// hot path.

import (
	"fmt"
	"net/netip"
	"testing"
	"time"

	"xorp/internal/eventloop"
)

func buildLoadedPeer(b *testing.B, n int) (*testRouter, *testBranch) {
	b.Helper()
	tr := newTestRouter(nil, 65000)
	p1 := tr.addPeer(nil, "p1", "10.0.0.1", 65001)
	for i := 0; i < n; i++ {
		net := netip.PrefixFrom(netip.AddrFrom4([4]byte{10, byte(i >> 16), byte(i >> 8), byte(i)}), 32)
		p1.peerin.Announce(net, attrsVia("10.0.0.1", 65001))
	}
	tr.settle()
	return tr, p1
}

// BenchmarkAblationPeerDownBackgroundDeletion measures draining a failed
// peering's table through the dynamic deletion stage (the §5.1.2 design):
// total work to withdraw n routes in background slices.
func BenchmarkAblationPeerDownBackgroundDeletion(b *testing.B) {
	const n = 50000
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		tr, p1 := buildLoadedPeer(b, n)
		b.StartTimer()
		d := p1.peerin.PeerDown()
		for !d.Done() {
			tr.settle()
		}
	}
	b.ReportMetric(float64(n), "routes/op")
}

// BenchmarkAblationDeletionSliceVsBlocking quantifies what the §5.1.2
// background deletion stage buys. A foreground event arriving during a
// peer-down drain waits for at most one deletion slice; the monolithic
// alternative (withdraw the whole table inside one event handler) blocks
// it for the entire drain. The two reported metrics are those bounds.
func BenchmarkAblationDeletionSliceVsBlocking(b *testing.B) {
	const n = 50000
	var totalNs float64
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		tr, p1 := buildLoadedPeer(b, n)
		b.StartTimer()
		start := time.Now()
		d := p1.peerin.PeerDown()
		for !d.Done() {
			tr.settle()
		}
		totalNs += float64(time.Since(start).Nanoseconds())
	}
	slices := float64((n + deletionBatch - 1) / deletionBatch)
	avgDrain := totalNs / float64(b.N)
	b.ReportMetric(avgDrain/slices/1e3, "us-max-event-delay(staged)")
	b.ReportMetric(avgDrain/1e3, "us-max-event-delay(blocking)")
}

// addPeers adds n eBGP peers to tr, the c-th at 10.0.1.c+1 in AS 65101+c.
func addPeers(tr *testRouter, n int) []*testBranch {
	ps := make([]*testBranch, n)
	for c := range ps {
		ps[c] = tr.addPeer(nil, fmt.Sprintf("q%d", c), fmt.Sprintf("10.0.1.%d", c+1), uint16(65101+c))
	}
	return ps
}

// feedPeer has p announce n /24s under 20+c.0.0.0/8, via its own address,
// in one UPDATE.
func feedPeer(tr *testRouter, p *testBranch, c, n int) {
	u := &UpdateMsg{Attrs: attrsVia(p.peer.Addr.String(), p.peer.AS)}
	for i := 0; i < n; i++ {
		u.NLRI = append(u.NLRI, netip.PrefixFrom(netip.AddrFrom4([4]byte{byte(20 + c), byte(i >> 8), byte(i), 0}), 24))
	}
	p.peerin.ReceiveUpdate(u, tr.localAS)
	tr.settle()
}

// BenchmarkAblationPeerDownAmongPeers drains a small peering, 640 routes,
// among 32 whose PeerIns share one AttrPool and so one RIB-in; the other 31
// hold 6,400 routes each, all sorting before the small one's. A slice steps
// over their entries as well as its own, so slices/op and us/slice say what
// the others cost the drain: its own routes alone fill 10 slices.
func BenchmarkAblationPeerDownAmongPeers(b *testing.B) {
	const peers, each, small = 32, 6400, 640
	tr := newTestRouter(nil, 65000)
	ps := addPeers(tr, peers)
	last := peers - 1
	for c := 0; c < last; c++ {
		feedPeer(tr, ps[c], c, each)
	}
	slices := 0
	var longest time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		feedPeer(tr, ps[last], last, small)
		b.StartTimer()
		d := ps[last].peerin.PeerDown()
		for ; !d.Done(); slices++ {
			start := time.Now()
			d.step()
			longest = max(longest, time.Since(start))
		}
		tr.settle()
	}
	b.ReportMetric(float64(slices)/float64(b.N), "slices/op")
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(slices)/1e3, "us/slice")
	b.ReportMetric(float64(longest.Nanoseconds())/1e3, "us-longest-slice")
}

// BenchmarkAblationDecisionLookupUpstream measures the decision process's
// "look alternatives up through the pipeline" design (§5.1): one add that
// must query three peer branches. The flapping peer's route joins and
// leaves the prefix's holder list, which must not allocate once warm.
func BenchmarkAblationDecisionLookupUpstream(b *testing.B) {
	tr := newTestRouter(nil, 65000)
	peers := []*testBranch{
		tr.addPeer(nil, "p1", "10.0.0.1", 65001),
		tr.addPeer(nil, "p2", "10.0.0.2", 65002),
		tr.addPeer(nil, "p3", "10.0.0.3", 65003),
	}
	net := mustP("10.50.0.0/16")
	for _, p := range peers {
		p.peerin.Announce(net, attrsVia(p.peer.Addr.String(), p.peer.AS, 65100))
	}
	tr.settle()
	loser := attrsVia("10.0.0.3", 65003, 65100, 65101)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Flap the losing route: decision must re-evaluate (3 upstream
		// lookups) but emit nothing.
		peers[2].peerin.Announce(net, loser)
		peers[2].peerin.Withdraw(net)
	}
	tr.settle()
}

// BenchmarkRouteServerOverlap times a route server's 32 clients each
// announcing 6,400 prefixes and then withdrawing them, in UPDATEs of 64.
// In disjoint every client has prefixes of its own, so a prefix has one
// holder, as in the routeserver workload. In shared every client sends the
// same prefixes, so a prefix has up to 32 holders and the decision asks
// each of them. ns/route is per (client, prefix): one announcement and one
// withdrawal.
func BenchmarkRouteServerOverlap(b *testing.B) {
	for _, shared := range []bool{false, true} {
		name := "disjoint"
		if shared {
			name = "shared"
		}
		b.Run(name, func(b *testing.B) {
			const clients, routesEach = 32, 6400
			rs := newRouteServer(clients, nil)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rs.announce(routesEach, shared, false)
				rs.announce(routesEach, shared, true)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*clients*routesEach), "ns/route")
		})
	}
}

// BenchmarkUpdateEncode / Decode: the wire codec on the hot path.
func BenchmarkUpdateEncode(b *testing.B) {
	attrs := attrsVia("10.0.0.1", 65001, 65002, 65003)
	attrs.MED, attrs.HasMED = 50, true
	m := &UpdateMsg{
		Attrs: attrs,
		NLRI:  []netip.Prefix{mustP("10.1.0.0/16"), mustP("10.2.0.0/16")},
	}
	var buf []byte
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		buf, err = AppendUpdate(buf[:0], m)
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkUpdateDecode(b *testing.B) {
	m := &UpdateMsg{
		Attrs: attrsVia("10.0.0.1", 65001, 65002, 65003),
		NLRI:  []netip.Prefix{mustP("10.1.0.0/16")},
	}
	buf, err := AppendUpdate(nil, m)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := DecodeMessage(buf); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDampingStage: per-flap cost of the damping stage.
func BenchmarkDampingStage(b *testing.B) {
	loop := eventloop.New(eventloop.NewSimClock(time.Unix(0, 0)))
	damp := NewDampingStage("damp", loop)
	s := newSink("sink")
	Plumb(damp, s)
	r := Route{Net: mustP("10.1.0.0/16"), Attrs: attrsVia("10.0.0.1", 65001)}
	run := []Route{r}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		damp.Add(run)
		damp.Delete(run)
	}
}

// BenchmarkNexthopChangeUnderTable is the price of the resolver keeping no
// nexthop → prefixes index: one peer, 10,000 routes over 4 nexthops, and an
// IGP change that moves the metric of one of them, so the 2,500 routes via
// it are found by walking the PeerIn and re-announced to the decision
// process. CHANGES.md (PR 21) has the figure against the clone table the
// resolver used to scan instead.
func BenchmarkNexthopChangeUnderTable(b *testing.B) { nexthopChangeUnderTable(b, 0) }

// BenchmarkNexthopChangeAmongPeers is the same change with 31 more peers of
// 10,000 routes each beside p1. Their PeerIns share one RIB-in with p1's,
// so the walk for p1's routes steps over theirs too.
func BenchmarkNexthopChangeAmongPeers(b *testing.B) { nexthopChangeUnderTable(b, 31) }

func nexthopChangeUnderTable(b *testing.B, others int) {
	const n, nexthops = 10000, 4
	tr := newTestRouter(nil, 65000)
	p1 := tr.addPeer(nil, "p1", "10.0.0.1", 65001)
	for c, p := range addPeers(tr, others) {
		feedPeer(tr, p, 1+c, n)
	}
	src := &modelSource{truth: make(map[netip.Addr]NexthopInfo)}
	p1.resolver.src, src.watch = src, p1.resolver.invalidate
	for h := 0; h < nexthops; h++ {
		nh := netip.AddrFrom4([4]byte{10, 0, 0, byte(1 + h)})
		src.truth[nh] = NexthopInfo{Resolvable: true, Metric: 10, Covering: netip.PrefixFrom(nh, 32)}
		u := &UpdateMsg{Attrs: attrsVia(nh.String(), 65001)}
		for i := h; i < n; i += nexthops {
			u.NLRI = append(u.NLRI, netip.PrefixFrom(netip.AddrFrom4([4]byte{20, byte(i >> 8), byte(i), 0}), 24))
		}
		p1.peerin.ReceiveUpdate(u, 65000)
		src.deliver(0)
	}
	tr.settle()
	if len(tr.sink.tbl) != n*(1+others) {
		b.Fatalf("%d routes reached the sink, want %d", len(tr.sink.tbl), n*(1+others))
	}
	moved := netip.AddrFrom4([4]byte{10, 0, 0, 1})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		info := src.truth[moved]
		info.Metric++
		src.truth[moved] = info
		src.watch(info.Covering)
		src.deliver(0)
		tr.settle()
	}
	b.StopTimer()
	if r := lookup(tr.sink, mustP("20.0.0.0/24")); r == nil || lookup(p1.resolver, r.Net).IGPMetric != src.truth[moved].Metric {
		b.Fatalf("the change did not reach the routes via %v", moved)
	}
}
