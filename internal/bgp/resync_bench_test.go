package bgp

import (
	"math/rand"
	"net/netip"
	"testing"
	"time"

	"xorp/internal/eventloop"
)

// BenchmarkResyncMember prices a session bounce: the member of a group of
// one is replayed a 146,515-route table learned from one feed peer over
// 16,384 attribute sets in UPDATEs of 8 NLRI — the bulk workload's shape.
// One op is one ResyncMember, packing and encoding included.
func BenchmarkResyncMember(b *testing.B) {
	const routes, sets, perUpdate = 146515, 16384, 8
	loop := eventloop.New(eventloop.NewSimClock(time.Unix(0, 0)))
	dec := NewDecision("decision")
	fan := NewFanout("fanout", loop)
	Plumb(dec, fan)
	feed := testPeer("feed", "10.0.0.1", 65001, false)
	in := NewPeerIn(loop, feed, NewAttrPool())
	res := NewNexthopResolver("nexthop(feed)", &StaticMetricSource{})
	Plumb(in, res)
	dec.AddParent(res)

	member := testPeer("member", "10.0.0.2", 65002, false)
	g := NewGroupOut(member.Name)
	bank := NewFilterBank("out-filter(member)", FilterEBGPExport(65000, mustA("192.0.2.1")))
	Plumb(bank, g)
	fan.AddPeerBranch(member.Name, member, bank)
	var sent int64
	if err := g.AddMember(member, GroupSenderFunc(func(buf []byte) { sent += int64(len(buf)) })); err != nil {
		b.Fatal(err)
	}

	r := rand.New(rand.NewSource(1))
	nexthops := []netip.Addr{mustA("172.16.0.1"), mustA("172.16.0.2"), mustA("172.16.0.3"), mustA("172.16.0.4")}
	attrs := make([]*PathAttrs, sets)
	for i := range attrs {
		seg := ASSegment{Type: SegSequence, ASes: []uint16{65001}}
		for n := 1 + r.Intn(5); n > 0; n-- {
			seg.ASes = append(seg.ASes, uint16(1+r.Intn(64000)))
		}
		attrs[i] = &PathAttrs{Origin: uint8(r.Intn(3)), ASPath: ASPath{seg}, NextHop: nexthops[r.Intn(len(nexthops))]}
		if r.Intn(3) == 0 {
			attrs[i].MED, attrs[i].HasMED = uint32(r.Intn(200)), true
		}
	}
	seen := make(map[netip.Prefix]bool, routes)
	nets := make([]netip.Prefix, 0, routes)
	for len(nets) < routes {
		a := netip.AddrFrom4([4]byte{byte(1 + r.Intn(223)), byte(r.Intn(256)), byte(r.Intn(256)), byte(r.Intn(256))})
		if p, _ := a.Prefix(16 + r.Intn(9)); !seen[p] {
			seen[p] = true
			nets = append(nets, p)
		}
	}
	for off := 0; off < routes; off += perUpdate {
		in.ReceiveUpdate(&UpdateMsg{Attrs: attrs[r.Intn(sets)], NLRI: nets[off:min(off+perUpdate, routes)]}, 65000)
		loop.RunPending()
	}
	if got := g.MemberAnnouncedCount(member); got != routes {
		b.Fatalf("member told %d routes, want %d", got, routes)
	}

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sent = 0
		g.ResyncMember(member)
	}
	b.StopTimer()
	b.ReportMetric(float64(sent), "bytes/op")
}
