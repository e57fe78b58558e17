package rib

import (
	"net/netip"
	"testing"
	"time"

	"xorp/internal/eventloop"
	"xorp/internal/route"
)

func loadedRib(b *testing.B, n int) *Process {
	b.Helper()
	loop := eventloop.New(eventloop.NewSimClock(time.Unix(0, 0)))
	p := NewProcess(loop, nil, nil)
	for i := 0; i < n; i++ {
		net := netip.PrefixFrom(netip.AddrFrom4([4]byte{
			byte(1 + i%200), byte(i >> 8), byte(i), 0}), 24)
		p.AddRoute(route.ProtoStatic, route.Entry{
			Net: net, NextHop: netip.AddrFrom4([4]byte{10, 0, 0, 1}), IfName: "eth0",
		})
	}
	return p
}

// BenchmarkRegisterInterest measures the Figure 8 covering-subnet
// computation against a large table — the operation every BGP nexthop
// lookup performs.
func BenchmarkRegisterInterest(b *testing.B) {
	p := loadedRib(b, 100000)
	rs := p.register
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		addr := netip.AddrFrom4([4]byte{byte(1 + i%200), byte(i >> 6), byte(i), 7})
		ans := rs.RegisterInterest("bench", addr)
		rs.DeregisterInterest("bench", ans.Covering)
	}
}

// BenchmarkRIBAddDelete measures one route's full traversal of the RIB
// stage network (origin → merges → extint → register).
func BenchmarkRIBAddDelete(b *testing.B) {
	p := loadedRib(b, 100000)
	net := netip.MustParsePrefix("10.200.1.0/24")
	e := route.Entry{Net: net, NextHop: netip.AddrFrom4([4]byte{10, 0, 0, 1}), IfName: "eth0"}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.AddRoute(route.ProtoRIP, e)
		p.DeleteRoute(route.ProtoRIP, net)
	}
}

// BenchmarkRIBLoad1k measures table-load throughput per 1000 routes:
// 1000 runs of one (AddRoute) vs one run of 1000 (AddRoutes).
func BenchmarkRIBLoad1k(b *testing.B) {
	entries := make([]route.Entry, 1000)
	for i := range entries {
		entries[i] = route.Entry{
			Net: netip.PrefixFrom(netip.AddrFrom4([4]byte{
				byte(1 + i%200), byte(i >> 8), byte(i), 0}), 24),
			NextHop: netip.AddrFrom4([4]byte{10, 0, 0, 1}),
			IfName:  "eth0",
		}
	}
	bench := func(b *testing.B, load func(p *Process)) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			loop := eventloop.New(eventloop.NewSimClock(time.Unix(0, 0)))
			load(NewProcess(loop, nil, nil))
		}
	}
	b.Run("single", func(b *testing.B) {
		bench(b, func(p *Process) {
			for _, e := range entries {
				p.AddRoute(route.ProtoEBGP, e)
			}
		})
	})
	b.Run("batch", func(b *testing.B) {
		bench(b, func(p *Process) {
			p.AddRoutes(route.ProtoEBGP, entries)
		})
	})
}

// BenchmarkExtIntResolution measures recursive nexthop resolution: an
// IBGP route resolving through an IGP route.
func BenchmarkExtIntResolution(b *testing.B) {
	p := loadedRib(b, 10000)
	p.AddRoute(route.ProtoRIP, route.Entry{
		Net: netip.MustParsePrefix("10.9.9.0/24"), NextHop: netip.AddrFrom4([4]byte{10, 0, 0, 7}), IfName: "eth1", Metric: 2,
	})
	e := route.Entry{Net: netip.MustParsePrefix("172.16.0.0/12"), NextHop: netip.MustParseAddr("10.9.9.9")}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.AddRoute(route.ProtoIBGP, e)
		p.DeleteRoute(route.ProtoIBGP, e.Net)
	}
}

// BenchmarkInternalChangeUnderExternal measures one internal route added
// and withdrawn under 10,000 external routes on 4 nexthops it does not
// cover: the ExtInt stage checks 4 index entries, not 10,000 routes.
func BenchmarkInternalChangeUnderExternal(b *testing.B) {
	p := loadedOverCover(b, 10000)
	e := route.Entry{Net: netip.MustParsePrefix("30.0.0.0/8"), NextHop: netip.AddrFrom4([4]byte{192, 168, 1, 254}), IfName: "eth0"}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.AddRoute(route.ProtoRIP, e)
		p.DeleteRoute(route.ProtoRIP, e.Net)
	}
}

// BenchmarkNexthopMoveUnderFullTable moves a nexthop that 10 routes ride on
// and back, under 100,000 external routes on 4 other nexthops: two moves
// an op, each O(the 10 routes), not O(the table).
func BenchmarkNexthopMoveUnderFullTable(b *testing.B) {
	p := loadedOverCover(b, 100000)
	addMoving(b, p)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.AddRoute(route.ProtoStatic, moveCover)
		p.DeleteRoute(route.ProtoStatic, moveCover.Net)
	}
}
