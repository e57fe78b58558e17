package rib

import (
	"net/netip"
	"reflect"
	"runtime"
	"runtime/metrics"
	"slices"
	"strings"
	"testing"
	"time"

	"xorp/internal/core"
	"xorp/internal/eventloop"
	"xorp/internal/route"
)

// These tests pin where the RIB keeps a route: in its origin table and in
// the ExtInt stage's final table, nowhere else.

// routeHolders lists the fields of v's struct type (embedded structs
// flattened) whose type can hold a route.Entry, following pointers, slices,
// arrays, maps and structs; interfaces and funcs are other stages and
// callbacks, not storage. A route.Stored is a route the same.
func routeHolders(v any) []string {
	seen := map[reflect.Type]bool{}
	var holds func(t reflect.Type) bool
	holds = func(t reflect.Type) bool {
		if k := t.Kind(); k == reflect.Interface || k == reflect.Func { // a link or a rule, not storage
			return false
		}
		if name := t.String(); strings.Contains(name, "route.Entry") || strings.Contains(name, "route.Stored") { // the type itself, or a generic container of it
			return true
		}
		if seen[t] {
			return false
		}
		seen[t] = true
		switch t.Kind() {
		case reflect.Pointer, reflect.Slice, reflect.Array:
			return holds(t.Elem())
		case reflect.Map:
			return holds(t.Key()) || holds(t.Elem())
		case reflect.Struct:
			for i := 0; i < t.NumField(); i++ {
				if holds(t.Field(i).Type) {
					return true
				}
			}
		}
		return false
	}
	var out []string
	var fields func(t reflect.Type)
	fields = func(t reflect.Type) {
		for i := 0; i < t.NumField(); i++ {
			if f := t.Field(i); f.Anonymous && f.Type.Kind() == reflect.Struct {
				fields(f.Type)
			} else if holds(f.Type) {
				out = append(out, f.Name)
			}
		}
	}
	fields(reflect.TypeOf(v))
	return out
}

// loadedOverCover returns a RIB holding n EBGP routes on 4 nexthops that
// resolve through one static cover, with a FIB client that discards.
func loadedOverCover(t testing.TB, n int) *Process {
	t.Helper()
	p := NewProcess(eventloop.New(eventloop.NewSimClock(time.Unix(0, 0))), discardFIB{}, nil)
	if err := p.AddRoute(route.ProtoStatic, route.Entry{
		Net: mustP("172.16.0.0/12"), NextHop: mustA("192.168.1.254"), IfName: "eth0"}); err != nil {
		t.Fatal(err)
	}
	run := make([]route.Entry, 0, 1024)
	for i := 0; i < n; i += len(run) {
		run = run[:0]
		for j := i; j < min(i+cap(run), n); j++ {
			run = append(run, route.Entry{
				Net:     netip.PrefixFrom(netip.AddrFrom4([4]byte{byte(20 + j>>16), byte(j >> 8), byte(j), 0}), 24),
				NextHop: netip.AddrFrom4([4]byte{172, 16, 0, byte(1 + j%4)}),
			})
		}
		if err := p.AddRoutes(route.ProtoEBGP, run); err != nil {
			t.Fatal(err)
		}
	}
	if p.Len() != n+1 {
		t.Fatalf("loaded %d routes, want %d", p.Len(), n+1)
	}
	return p
}

type discardFIB struct{}

func (discardFIB) FIBApplyBatch(*FIBBatch) {}

// TestNexthopIndexKeysBothFamilies: the index tells apart prefixes that
// share an address but not a length, in both families. One internal run
// moves an IPv4 and an IPv6 nexthop, each carrying such a pair: all four
// routes are re-announced, each family's in prefix order, and withdrawing
// one route of a pair leaves the other linked.
func TestNexthopIndexKeysBothFamilies(t *testing.T) {
	rec := &streamRec{}
	p := NewProcess(eventloop.New(eventloop.NewSimClock(time.Unix(0, 0))), rec, nil)
	s := p.extint
	static, ext := p.origins[route.ProtoStatic], p.origins[route.ProtoEBGP]
	nh4, nh6 := mustA("172.16.0.1"), mustA("2001:db8:ffff::1")
	static.AddRoutes([]route.Entry{
		{Net: mustP("172.16.0.0/12"), NextHop: mustA("192.168.1.254"), IfName: "eth0"},
		{Net: mustP("2001:db8:ffff::/48"), NextHop: mustA("fe80::1"), IfName: "eth0"},
	})
	ext.AddRoutes([]route.Entry{
		{Net: mustP("10.0.0.0/8"), NextHop: nh4},
		{Net: mustP("10.0.0.0/16"), NextHop: nh4},
		{Net: mustP("2001:db8:1::/48"), NextHop: nh6},
		{Net: mustP("2001:db8:1::/64"), NextHop: nh6},
	})
	if len(s.nexthops) != 2 || s.AnnouncedLen() != 6 {
		t.Fatalf("loaded: %d index entries, %d announced; want 2 and 6", len(s.nexthops), s.AnnouncedLen())
	}
	// moveBoth moves both nexthops onto ifName, by adding their more
	// specific internal routes or withdrawing them, and returns the
	// prefixes the move re-announced, in stream order.
	moveBoth := func(add bool, ifName string) []string {
		rec.ops = nil
		covers := []route.Entry{
			{Net: mustP("172.16.0.0/24"), NextHop: mustA("192.168.2.254"), IfName: "eth1"},
			{Net: mustP("2001:db8:ffff::/64"), NextHop: mustA("fe80::2"), IfName: "eth1"},
		}
		if add {
			static.AddRoutes(covers)
		} else {
			static.DeleteRoutes([]netip.Prefix{covers[0].Net, covers[1].Net})
		}
		var moved []string
		for _, op := range rec.ops {
			if f := strings.Fields(op); f[0] == "replace" && f[3] == ifName {
				moved = append(moved, f[2])
			}
		}
		return moved
	}
	want := []string{"10.0.0.0/8", "10.0.0.0/16", "2001:db8:1::/48", "2001:db8:1::/64"}
	for i := range 8 { // map order differs run to run: the order is the sort's
		if got := moveBoth(true, "eth1"); !slices.Equal(got, want) {
			t.Fatalf("move %d onto eth1 re-announced %v, want %v", i, got, want)
		}
		if got := moveBoth(false, "eth0"); !slices.Equal(got, want) {
			t.Fatalf("move %d back onto eth0 re-announced %v, want %v", i, got, want)
		}
	}

	ext.DeleteRoutes([]netip.Prefix{mustP("10.0.0.0/16"), mustP("2001:db8:1::/64")})
	if len(s.nexthops) != 2 || s.ExternalRouteCount() != 2 {
		t.Fatalf("after withdrawing one of each pair: %d index entries, %d external routes; want 2 and 2", len(s.nexthops), s.ExternalRouteCount())
	}
	if got, want := moveBoth(true, "eth1"), []string{"10.0.0.0/8", "2001:db8:1::/48"}; !slices.Equal(got, want) {
		t.Fatalf("moving the nexthops after the withdrawals re-announced %v, want %v", got, want)
	}
	ext.DeleteRoutes([]netip.Prefix{mustP("10.0.0.0/8"), mustP("2001:db8:1::/48")})
	if len(s.nexthops) != 0 {
		t.Fatalf("after withdrawing every external route: %d index entries", len(s.nexthops))
	}
}

// TestNexthopMoveCostsItsRoutes: moving a nexthop that 10 routes ride on,
// under 100,000 routes on other nexthops, reads the external table for
// the changed prefix itself and those 10 routes, and no others. BenchmarkNexthopMoveUnderFullTable times it.
func TestNexthopMoveCostsItsRoutes(t *testing.T) {
	p := loadedOverCover(t, 100000)
	addMoving(t, p)
	counted := &countingTable{bestSource: p.extint.ext}
	p.extint.ext = counted
	start := time.Now()
	if err := p.AddRoute(route.ProtoStatic, moveCover); err != nil {
		t.Fatal(err)
	}
	t.Logf("moving a 10-route nexthop under %d routes took %v", p.Len(), time.Since(start))
	if counted.exact != 11 {
		t.Fatalf("moving a 10-route nexthop read the external table %d times, want 11", counted.exact)
	}
	if e := (route.Entry{}); !p.extint.Lookup(mustP("40.0.3.0/24"), &e) || e.IfName != "eth1" {
		t.Fatalf("a route on the moved nexthop reads %v; want it on eth1", e)
	}
}

// moveCover is an internal route that moves addMoving's nexthop, and only
// it, from eth0 to eth1.
var moveCover = route.Entry{Net: mustP("172.16.9.0/24"), NextHop: mustA("192.168.2.254"), IfName: "eth1"}

// addMoving adds 10 external routes on a nexthop of their own, under
// loadedOverCover's cover.
func addMoving(t testing.TB, p *Process) {
	t.Helper()
	run := make([]route.Entry, 10)
	for i := range run {
		run[i] = route.Entry{Net: netip.PrefixFrom(netip.AddrFrom4([4]byte{40, 0, byte(i), 0}), 24), NextHop: mustA("172.16.9.9")}
	}
	if err := p.AddRoutes(route.ProtoEBGP, run); err != nil {
		t.Fatal(err)
	}
}

// The emission scratch (core.Base's buf) is the one []route.Entry a stage
// owns besides its table; Flush clears it, so between calls it holds
// nothing.
func scratchIsEmpty(b *core.Base[route.Entry]) bool {
	buf := reflect.ValueOf(b).Elem().FieldByName("buf")
	for i, all := 0, buf.Slice(0, buf.Cap()); i < all.Len(); i++ {
		if !all.Index(i).IsZero() {
			return false
		}
	}
	return buf.Len() == 0
}

func TestRegisterHoldsNoRoutes(t *testing.T) {
	if got := routeHolders(RegisterStage{}); !slices.Equal(got, []string{"buf"}) {
		t.Fatalf("RegisterStage fields that can hold a route: %v, want only the emission scratch", got)
	}
	p := loadedOverCover(t, 100)
	if !scratchIsEmpty(&p.register.Base) {
		t.Fatal("RegisterStage scratch holds routes between calls")
	}
}

func TestExtIntHoldsOneTable(t *testing.T) {
	if got := routeHolders(ExtIntStage{}); !slices.Equal(got, []string{"buf", "announced", "answer"}) {
		t.Fatalf("ExtIntStage fields that can hold a route: %v, want the emission scratch, announced and the lookup slot", got)
	}
	p := loadedOverCover(t, 100)
	if !scratchIsEmpty(&p.extint.Base) || !reflect.ValueOf(p.extint.answer).IsZero() {
		t.Fatal("ExtIntStage scratch holds routes between calls")
	}
}

// TestRIBBytesPerRoute pins the live heap a route costs inside the RIB: a
// 32-byte leaf (a 16-byte header and a 16-byte route.Stored in one
// allocation; a valued node with children is 48 bytes, its child pair
// after the header) and, on this dense table, a 32-byte glue node in each
// of two tables (origin table, final table), and a word in the nexthop
// index. It measures 165 B, 142 of them scanned by the collector on every
// cycle (/gc/scan/heap:bytes); each bound is 8 % above.
func TestRIBBytesPerRoute(t *testing.T) {
	const n, bound, scanBound = 50000, 178, 153
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	scanBefore := heapScanBytes()
	p := loadedOverCover(t, n)
	runtime.GC()
	runtime.ReadMemStats(&after)
	perRoute := float64(after.HeapAlloc-before.HeapAlloc) / n
	scanned := (float64(heapScanBytes()) - float64(scanBefore)) / n
	runtime.KeepAlive(p)
	t.Logf("%.0f B of live heap per route, %.0f B of it scanned", perRoute, scanned)
	if perRoute > bound || scanned > scanBound {
		t.Fatalf("%.0f B of live heap per route, bound %d; %.0f B scanned, bound %d", perRoute, bound, scanned, scanBound)
	}
}

// heapScanBytes reads /gc/scan/heap:bytes, the heap the collector scans
// on every cycle, as of the last GC.
func heapScanBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/scan/heap:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// TestTableReadsAllocateNothing: rebuilding the entry from the stored
// value and its key costs a read no allocation, in either RIB table.
func TestTableReadsAllocateNothing(t *testing.T) {
	p := loadedOverCover(t, 100)
	net, dst := mustP("20.0.7.0/24"), mustA("20.0.7.9")
	for name, tbl := range map[string]bestSource{"OriginTable": p.origins[route.ProtoEBGP], "ExtIntStage": p.extint} {
		var e route.Entry
		ok := tbl.Lookup(net, &e)
		if best, bestOK := tbl.LookupBest(dst); !ok || !bestOK || e.Net != net || !best.Equal(e) {
			t.Fatalf("%s: Lookup(%v) = %v, %v; LookupBest(%v) = %v, %v", name, net, e, ok, dst, best, bestOK)
		}
		if n := testing.AllocsPerRun(100, func() { tbl.Lookup(net, &e) }); n != 0 {
			t.Errorf("%s.Lookup allocates %.1f/op", name, n)
		}
		if n := testing.AllocsPerRun(100, func() { tbl.LookupBest(dst) }); n != 0 {
			t.Errorf("%s.LookupBest allocates %.1f/op", name, n)
		}
	}
}

// countingTable counts the lookups the ExtInt stage makes on a parent:
// longest matches (the internal side's) and exact ones (the external's).
type countingTable struct {
	bestSource
	best, exact int
}

func (c *countingTable) LookupBest(addr netip.Addr) (route.Entry, bool) {
	c.best++
	return c.bestSource.LookupBest(addr)
}

func (c *countingTable) Lookup(net netip.Prefix, e *route.Entry) bool {
	c.exact++
	return c.bestSource.Lookup(net, e)
}

// TestInternalChangeTouchesNexthopsNotRoutes: under 10,000 external routes
// on 4 nexthops, an internal change re-resolves the 4 index entries it can
// move — not every route — and none when it covers no nexthop.
func TestInternalChangeTouchesNexthopsNotRoutes(t *testing.T) {
	rec := &streamRec{}
	p := NewProcess(eventloop.New(eventloop.NewSimClock(time.Unix(0, 0))), rec, nil)
	s := p.extint
	counted := &countingTable{bestSource: s.int}
	s.int = counted
	static, ext := p.origins[route.ProtoStatic], p.origins[route.ProtoEBGP]

	static.AddRoutes([]route.Entry{{Net: mustP("172.16.0.0/12"), NextHop: mustA("192.168.1.254"), IfName: "eth0"}})
	const n = 10000
	run := make([]route.Entry, n)
	for i := range run {
		run[i] = route.Entry{
			Net:     netip.PrefixFrom(netip.AddrFrom4([4]byte{20, byte(i >> 8), byte(i), 0}), 24),
			NextHop: netip.AddrFrom4([4]byte{172, 16, 0, byte(1 + i%4)}),
		}
	}
	ext.AddRoutes(run)
	if counted.best != 4 || len(s.nexthops) != 4 || len(rec.ops) != n+1 {
		t.Fatalf("loading %d routes on 4 nexthops: %d longest matches, %d index entries, %d FIB ops",
			n, counted.best, len(s.nexthops), len(rec.ops))
	}

	counted.best, rec.ops = 0, nil
	static.AddRoutes([]route.Entry{{Net: mustP("30.0.0.0/8"), NextHop: mustA("192.168.1.254"), IfName: "eth0"}})
	if counted.best != 0 || len(rec.ops) != 1 {
		t.Fatalf("a change covering no nexthop: %d longest matches, FIB ops %v", counted.best, rec.ops)
	}

	counted.best, rec.ops = 0, nil
	static.AddRoutes([]route.Entry{{Net: mustP("172.16.0.0/24"), NextHop: mustA("192.168.2.254"), IfName: "eth1"}})
	if counted.best != 4 || len(rec.ops) != n+1 {
		t.Fatalf("a more specific cover: %d longest matches (want 4), %d FIB ops (want %d)", counted.best, len(rec.ops), n+1)
	}

	// The index follows the routes out.
	nets := make([]netip.Prefix, n)
	for i := range run {
		nets[i] = run[i].Net
	}
	ext.DeleteRoutes(nets)
	if len(s.nexthops) != 0 || s.ExternalRouteCount() != 0 || s.AnnouncedLen() != 3 {
		t.Fatalf("after withdrawing every external route: %d index entries, %d external routes, %d announced",
			len(s.nexthops), s.ExternalRouteCount(), s.AnnouncedLen())
	}
}
