package rib

import (
	"net/netip"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

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

// The emission scratch (base.buf) is the one []route.Entry a stage owns
// besides its table; Flush clears it, so between calls it holds nothing.
func scratchIsEmpty(b *base) bool {
	return len(b.buf) == 0 && !slices.ContainsFunc(b.buf[:cap(b.buf)], func(e route.Entry) bool { return e.Net.IsValid() })
}

func TestRegisterHoldsNoRoutes(t *testing.T) {
	if got := routeHolders(RegisterStage{}); !slices.Equal(got, []string{"buf"}) {
		t.Fatalf("RegisterStage fields that can hold a route: %v, want only the emission scratch", got)
	}
	p := loadedOverCover(t, 100)
	if !scratchIsEmpty(&p.register.base) {
		t.Fatal("RegisterStage scratch holds routes between calls")
	}
}

func TestExtIntHoldsOneTable(t *testing.T) {
	if got := routeHolders(ExtIntStage{}); !slices.Equal(got, []string{"buf", "announced"}) {
		t.Fatalf("ExtIntStage fields that can hold a route: %v, want the emission scratch and announced", got)
	}
	p := loadedOverCover(t, 100)
	if !scratchIsEmpty(&p.extint.base) {
		t.Fatal("ExtIntStage scratch holds routes between calls")
	}
}

// TestRIBBytesPerRoute pins the live heap a route costs inside the RIB: a
// 96-byte valued node (header and route.Stored in one allocation) and, on
// this dense table, a 48-byte glue node in each of two tables (origin
// table, final table), and a bare prefix in the nexthop index. It measures
// 365 B. The bound sits 25 B above that, not 10 %: 10 % above would pass the
// mutable Trie's layout, which measured 398 B (a 56-byte node and a
// 48-byte value slot per route, a 56-byte glue node). With a 104-byte
// route.Entry in every slot it measured 516 B, and with 184-byte trie
// nodes that each stored a prefix and an inline entry, glue included,
// 845 B.
func TestRIBBytesPerRoute(t *testing.T) {
	const n, bound = 50000, 390
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	p := loadedOverCover(t, n)
	runtime.GC()
	runtime.ReadMemStats(&after)
	perRoute := float64(after.HeapAlloc-before.HeapAlloc) / n
	runtime.KeepAlive(p)
	t.Logf("%.0f B of live heap per route", perRoute)
	if perRoute > bound {
		t.Fatalf("%.0f B of live heap per route, bound %d", perRoute, bound)
	}
}

// TestTableReadsAllocateNothing: rebuilding the entry from the stored
// value and its key costs a read no allocation, in either RIB table.
func TestTableReadsAllocateNothing(t *testing.T) {
	p := loadedOverCover(t, 100)
	net, dst := mustP("20.0.7.0/24"), mustA("20.0.7.9")
	for name, tbl := range map[string]Table{"OriginTable": p.origins[route.ProtoEBGP], "ExtIntStage": p.extint} {
		e, ok := tbl.Lookup(net)
		if best, bestOK := tbl.LookupBest(dst); !ok || !bestOK || e.Net != net || !best.Equal(e) {
			t.Fatalf("%s: Lookup(%v) = %v, %v; LookupBest(%v) = %v, %v", name, net, e, ok, dst, best, bestOK)
		}
		if n := testing.AllocsPerRun(100, func() { tbl.Lookup(net) }); n != 0 {
			t.Errorf("%s.Lookup allocates %.1f/op", name, n)
		}
		if n := testing.AllocsPerRun(100, func() { tbl.LookupBest(dst) }); n != 0 {
			t.Errorf("%s.LookupBest allocates %.1f/op", name, n)
		}
	}
}

// countingTable counts the longest-match lookups the ExtInt stage makes on
// its internal parent.
type countingTable struct {
	Table
	best int
}

func (c *countingTable) LookupBest(addr netip.Addr) (route.Entry, bool) {
	c.best++
	return c.Table.LookupBest(addr)
}

// TestInternalChangeTouchesNexthopsNotRoutes: under 10,000 external routes
// on 4 nexthops, an internal change re-resolves the 4 index entries it can
// move — not every route — and none when it covers no nexthop.
func TestInternalChangeTouchesNexthopsNotRoutes(t *testing.T) {
	rec := &streamRec{}
	p := NewProcess(eventloop.New(eventloop.NewSimClock(time.Unix(0, 0))), rec, nil)
	s := p.extint
	counted := &countingTable{Table: s.int}
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
