package rib

import (
	"fmt"
	"testing"
	"time"

	"xorp/internal/eventloop"
	"xorp/internal/route"
)

// gracefulRib builds a RIB with a connected route (so EBGP nexthops
// resolve) and n EBGP routes installed.
func gracefulRib(t *testing.T, n int) (*Process, *fibRec, []route.Entry) {
	t.Helper()
	p, fib, _ := newRib(t)
	if err := p.AddRoute(route.ProtoConnected, connectedRoute("192.168.1.0/24", "eth0")); err != nil {
		t.Fatal(err)
	}
	es := make([]route.Entry, 0, n)
	for i := 0; i < n; i++ {
		e := route.Entry{
			Net:     mustP(fmt.Sprintf("10.%d.0.0/16", i+1)),
			NextHop: mustA("192.168.1.7"),
			Metric:  5,
		}
		es = append(es, e)
		if err := p.AddRoute(route.ProtoEBGP, e); err != nil {
			t.Fatal(err)
		}
	}
	if got := len(fib.tbl); got != n+1 {
		t.Fatalf("FIB has %d entries, want %d", got, n+1)
	}
	return p, fib, es
}

// A protocol death retains its routes in the FIB (marked stale), and
// identical re-announcements un-stale them with zero FIB churn.
func TestDeathRetainsRoutesAndRelearnIsSilent(t *testing.T) {
	p, fib, es := gracefulRib(t, 4)
	adds, dels := fib.adds, fib.dels

	p.HandleDeath("bgp")
	if fib.adds != adds || fib.dels != dels {
		t.Fatalf("death churned the FIB: adds %d->%d dels %d->%d", adds, fib.adds, dels, fib.dels)
	}
	if got := p.StaleCount(route.ProtoEBGP); got != 4 {
		t.Fatalf("stale count %d, want 4", got)
	}

	// The respawned process re-announces everything identically.
	for _, e := range es {
		if err := p.AddRoute(route.ProtoEBGP, e); err != nil {
			t.Fatal(err)
		}
	}
	if fib.adds != adds || fib.dels != dels {
		t.Fatalf("identical relearn churned the FIB: adds %d->%d dels %d->%d",
			adds, fib.adds, dels, fib.dels)
	}
	if got := p.StaleCount(route.ProtoEBGP); got != 0 {
		t.Fatalf("stale count after relearn %d, want 0", got)
	}
	if swept := p.ResyncComplete(route.ProtoEBGP); swept != 0 {
		t.Fatalf("resync swept %d routes, want 0", swept)
	}
	if got := len(fib.tbl); got != 5 {
		t.Fatalf("FIB has %d entries after resync, want 5", got)
	}
}

// Routes the respawned process no longer announces are swept at resync;
// the rest survive.
func TestResyncSweepsUnrelearnedRoutes(t *testing.T) {
	p, fib, es := gracefulRib(t, 4)
	p.HandleDeath("bgp")

	// Re-learn only the first two.
	for _, e := range es[:2] {
		if err := p.AddRoute(route.ProtoEBGP, e); err != nil {
			t.Fatal(err)
		}
	}
	if swept := p.ResyncComplete(route.ProtoEBGP); swept != 2 {
		t.Fatalf("resync swept %d routes, want 2", swept)
	}
	for _, e := range es[:2] {
		if _, ok := fib.tbl[e.Net]; !ok {
			t.Fatalf("relearned route %v missing from FIB", e.Net)
		}
	}
	for _, e := range es[2:] {
		if _, ok := fib.tbl[e.Net]; ok {
			t.Fatalf("unrelearned route %v still in FIB", e.Net)
		}
	}
	if got := p.StaleCount(route.ProtoEBGP); got != 0 {
		t.Fatalf("stale count after resync %d, want 0", got)
	}
}

// With no resync signal, the grace timer sweeps everything still stale.
func TestGraceTimerSweeps(t *testing.T) {
	p, fib, _ := gracefulRib(t, 3)
	loop := p.Loop()
	p.SetGracePeriod(30 * time.Second)
	loop.RunPending()

	p.HandleDeath("bgp")
	loop.RunFor(29 * time.Second)
	if got := len(fib.tbl); got != 4 {
		t.Fatalf("FIB has %d entries inside grace window, want 4", got)
	}
	loop.RunFor(2 * time.Second)
	if got := len(fib.tbl); got != 1 {
		t.Fatalf("FIB has %d entries after grace expiry, want 1 (connected)", got)
	}
	if got := p.StaleCount(route.ProtoEBGP); got != 0 {
		t.Fatalf("stale count after expiry %d, want 0", got)
	}
}

// A route re-announced with different attributes replaces in place and
// un-stales; a later resync must not sweep it.
func TestRelearnWithChangedAttrsReplaces(t *testing.T) {
	p, fib, es := gracefulRib(t, 1)
	p.HandleDeath("bgp")

	changed := es[0]
	changed.Metric = 9
	if err := p.AddRoute(route.ProtoEBGP, changed); err != nil {
		t.Fatal(err)
	}
	if swept := p.ResyncComplete(route.ProtoEBGP); swept != 0 {
		t.Fatalf("resync swept %d routes, want 0", swept)
	}
	e, ok := fib.tbl[changed.Net]
	if !ok || e.Metric != 9 {
		t.Fatalf("changed route not replaced in FIB: %v ok=%v", e, ok)
	}
}

// Deaths of classes owning no routes (or no origin) are harmless.
func TestDeathOfRoutelessClassIsNoop(t *testing.T) {
	p, fib, _ := gracefulRib(t, 2)
	before := len(fib.tbl)
	p.HandleDeath("ospf")
	p.HandleDeath("fea")
	p.HandleDeath("nonesuch")
	if len(fib.tbl) != before {
		t.Fatalf("FIB changed: %d -> %d", before, len(fib.tbl))
	}
	if p.StaleCount(route.ProtoOSPF) != 0 {
		t.Fatal("empty origin gained stale marks")
	}
}

// The sweep's delete run — and so the delete_entries4 list the FEA gets —
// is a function of the table, not of map iteration order: two identical
// sweeps produce the identical FIB op stream, in prefix order.
func TestSweepStaleIsDeterministic(t *testing.T) {
	const n = 96
	sweep := func() []string {
		loop := eventloop.New(eventloop.NewSimClock(time.Unix(0, 0)))
		rec := &streamRec{}
		p := NewProcess(loop, rec, nil)
		if err := p.AddRoute(route.ProtoConnected, connectedRoute("192.168.1.0/24", "eth0")); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			// Fed out of prefix order, so a sorted sweep is not insertion order.
			k := (i * 37) % n
			if err := p.AddRoute(route.ProtoEBGP, route.Entry{
				Net: mustP(fmt.Sprintf("10.%d.0.0/16", k+1)), NextHop: mustA("192.168.1.7")}); err != nil {
				t.Fatal(err)
			}
		}
		p.HandleDeath("bgp")
		rec.ops = nil
		if swept := p.ResyncComplete(route.ProtoEBGP); swept != n {
			t.Fatalf("swept %d, want %d", swept, n)
		}
		return rec.ops
	}
	first, second := sweep(), sweep()
	diffStreams(t, "second sweep vs first", first, second)
	for i, op := range first {
		if want := fmt.Sprintf("delete 10.%d.0.0/16 ebgp", i+1); op != want {
			t.Fatalf("op %d = %q, want %q (prefix order)", i, op, want)
		}
	}
}

// A redistribution stage lives as long as its subscriber, by the Finder
// events alone. A birth primes it afresh even over a mirror it holds (a
// stage spliced before its subscriber registered fed no one). A death
// quiets it: the subscriber hears no withdrawal, no add and no filter
// swap until the next birth primes it from the table. Other classes'
// events leave it alone.
func TestRedistFollowsSubscriberLifetime(t *testing.T) {
	p, _, _ := newRib(t)
	static := func(n int) route.Entry {
		return route.Entry{Net: mustP(fmt.Sprintf("10.%d.0.0/16", n)), NextHop: mustA("10.0.0.1"), IfName: "eth0"}
	}
	p.AddRoute(route.ProtoStatic, static(1))
	rec := newRedistRec()
	if _, err := p.AddRedist("r", "rip", nil, rec); err != nil {
		t.Fatal(err)
	}
	if rec.adds != 1 {
		t.Fatalf("AddRedist primed %d routes, want 1", rec.adds)
	}
	p.HandleFinderEvent("birth", "rip", "rip")
	if rec.adds != 2 || rec.dels != 0 || len(rec.got) != 1 {
		t.Fatalf("after a birth: %d adds, %d withdrawals, mirror %v; want one fresh add", rec.adds, rec.dels, rec.got)
	}

	p.HandleFinderEvent("death", "ospf", "ospf")
	p.AddRoute(route.ProtoStatic, static(2))
	if rec.adds != 3 {
		t.Fatalf("another class's death quieted the stage: %d adds", rec.adds)
	}
	p.HandleFinderEvent("death", "rip", "rip")
	p.AddRoute(route.ProtoStatic, static(3))
	p.DeleteRoute(route.ProtoStatic, static(1).Net)
	if err := p.SetRedistFilter("r", func(e route.Entry) *route.Entry { e.Metric = 7; return &e }); err != nil {
		t.Fatal(err)
	}
	if rec.adds != 3 || rec.dels != 0 || p.RedistMirrored("r") != 0 {
		t.Fatalf("while dead: %d adds, %d withdrawals, %d mirrored; want nothing sent or kept",
			rec.adds-3, rec.dels, p.RedistMirrored("r"))
	}

	p.HandleFinderEvent("birth", "rip", "rip")
	if rec.adds != 5 || rec.dels != 0 || p.RedistMirrored("r") != 2 {
		t.Fatalf("after the rebirth: %d adds, %d withdrawals, %d mirrored; want the table of 2",
			rec.adds-3, rec.dels, p.RedistMirrored("r"))
	}
	for _, n := range []int{2, 3} {
		if e := rec.got[static(n).Net]; e.Metric != 7 {
			t.Errorf("the rebirth primed %v at metric %d, want the swapped filter's 7", static(n).Net, e.Metric)
		}
	}
}
