package bgp

import (
	"net/netip"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"xorp/internal/eventloop"
	"xorp/internal/telemetry"
	"xorp/internal/xipc"
	"xorp/internal/xrl"
)

func newTelemetryProc(t *testing.T) *Process {
	t.Helper()
	loop := eventloop.New(eventloop.NewSimClock(time.Unix(0, 0)))
	p := NewProcess(loop, Config{AS: 65000, BGPID: netip.MustParseAddr("10.0.0.1")}, nil, nil)
	if _, err := p.AddPeer(PeerConfig{
		Name:     "feed",
		PeerAddr: netip.MustParseAddr("192.0.2.1"),
		PeerAS:   65001,
	}); err != nil {
		t.Fatal(err)
	}
	return p
}

// TestPeerInRoutesGaugeCountsDeletion: bgp_peerin_routes counts what the
// RIB-in stores, so a dead session's routes count until its deletion stage
// has withdrawn them — downstream still holds them until then.
func TestPeerInRoutesGaugeCountsDeletion(t *testing.T) {
	p := newTelemetryProc(t)
	const n = 100
	u := &UpdateMsg{Attrs: attrsVia("192.0.2.1", 65001)}
	for i := 0; i < n; i++ {
		u.NLRI = append(u.NLRI, modelNet(i))
	}
	if err := p.InjectUpdate("feed", u); err != nil {
		t.Fatal(err)
	}
	gauge := func(when string, want float64) {
		t.Helper()
		if got, _ := p.Metrics().Get("bgp_peerin_routes"); got != want {
			t.Fatalf("%s: bgp_peerin_routes = %v, want %v", when, got, want)
		}
	}
	gauge("loaded", n)
	peer, _ := p.Peer("feed")
	d := peer.peerin.PeerDown()
	gauge("after PeerDown, before the drain", n)
	for !d.Done() {
		d.step()
	}
	gauge("drained", 0)
}

// TestDisabledProfilerZeroAlloc pins the §8.2 guard discipline: with
// every stage of the process's tracer off (the default), the UPDATE
// injection path pays one load per guard and nothing else. A withdraw of
// an unknown prefix passes the peer-in guard without mutating any table,
// so the steady state is exactly zero allocations.
func TestDisabledProfilerZeroAlloc(t *testing.T) {
	p := newTelemetryProc(t)
	u := &UpdateMsg{Withdrawn: []netip.Prefix{netip.MustParsePrefix("203.0.113.0/24")}}
	allocs := testing.AllocsPerRun(500, func() {
		if err := p.InjectUpdate("feed", u); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("disabled-profiler inject path allocates %.1f/op, want 0", allocs)
	}
}

// TestDisabledTracerZeroExtraAlloc pins the tracing seam's cost when
// compiled in but disabled: announcing and withdrawing routes through a
// process with its own tracer, every stage off, must allocate exactly as
// much as a process with no tracer at all.
func TestDisabledTracerZeroExtraAlloc(t *testing.T) {
	attrs := &PathAttrs{
		Origin:  OriginIGP,
		ASPath:  ASPath{}.Prepend(65001),
		NextHop: netip.MustParseAddr("192.0.2.1"),
	}
	net := netip.MustParsePrefix("198.51.100.0/24")
	cycle := func(p *Process) func() {
		u := &UpdateMsg{Attrs: attrs, NLRI: []netip.Prefix{net}}
		w := &UpdateMsg{Withdrawn: []netip.Prefix{net}}
		return func() {
			if err := p.InjectUpdate("feed", u); err != nil {
				t.Fatal(err)
			}
			if err := p.InjectUpdate("feed", w); err != nil {
				t.Fatal(err)
			}
		}
	}

	plain := newTelemetryProc(t)
	plain.SetTracer(nil)
	base := testing.AllocsPerRun(500, cycle(plain))

	traced := newTelemetryProc(t)
	tr := telemetry.NewTracer() // wired but never enabled
	traced.SetTracer(tr)
	withTracer := testing.AllocsPerRun(500, cycle(traced))

	if withTracer > base {
		t.Fatalf("disabled tracer costs %.1f allocs/cycle vs %.1f without", withTracer, base)
	}
	if n := len(tr.Take()); n != 0 {
		t.Fatalf("disabled tracer collected %d traces", n)
	}
}

// TestEntryPointRecordsEveryRoute: route_ribin, switched on over
// profile/0.1, records each route of an UPDATE as it enters BGP, and a
// withdrawal as a delete.
func TestEntryPointRecordsEveryRoute(t *testing.T) {
	loop := eventloop.New(nil)
	router := xipc.NewRouter("bgp_process", loop)
	p := NewProcess(loop, Config{AS: 65000, BGPID: netip.MustParseAddr("10.0.0.1")}, nil, nil)
	target := xipc.NewTarget("bgp", "bgp")
	p.RegisterXRLs(target)
	router.AddTarget(target)
	go loop.Run()
	defer loop.Stop()
	loop.DispatchAndWait(func() {
		if _, err := p.AddPeer(PeerConfig{Name: "feed", PeerAddr: netip.MustParseAddr("192.0.2.1"), PeerAS: 65001}); err != nil {
			t.Error(err)
		}
	})

	profile := func(method string) []string {
		t.Helper()
		args, err := router.Call(xrl.New("bgp", "profile", "0.1", method, xrl.Text("pname", "route_ribin")))
		if err != nil {
			t.Fatalf("%s: %v", method, err)
		}
		items, _ := args.ListArg("entries")
		var verbs []string
		for _, it := range items {
			f := strings.Fields(it.TextVal) // route_ribin <sec> <usec> <verb> <net>
			verbs = append(verbs, f[3]+" "+f[4])
		}
		sort.Strings(verbs)
		return verbs
	}
	inject := func(u *UpdateMsg) {
		loop.DispatchAndWait(func() {
			if err := p.InjectUpdate("feed", u); err != nil {
				t.Error(err)
			}
		})
	}
	nets := []netip.Prefix{
		netip.MustParsePrefix("172.16.0.0/24"),
		netip.MustParsePrefix("172.16.1.0/24"),
		netip.MustParsePrefix("172.16.2.0/24"),
	}
	profile("enable")
	inject(&UpdateMsg{Attrs: attrsVia("192.0.2.1", 65001), NLRI: nets})
	want := []string{"add 172.16.0.0/24", "add 172.16.1.0/24", "add 172.16.2.0/24"}
	if got := profile("get_entries"); !slices.Equal(got, want) {
		t.Fatalf("after the announcement: %q, want %q", got, want)
	}
	profile("clear")
	inject(&UpdateMsg{Withdrawn: nets})
	want = []string{"delete 172.16.0.0/24", "delete 172.16.1.0/24", "delete 172.16.2.0/24"}
	if got := profile("get_entries"); !slices.Equal(got, want) {
		t.Fatalf("after the withdrawal: %q, want %q", got, want)
	}
}
