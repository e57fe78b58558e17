package bgp

import (
	"net/netip"
	"testing"
	"time"

	"xorp/internal/eventloop"
	"xorp/internal/telemetry"
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
// every profile point disabled (the default), the UPDATE injection path
// must not pay the variadic boxing of Point.Logf. A withdraw of an
// unknown prefix exercises the full guarded path without mutating any
// table, so the steady state is exactly zero allocations.
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
// compiled in but disabled: announcing routes through a process with a
// wired-but-disabled Tracer must allocate exactly as much as a process
// with no tracer at all.
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
