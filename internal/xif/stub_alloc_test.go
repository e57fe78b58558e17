package xif_test

import (
	"net/netip"
	"testing"
	"time"

	"xorp/internal/eventloop"
	"xorp/internal/finder"
	"xorp/internal/route"
	"xorp/internal/xif"
	"xorp/internal/xipc"
	"xorp/internal/xrl"
)

// stubRig is a sender Router and a sink Router on one Hub and one loop,
// resolved through a real Finder: the intra-process hop a single-route
// stub call takes between the protocols, the RIB and the FEA.
type stubRig struct {
	loop    *eventloop.Loop
	rib     *xif.RIBClient
	fti     *xif.FTIClient
	handled map[string]int
}

// The sink's targets, each with the single-route methods it answers.
var sinkTargets = []struct {
	name    string
	spec    *xif.Spec
	methods []string
}{
	{"rib", xif.RIBSpec, []string{"add_route4", "delete_route4"}},
	{"fea", xif.FTISpec, []string{"add_entry4", "delete_entry4"}},
}

func newStubRig(tb testing.TB) *stubRig {
	tb.Helper()
	g := &stubRig{loop: eventloop.New(eventloop.NewSimClock(time.Unix(0, 0))), handled: make(map[string]int)}
	hub := xipc.NewHub()
	f := finder.New(g.loop)
	f.AttachHub(hub)
	sink := xipc.NewRouter("sink_process", g.loop)
	sink.AttachHub(hub)
	for _, st := range sinkTargets {
		t := xipc.NewTarget(st.name, st.name)
		for _, m := range st.methods {
			cmd := st.spec.Command(m)
			t.Register(st.spec.Name, st.spec.Version, m, func(xrl.Args) (xrl.Args, error) {
				g.handled[cmd]++
				return nil, nil
			})
		}
		sink.AddTarget(t)
		var regErr error
		finder.RegisterTarget(sink, t, true, func(err error) { regErr = err })
		g.loop.RunPending()
		if regErr != nil {
			tb.Fatalf("register %s: %v", st.name, regErr)
		}
	}
	send := xipc.NewRouter("sender_process", g.loop)
	send.AttachHub(hub)
	g.rib, g.fti = xif.NewRIBClient(send, "rib"), xif.NewFTIClient(send, "fea")
	return g
}

var (
	loneNet  = netip.MustParsePrefix("20.1.0.0/16")
	loneNets = []netip.Prefix{loneNet}
)

// stubCalls are the single-route stub calls, each a run of one: the route
// with and without its optional next hop, interface name and tags.
func (g *stubRig) stubCalls() []struct {
	name string
	send func()
} {
	nh := netip.MustParseAddr("10.0.0.1")
	runs := map[string][]route.Entry{
		"bare":      {{Net: loneNet, Metric: 5}},
		"nexthop":   {{Net: loneNet, NextHop: nh, Metric: 5}},
		"full":      {{Net: loneNet, NextHop: nh, Metric: 5, IfName: "eth0"}},
		"tagged":    {{Net: loneNet, NextHop: nh, Metric: 5, IfName: "eth0", PolicyTags: []uint32{7, 9}}},
		"no metric": {{Net: loneNet, NextHop: nh, IfName: "eth0"}},
	}
	type call = struct {
		name string
		send func()
	}
	var calls []call
	for _, k := range []string{"bare", "nexthop", "full", "tagged"} {
		run := runs[k]
		calls = append(calls, call{"RIBClient.AddRoutes4 " + k, func() { g.rib.AddRoutes4("ebgp", run, nil) }})
	}
	calls = append(calls, call{"RIBClient.DeleteRoutes4", func() { g.rib.DeleteRoutes4("ebgp", loneNets, nil) }})
	for _, k := range []string{"full", "no metric"} {
		run := runs[k]
		calls = append(calls, call{"FTIClient.AddEntries4 " + k, func() { g.fti.AddEntries4(run, nil) }})
	}
	calls = append(calls, call{"FTIClient.DeleteEntries4", func() { g.fti.DeleteEntries4(loneNets, nil) }})
	return calls
}

// A run of one travels as the single-route XRL, whose arguments the stub
// builds on its stack and the call record copies: in steady state the
// send, the hop and the reply allocate nothing. A tagged route's
// policytags list is the one exception: a list's items are the caller's,
// one allocation per list, as in the list XRLs.
func TestSingleRouteStubsAllocateNothing(t *testing.T) {
	g := newStubRig(t)
	for _, c := range g.stubCalls() {
		round := func() {
			c.send()
			g.loop.RunPending()
		}
		round() // resolves through the Finder and caches
		want := 0.0
		if c.name == "RIBClient.AddRoutes4 tagged" {
			want = 1
		}
		if got := testing.AllocsPerRun(200, round); got != want {
			t.Errorf("%s: %.2f allocations per call, want %.0f", c.name, got, want)
		}
	}
	for _, st := range sinkTargets {
		for _, m := range st.methods {
			if g.handled[st.spec.Command(m)] == 0 {
				t.Errorf("no run of one arrived as %s", st.spec.Command(m))
			}
		}
	}
}

// BenchmarkStubSend prices one single-route stub call over the hub, from
// the stub to its reply.
func BenchmarkStubSend(b *testing.B) {
	g := newStubRig(b)
	for _, c := range g.stubCalls() {
		b.Run(c.name, func(b *testing.B) {
			c.send()
			g.loop.RunPending()
			b.ReportAllocs()
			for b.Loop() {
				c.send()
				g.loop.RunPending()
			}
		})
	}
}
