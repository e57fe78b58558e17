package rip

import (
	"net/netip"
	"testing"
	"testing/quick"
	"time"

	"xorp/internal/eventloop"
	"xorp/internal/kernel"
	"xorp/internal/route"
)

func mustP(s string) netip.Prefix { return netip.MustParsePrefix(s) }
func mustA(s string) netip.Addr   { return netip.MustParseAddr(s) }

func TestWireRoundTrip(t *testing.T) {
	p := &Packet{Command: CmdResponse, RTEs: []RTE{
		{Tag: 7, Net: mustP("10.0.0.0/8"), Metric: 3},
		{Tag: 0, Net: mustP("192.168.1.0/24"), NextHop: mustA("192.168.1.254"), Metric: 1},
		{Net: mustP("0.0.0.0/0"), Metric: 16},
	}}
	buf, err := p.Append(nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Command != CmdResponse || len(got.RTEs) != 3 {
		t.Fatalf("decoded %+v", got)
	}
	if got.RTEs[0] != p.RTEs[0] || got.RTEs[1] != p.RTEs[1] || got.RTEs[2] != p.RTEs[2] {
		t.Fatalf("RTEs %+v != %+v", got.RTEs, p.RTEs)
	}
}

func TestWireRejectsBadPackets(t *testing.T) {
	cases := [][]byte{
		{},
		{2},
		{2, 1, 0, 0},          // RIPv1
		{9, 2, 0, 0},          // unknown command
		{2, 2, 0, 0, 1, 2, 3}, // body not multiple of 20
	}
	for _, c := range cases {
		if _, err := Decode(c); err == nil {
			t.Errorf("Decode(%v) accepted", c)
		}
	}
	// Bad metric.
	p := &Packet{Command: CmdResponse, RTEs: []RTE{{Net: mustP("10.0.0.0/8"), Metric: 3}}}
	buf, _ := p.Append(nil)
	buf[len(buf)-1] = 99
	if _, err := Decode(buf); err == nil {
		t.Error("metric 99 accepted")
	}
	// Non-contiguous mask.
	buf2, _ := p.Append(nil)
	buf2[4+8] = 0x0f
	if _, err := Decode(buf2); err == nil {
		t.Error("non-contiguous mask accepted")
	}
	// Too many RTEs on encode.
	big := &Packet{Command: CmdResponse}
	for i := 0; i < 26; i++ {
		big.RTEs = append(big.RTEs, RTE{Net: mustP("10.0.0.0/8"), Metric: 1})
	}
	if _, err := big.Append(nil); err == nil {
		t.Error("26 RTEs encoded")
	}
}

func TestQuickMaskBits(t *testing.T) {
	f := func(bits uint8) bool {
		b := int(bits % 33)
		m := net4Mask(b)
		got, ok := maskBits(m)
		return ok && got == b
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// ripNode is one simulated RIP router: RIP on a shared loop, its transport
// a host on the fabric.
type ripNode struct {
	proc *Process
	host *kernel.Host
	rib  *ribRec
}

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

func newRIPNode(t *testing.T, loop *eventloop.Loop, netw *kernel.Network, addr string) *ripNode {
	t.Helper()
	host, err := netw.Attach(mustA(addr))
	if err != nil {
		t.Fatal(err)
	}
	rib := &ribRec{routes: make(map[netip.Prefix]route.Entry)}
	proc := NewProcess(loop, Config{
		LocalAddr: mustA(addr), IfName: "eth0",
		UpdateInterval: 30 * time.Second,
		Timeout:        180 * time.Second,
		GCTime:         120 * time.Second,
		TriggeredDelay: time.Second,
	}, hostTransport{host, loop}, rib)
	if err := proc.Start(); err != nil {
		t.Fatal(err)
	}
	return &ripNode{proc: proc, host: host, rib: rib}
}

// hostTransport is a Transport straight onto a host on the fabric, its
// datagrams delivered on loop: what the FEA's relay does, minus the XRLs.
type hostTransport struct {
	host *kernel.Host
	loop *eventloop.Loop
}

func (t hostTransport) Bind(recv func(src netip.AddrPort, payload []byte)) error {
	return t.host.Bind(Port, func(src netip.AddrPort, payload []byte) {
		t.loop.Dispatch(func() { recv(src, payload) })
	})
}

func (t hostTransport) Send(dst netip.AddrPort, payload []byte) error {
	t.host.SendTo(Port, dst, payload)
	return nil
}

func (t hostTransport) Broadcast(payload []byte) error {
	t.host.Broadcast(Port, Port, payload)
	return nil
}

func TestTwoRouterConvergence(t *testing.T) {
	loop := eventloop.New(eventloop.NewSimClock(time.Unix(0, 0)))
	netw := kernel.NewNetwork()
	a := newRIPNode(t, loop, netw, "10.0.0.1")
	b := newRIPNode(t, loop, netw, "10.0.0.2")
	loop.RunPending()

	// a originates a route; b must learn it via the triggered update
	// well before the 30 s periodic timer.
	loop.Dispatch(func() { a.proc.InjectLocal(mustP("172.16.0.0/16"), 1, 0) })
	loop.RunFor(3 * time.Second)
	metric, ok := b.proc.Lookup(mustP("172.16.0.0/16"))
	if !ok {
		t.Fatal("b did not learn the route from a triggered update")
	}
	if metric != 2 {
		t.Fatalf("metric %d, want 2 (1 + 1 hop)", metric)
	}
	e, ok := b.rib.routes[mustP("172.16.0.0/16")]
	if !ok || e.NextHop != mustA("10.0.0.1") {
		t.Fatalf("b's RIB entry %+v", e)
	}

	// Withdrawal: a poisons the route; b must expire it promptly.
	loop.Dispatch(func() { a.proc.WithdrawLocal(mustP("172.16.0.0/16")) })
	loop.RunFor(3 * time.Second)
	if _, ok := b.proc.Lookup(mustP("172.16.0.0/16")); ok {
		t.Fatal("b still has the withdrawn route")
	}
	if _, ok := b.rib.routes[mustP("172.16.0.0/16")]; ok {
		t.Fatal("b's RIB still has the withdrawn route")
	}
}

func TestRouteExpiryWithoutRefresh(t *testing.T) {
	loop := eventloop.New(eventloop.NewSimClock(time.Unix(0, 0)))
	netw := kernel.NewNetwork()
	a := newRIPNode(t, loop, netw, "10.0.0.1")
	b := newRIPNode(t, loop, netw, "10.0.0.2")
	loop.Dispatch(func() { a.proc.InjectLocal(mustP("172.16.0.0/16"), 1, 0) })
	loop.RunFor(5 * time.Second)
	if _, ok := b.proc.Lookup(mustP("172.16.0.0/16")); !ok {
		t.Fatal("route not learned")
	}
	// Kill a's announcements entirely (detach from the network).
	netw.Detach(mustA("10.0.0.1"))
	a.proc.Stop()
	// After the 180 s timeout the route must expire at b.
	loop.RunFor(200 * time.Second)
	if _, ok := b.proc.Lookup(mustP("172.16.0.0/16")); ok {
		t.Fatal("route survived timeout without refresh")
	}
}

// A stopped process is silent: the per-route expiry timer of a route it
// learned, left running on a loop that outlives the process, would
// withdraw from the RIB a route the process's successor still holds.
func TestStopCancelsRouteTimers(t *testing.T) {
	loop := eventloop.New(eventloop.NewSimClock(time.Unix(0, 0)))
	netw := kernel.NewNetwork()
	a := newRIPNode(t, loop, netw, "10.0.0.1")
	b := newRIPNode(t, loop, netw, "10.0.0.2")
	net := mustP("172.16.0.0/16")
	loop.Dispatch(func() { a.proc.InjectLocal(net, 1, 0) })
	loop.RunFor(5 * time.Second)
	if _, ok := b.rib.routes[net]; !ok {
		t.Fatal("route not learned")
	}
	b.host.Unbind(Port) // b dies: nothing refreshes its route any more
	b.proc.Stop()
	loop.RunFor(400 * time.Second) // past Timeout and GCTime
	if _, ok := b.rib.routes[net]; !ok {
		t.Fatal("a stopped process withdrew a route from its RIB")
	}
}

func TestSplitHorizonPoisonedReverse(t *testing.T) {
	// b must not advertise a's route back as reachable: count-to-infinity
	// protection. We verify by checking a never learns its own route from
	// b with a worse metric after withdrawing it locally... simpler: b's
	// broadcast contains the route poisoned (metric 16), which a ignores.
	loop := eventloop.New(eventloop.NewSimClock(time.Unix(0, 0)))
	netw := kernel.NewNetwork()
	a := newRIPNode(t, loop, netw, "10.0.0.1")
	b := newRIPNode(t, loop, netw, "10.0.0.2")
	loop.Dispatch(func() { a.proc.InjectLocal(mustP("172.16.0.0/16"), 1, 0) })
	loop.RunFor(40 * time.Second) // cover a periodic update from b
	// a's table must still show its own local route at metric 1, not a
	// worse echo via b.
	metric, ok := a.proc.Lookup(mustP("172.16.0.0/16"))
	if !ok || metric != 1 {
		t.Fatalf("a's route metric %d %v, want local metric 1", metric, ok)
	}
	// And b must hold it at metric 2 (not flapping via echoes).
	metric, ok = b.proc.Lookup(mustP("172.16.0.0/16"))
	if !ok || metric != 2 {
		t.Fatalf("b's metric %d %v, want 2", metric, ok)
	}
}

func TestBetterMetricFromOtherNeighborWins(t *testing.T) {
	loop := eventloop.New(eventloop.NewSimClock(time.Unix(0, 0)))
	netw := kernel.NewNetwork()
	a := newRIPNode(t, loop, netw, "10.0.0.1")
	b := newRIPNode(t, loop, netw, "10.0.0.2")
	c := newRIPNode(t, loop, netw, "10.0.0.3")
	_ = b
	// a and c both originate the same prefix; a at metric 5, c at 1.
	loop.Dispatch(func() {
		a.proc.InjectLocal(mustP("172.20.0.0/16"), 5, 0)
		c.proc.InjectLocal(mustP("172.20.0.0/16"), 1, 0)
	})
	loop.RunFor(5 * time.Second)
	metric, ok := b.proc.Lookup(mustP("172.20.0.0/16"))
	if !ok || metric != 2 {
		t.Fatalf("b chose metric %d %v, want 2 (via c)", metric, ok)
	}
	e := b.rib.routes[mustP("172.20.0.0/16")]
	if e.NextHop != mustA("10.0.0.3") {
		t.Fatalf("b's nexthop %v, want c (10.0.0.3)", e.NextHop)
	}
}

// A redistributed route is advertised at its own metric, clamped to RIP's
// reachable range: redistributed at 5, a neighbour one hop away holds it
// at 6 — not at 2, which would make a worse-metric backup origin win.
func TestRedistributionKeepsMetric(t *testing.T) {
	loop := eventloop.New(eventloop.NewSimClock(time.Unix(0, 0)))
	netw := kernel.NewNetwork()
	a := newRIPNode(t, loop, netw, "10.0.0.1")
	b := newRIPNode(t, loop, netw, "10.0.0.2")
	loop.Dispatch(func() {
		a.proc.RedistAdd(route.Entry{Net: mustP("172.16.0.0/16"), Metric: 5})
		a.proc.RedistAdd(route.Entry{Net: mustP("172.17.0.0/16")})
		a.proc.RedistAdd(route.Entry{Net: mustP("172.18.0.0/16"), Metric: 100})
	})
	loop.RunFor(3 * time.Second)
	for net, want := range map[string]uint32{"172.16.0.0/16": 5, "172.17.0.0/16": 1, "172.18.0.0/16": Infinity - 1} {
		if m, ok := a.proc.Lookup(mustP(net)); !ok || m != want {
			t.Errorf("a holds %s at metric %d %v, want %d", net, m, ok, want)
		}
	}
	if m, ok := b.proc.Lookup(mustP("172.16.0.0/16")); !ok || m != 6 {
		t.Fatalf("b learned the metric-5 redistribution at %d %v, want 6", m, ok)
	}
}

// A local route's metric is clamped where it is injected, whichever road
// brought it: put on the wire at 0 or at 100, it makes the neighbour's
// decoder refuse the whole response, and the good route beside it with
// it. The neighbour is a raw host decoding what it hears.
func TestInjectLocalClampsMetric(t *testing.T) {
	loop := eventloop.New(eventloop.NewSimClock(time.Unix(0, 0)))
	netw := kernel.NewNetwork()
	a := newRIPNode(t, loop, netw, "10.0.0.1")
	nbr, err := netw.Attach(mustA("10.0.0.2"))
	if err != nil {
		t.Fatal(err)
	}
	heard := make(map[netip.Prefix]uint32)
	rejected := 0
	if err := nbr.Bind(Port, func(_ netip.AddrPort, payload []byte) {
		pkt, err := Decode(payload)
		if err != nil {
			rejected++
			return
		}
		for _, rte := range pkt.RTEs {
			heard[rte.Net] = rte.Metric
		}
	}); err != nil {
		t.Fatal(err)
	}
	loop.Dispatch(func() {
		a.proc.InjectLocal(mustP("172.16.0.0/16"), 1, 0)
		a.proc.InjectLocal(mustP("172.17.0.0/16"), 0, 0)
		a.proc.InjectLocal(mustP("172.18.0.0/16"), 100, 0)
	})
	loop.RunFor(3 * time.Second)
	if rejected != 0 {
		t.Errorf("the neighbour refused %d responses", rejected)
	}
	for net, want := range map[string]uint32{"172.16.0.0/16": 1, "172.17.0.0/16": 1, "172.18.0.0/16": Infinity - 1} {
		if m, ok := heard[mustP(net)]; !ok || m != want {
			t.Errorf("the neighbour heard %s at metric %d %v, want %d", net, m, ok, want)
		}
	}
}

func TestRequestResponse(t *testing.T) {
	loop := eventloop.New(eventloop.NewSimClock(time.Unix(0, 0)))
	netw := kernel.NewNetwork()
	a := newRIPNode(t, loop, netw, "10.0.0.1")
	loop.Dispatch(func() { a.proc.InjectLocal(mustP("172.16.0.0/16"), 1, 0) })
	loop.RunPending()

	// A bare host sends a REQUEST and must get a RESPONSE.
	host, err := netw.Attach(mustA("10.0.0.99"))
	if err != nil {
		t.Fatal(err)
	}
	var got []*Packet
	host.Bind(Port, func(src netip.AddrPort, payload []byte) {
		loop.Dispatch(func() {
			if pkt, err := Decode(payload); err == nil {
				got = append(got, pkt)
			}
		})
	})
	req, _ := (&Packet{Command: CmdRequest}).Append(nil)
	host.SendTo(Port, netip.AddrPortFrom(mustA("10.0.0.1"), Port), req)
	loop.RunFor(time.Second)
	found := false
	for _, pkt := range got {
		if pkt.Command == CmdResponse {
			for _, rte := range pkt.RTEs {
				if rte.Net == mustP("172.16.0.0/16") {
					found = true
				}
			}
		}
	}
	if !found {
		t.Fatal("no RESPONSE to REQUEST")
	}
}

func TestLossyNetworkEventuallyConverges(t *testing.T) {
	// Failure injection: drop every third datagram; periodic updates
	// still converge the topology.
	loop := eventloop.New(eventloop.NewSimClock(time.Unix(0, 0)))
	netw := kernel.NewNetwork()
	n := 0
	netw.SetDropFunc(func(src, dst netip.AddrPort) bool {
		n++
		return n%3 == 0
	})
	a := newRIPNode(t, loop, netw, "10.0.0.1")
	b := newRIPNode(t, loop, netw, "10.0.0.2")
	loop.Dispatch(func() { a.proc.InjectLocal(mustP("172.16.0.0/16"), 1, 0) })
	loop.RunFor(5 * time.Minute)
	if _, ok := b.proc.Lookup(mustP("172.16.0.0/16")); !ok {
		t.Fatal("lossy network never converged")
	}
}

func TestKernelFIB(t *testing.T) {
	fib := kernel.NewFIB()
	fib.AddInterface("eth0", mustP("10.0.0.1/24"), 1500)
	if err := fib.Install(kernel.FIBEntry{Net: mustP("10.1.0.0/16"), NextHop: mustA("10.0.0.254"), IfName: "eth0"}); err != nil {
		t.Fatal(err)
	}
	fib.Install(kernel.FIBEntry{Net: mustP("10.1.2.0/24"), NextHop: mustA("10.0.0.253"), IfName: "eth0"})
	e, ok := fib.Lookup(mustA("10.1.2.3"))
	if !ok || e.NextHop != mustA("10.0.0.253") {
		t.Fatalf("LPM %v %v", e, ok)
	}
	e, ok = fib.Lookup(mustA("10.1.9.9"))
	if !ok || e.NextHop != mustA("10.0.0.254") {
		t.Fatalf("fallback %v %v", e, ok)
	}
	if !fib.Remove(mustP("10.1.2.0/24")) {
		t.Fatal("remove failed")
	}
	if fib.Remove(mustP("10.1.2.0/24")) {
		t.Fatal("double remove succeeded")
	}
	ins, rem := fib.Stats()
	if ins != 2 || rem != 1 {
		t.Fatalf("stats %d/%d", ins, rem)
	}
	if err := fib.Install(kernel.FIBEntry{}); err == nil {
		t.Fatal("invalid entry installed")
	}
	if len(fib.Interfaces()) != 1 {
		t.Fatal("interface lost")
	}
	count := 0
	fib.Walk(func(kernel.FIBEntry) bool { count++; return true })
	if count != fib.Len() {
		t.Fatalf("walk %d != len %d", count, fib.Len())
	}
}
