package bgp

import (
	"fmt"
	"net/netip"
	"sync"
	"testing"
	"time"

	"xorp/internal/eventloop"
	"xorp/internal/route"
)

// collector is a RIBClient that records the best-route stream: each
// prefix's entry and the protocol it was last announced under.
type collector struct {
	mu     sync.Mutex
	routes map[netip.Prefix]ribRoute
}

type ribRoute struct {
	proto string
	e     route.Entry
}

func newCollector() *collector {
	return &collector{routes: make(map[netip.Prefix]ribRoute)}
}

func (c *collector) AddRoutes4(proto string, es []route.Entry, _ func(error)) {
	c.mu.Lock()
	for _, e := range es {
		c.routes[e.Net] = ribRoute{proto, e}
	}
	c.mu.Unlock()
}

func (c *collector) DeleteRoutes4(_ string, nets []netip.Prefix, _ func(error)) {
	c.mu.Lock()
	for _, net := range nets {
		delete(c.routes, net)
	}
	c.mu.Unlock()
}

func (c *collector) get(net netip.Prefix) (ribRoute, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	r, ok := c.routes[net]
	return r, ok
}

func (c *collector) count() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.routes)
}

// twoRouters wires two full BGP processes over real TCP and waits for the
// session to establish.
func twoRouters(t *testing.T) (a, b *Process, ribA, ribB *collector, cleanup func()) {
	t.Helper()
	loopA := eventloop.New(nil)
	loopB := eventloop.New(nil)
	ribA = newCollector()
	ribB = newCollector()
	a = NewProcess(loopA, Config{
		AS: 65001, BGPID: mustA("10.0.0.1"), ListenAddr: "127.0.0.1:0",
		ConsistencyChecks: true,
	}, ribA, nil)
	b = NewProcess(loopB, Config{
		AS: 65002, BGPID: mustA("10.0.0.2"), ListenAddr: "127.0.0.1:0",
		ConsistencyChecks: true,
	}, ribB, nil)
	if err := a.Listen(); err != nil {
		t.Fatal(err)
	}
	if err := b.Listen(); err != nil {
		t.Fatal(err)
	}
	go loopA.Run()
	go loopB.Run()

	// a dials b; b accepts from a (by source address 127.0.0.1).
	loopA.DispatchAndWait(func() {
		if _, err := a.AddPeer(PeerConfig{
			Name: "to-b", LocalAddr: mustA("127.0.0.1"), PeerAddr: mustA("127.0.0.1"),
			PeerAS: 65002, DialAddr: b.ListenAddr(), HoldTime: 30 * time.Second,
			ConnectRetry: 200 * time.Millisecond,
		}); err != nil {
			t.Error(err)
		}
		a.EnablePeer("to-b")
	})
	loopB.DispatchAndWait(func() {
		if _, err := b.AddPeer(PeerConfig{
			Name: "to-a", LocalAddr: mustA("127.0.0.1"), PeerAddr: mustA("127.0.0.1"),
			PeerAS: 65001, Passive: true, HoldTime: 30 * time.Second,
		}); err != nil {
			t.Error(err)
		}
		b.EnablePeer("to-a")
	})

	waitState := func(p *Process, name string, want PeerState) {
		deadline := time.Now().Add(5 * time.Second)
		for time.Now().Before(deadline) {
			var st PeerState
			p.loop.DispatchAndWait(func() {
				if peer, ok := p.Peer(name); ok {
					st = peer.State()
				}
			})
			if st == want {
				return
			}
			time.Sleep(10 * time.Millisecond)
		}
		t.Fatalf("peer %s never reached %v", name, want)
	}
	waitState(a, "to-b", StateEstablished)
	waitState(b, "to-a", StateEstablished)

	cleanup = func() {
		loopA.DispatchAndWait(a.Close)
		loopB.DispatchAndWait(b.Close)
		loopA.Stop()
		loopB.Stop()
	}
	return a, b, ribA, ribB, cleanup
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("timeout waiting for %s", what)
}

func TestSessionEstablishAndPropagate(t *testing.T) {
	a, b, _, ribB, cleanup := twoRouters(t)
	defer cleanup()

	// a originates; the route must appear in b's RIB stream as an EBGP
	// route, with a's AS prepended and nexthop rewritten by the EBGP export
	// filter in b's best route.
	net := mustP("10.50.0.0/16")
	a.loop.Dispatch(func() { a.Originate(net, mustA("127.0.0.1"), 0) })
	waitFor(t, "route at b", func() bool { _, ok := ribB.get(net); return ok })
	if got, _ := ribB.get(net); got.proto != "ebgp" {
		t.Fatalf("route reached b's RIB as %q, want ebgp", got.proto)
	}
	var r Route
	b.loop.DispatchAndWait(func() { b.decision.Lookup(net, &r) })
	if r.Attrs == nil || !r.Attrs.ASPath.Contains(65001) {
		t.Fatalf("AS path of %+v lacks 65001", r)
	}
	if r.Src == nil || r.Src.Name != "to-a" {
		t.Fatalf("route source %v", r.Src)
	}

	// Withdraw propagates too.
	a.loop.Dispatch(func() { a.WithdrawOriginated(net) })
	waitFor(t, "withdraw at b", func() bool { _, ok := ribB.get(net); return !ok })
}

func TestSessionTeardownTriggersDeletion(t *testing.T) {
	a, b, _, ribB, cleanup := twoRouters(t)
	defer cleanup()

	for i := 0; i < 50; i++ {
		net := netip.PrefixFrom(netip.AddrFrom4([4]byte{10, 60, byte(i), 0}), 24)
		a.loop.Dispatch(func() { a.Originate(net, mustA("127.0.0.1"), 0) })
	}
	waitFor(t, "all 50 routes at b", func() bool { return ribB.count() == 50 })

	// Kill the session from a's side; b must background-delete them all.
	a.loop.DispatchAndWait(func() {
		if peer, ok := a.Peer("to-b"); ok {
			peer.Disable()
		}
	})
	waitFor(t, "routes deleted at b", func() bool { return ribB.count() == 0 })

	// No consistency violations anywhere.
	b.loop.DispatchAndWait(func() {
		if v, _ := b.Metrics().Get("bgp_consistency_violations_total"); v != 0 {
			t.Errorf("%v consistency violations at b", v)
		}
	})
}

func TestHoldTimerExpiry(t *testing.T) {
	// A peer that stops sending keepalives must be torn down.
	loop := eventloop.New(nil)
	p := NewProcess(loop, Config{AS: 65001, BGPID: mustA("1.1.1.1"), ListenAddr: "127.0.0.1:0"}, nil, nil)
	if err := p.Listen(); err != nil {
		t.Fatal(err)
	}
	go loop.Run()
	defer loop.Stop()
	loop.DispatchAndWait(func() {
		p.AddPeer(PeerConfig{
			Name: "silent", LocalAddr: mustA("127.0.0.1"), PeerAddr: mustA("127.0.0.1"),
			PeerAS: 65002, Passive: true, HoldTime: 300 * time.Millisecond,
		})
		p.EnablePeer("silent")
	})

	// Handshake manually, then go silent.
	conn := dialBGP(t, p.ListenAddr())
	defer conn.Close()
	conn.write(t, AppendOpen(nil, &OpenMsg{Version: 4, AS: 65002, HoldTime: 1, BGPID: mustA("2.2.2.2")}))
	conn.expectType(t, MsgOpen)
	conn.expectType(t, MsgKeepalive)
	conn.write(t, AppendKeepalive(nil))

	waitFor(t, "established", func() bool {
		var st PeerState
		loop.DispatchAndWait(func() {
			if peer, ok := p.Peer("silent"); ok {
				st = peer.State()
			}
		})
		return st == StateEstablished
	})
	// Silence: hold timer (min(300ms,1s)=300ms) must fire.
	waitFor(t, "teardown", func() bool {
		var st PeerState
		loop.DispatchAndWait(func() {
			if peer, ok := p.Peer("silent"); ok {
				st = peer.State()
			}
		})
		return st != StateEstablished
	})
}

func TestBadASRejected(t *testing.T) {
	loop := eventloop.New(nil)
	p := NewProcess(loop, Config{AS: 65001, BGPID: mustA("1.1.1.1"), ListenAddr: "127.0.0.1:0"}, nil, nil)
	if err := p.Listen(); err != nil {
		t.Fatal(err)
	}
	go loop.Run()
	defer loop.Stop()
	loop.DispatchAndWait(func() {
		p.AddPeer(PeerConfig{
			Name: "x", LocalAddr: mustA("127.0.0.1"), PeerAddr: mustA("127.0.0.1"),
			PeerAS: 65002, Passive: true,
		})
		p.EnablePeer("x")
	})
	conn := dialBGP(t, p.ListenAddr())
	defer conn.Close()
	// Wrong AS in OPEN: must get a NOTIFICATION code 2 (OPEN error).
	conn.write(t, AppendOpen(nil, &OpenMsg{Version: 4, AS: 65099, HoldTime: 90, BGPID: mustA("2.2.2.2")}))
	conn.expectType(t, MsgOpen)
	m := conn.expectType(t, MsgNotification)
	if m.Notification.Code != NotifOpenErr {
		t.Fatalf("notification code %d", m.Notification.Code)
	}
}

// rawConn is a hand-driven BGP connection for protocol tests.
type rawConn struct {
	c interface {
		Write([]byte) (int, error)
		Read([]byte) (int, error)
		Close() error
	}
}

func dialBGP(t *testing.T, addr string) *rawConn {
	t.Helper()
	c, err := netDial(addr)
	if err != nil {
		t.Fatal(err)
	}
	return &rawConn{c: c}
}

func (r *rawConn) Close() { r.c.Close() }

func (r *rawConn) write(t *testing.T, buf []byte) {
	t.Helper()
	if _, err := r.c.Write(buf); err != nil {
		t.Fatal(err)
	}
}

// expectType reads messages until one of the wanted type arrives
// (skipping keepalives unless asked for one).
func (r *rawConn) expectType(t *testing.T, msgType uint8) *Message {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		hdr := make([]byte, headerLen)
		if err := readFull(r.c, hdr); err != nil {
			t.Fatalf("read header: %v", err)
		}
		msgLen, typ, err := HeaderInfo(hdr)
		if err != nil {
			t.Fatal(err)
		}
		body := make([]byte, msgLen)
		copy(body, hdr)
		if err := readFull(r.c, body[headerLen:]); err != nil {
			t.Fatal(err)
		}
		m, err := DecodeMessage(body)
		if err != nil {
			t.Fatal(err)
		}
		if typ == msgType {
			return m
		}
		if typ == MsgKeepalive {
			continue
		}
		t.Fatalf("got message type %d, want %d", typ, msgType)
	}
	t.Fatal("timeout waiting for message")
	return nil
}

// memConn is an in-memory session transport: it keeps what it is written
// and reports no backlog.
type memConn struct{ msgs [][]byte }

func (c *memConn) WriteMsg(msg []byte) error {
	c.msgs = append(c.msgs, append([]byte(nil), msg...))
	return nil
}
func (c *memConn) Close() error { return nil }
func (c *memConn) Backlog() int { return 0 }

// announced counts the prefixes the session has been sent in UPDATEs.
func (c *memConn) announced(t *testing.T) int {
	n := 0
	for _, msg := range c.msgs {
		if m, err := DecodeMessage(msg); err != nil {
			t.Fatal(err)
		} else if m.Update != nil {
			n += len(m.Update.NLRI)
		}
	}
	return n
}

// establish brings peer's session up over a memConn, as the far end's OPEN
// and KEEPALIVE would. Run on the peer's loop.
func establish(t *testing.T, peer *Peer) *memConn {
	t.Helper()
	c := &memConn{}
	peer.Enable()
	peer.AdoptIncoming(c)
	peer.handleMessage(peer.connGen, &Message{Open: &OpenMsg{Version: Version, AS: peer.cfg.PeerAS, HoldTime: 90, BGPID: peer.cfg.PeerAddr}})
	peer.handleMessage(peer.connGen, &Message{Keepalive: true})
	if peer.State() != StateEstablished {
		t.Fatalf("%s: session %v, want Established", peer.cfg.Name, peer.State())
	}
	return c
}

// TestClosedSessionReleasesQueue: a session that closes while its branch is
// flow-controlled must not pin the fanout queue. Its group parks, which
// releases the branch, so later changes are consumed as they come.
func TestClosedSessionReleasesQueue(t *testing.T) {
	loop := eventloop.New(eventloop.NewSimClock(time.Unix(0, 0)))
	p := NewProcess(loop, Config{AS: 65000, BGPID: mustA("10.0.0.254")}, nil, nil)
	var e1, e2 *Peer
	for i, pp := range []**Peer{&e1, &e2} {
		peer, err := p.AddPeer(PeerConfig{Name: fmt.Sprintf("e%d", i+1), PeerAddr: mustA(fmt.Sprintf("10.0.0.%d", i+1)),
			PeerAS: uint16(65001 + i), LocalAddr: mustA("192.0.2.1")})
		if err != nil {
			t.Fatal(err)
		}
		establish(t, peer)
		*pp = peer
	}
	p.Fanout().SetBusy("e1", true)
	e1.notifyAndClose(NotifHoldTimerExpire, 0) // what the stalled peer's hold timer does
	for i := 0; i < 100; i++ {
		u := &UpdateMsg{Attrs: attrsVia("10.0.0.2", 65002), NLRI: []netip.Prefix{netip.PrefixFrom(netip.AddrFrom4([4]byte{10, 30, byte(i), 0}), 24)}}
		if err := p.InjectUpdate("e2", u); err != nil {
			t.Fatal(err)
		}
	}
	loop.RunPending()
	if q, b := p.Fanout().QueueLen(), p.Fanout().Backlog("e1"); q != 0 || b != 0 {
		t.Fatalf("after the pump: queue %d, e1's backlog %d; want 0 and 0", q, b)
	}
}

// sessionlessProc is the pipeline's BGP process: two passive EBGP peers,
// feed and test, with no session, and no RIB.
func sessionlessProc(t *testing.T) *Process {
	t.Helper()
	loop := eventloop.New(eventloop.NewSimClock(time.Unix(0, 0)))
	p := NewProcess(loop, Config{AS: 65000, BGPID: mustA("192.168.1.1")}, nil, nil)
	for _, pc := range []PeerConfig{
		{Name: "feed", LocalAddr: mustA("192.168.1.1"), PeerAddr: mustA("192.168.1.2"), PeerAS: 65001, Passive: true},
		{Name: "test", LocalAddr: mustA("192.168.1.1"), PeerAddr: mustA("192.168.1.3"), PeerAS: 65002, Passive: true},
	} {
		if _, err := p.AddPeer(pc); err != nil {
			t.Fatal(err)
		}
	}
	return p
}

// TestSessionlessPeersCostNothing: the pipeline's two passive EBGP peers
// with no session and no RIB. A route announced, replaced and withdrawn
// by one of them must cost neither group a filter call, an encode or an
// allocation: both groups are parked.
func TestSessionlessPeersCostNothing(t *testing.T) {
	p := sessionlessProc(t)
	loop := p.Loop()
	var groups []*GroupOut
	filterCalls := 0
	for _, name := range []string{"feed", "test"} {
		peer, _ := p.Peer(name)
		groups = append(groups, peer.group.out)
		bank := p.fanout.branches[name].head.(*FilterBank)
		bank.filters = append(bank.filters, FilterFunc(func(r *Route) *PathAttrs { filterCalls++; return r.Attrs }))
	}
	net := mustP("10.40.0.0/16")
	msgs := []*UpdateMsg{
		{Attrs: attrsVia("192.168.1.3", 65002), NLRI: []netip.Prefix{net}},
		{Attrs: attrsVia("192.168.1.3", 65002, 65009), NLRI: []netip.Prefix{net}},
		{Withdrawn: []netip.Prefix{net}},
	}
	cycle := func() {
		for _, u := range msgs {
			if err := p.InjectUpdate("test", u); err != nil {
				t.Fatal(err)
			}
			loop.RunPending()
		}
	}
	cycle()
	allocs := testing.AllocsPerRun(100, cycle)
	if filterCalls != 0 || groups[0].EncodeCalls != 0 || groups[1].EncodeCalls != 0 {
		t.Fatalf("out-filter calls %d, encodes %d and %d; want none", filterCalls, groups[0].EncodeCalls, groups[1].EncodeCalls)
	}
	if allocs != 0 {
		t.Fatalf("announce/replace/withdraw costs %.2f allocations, want 0", allocs)
	}
}
