package rtrmgr

import (
	"fmt"
	"net/netip"
	"strings"
	"sync"
	"testing"
	"time"

	"xorp/internal/bgp"
	"xorp/internal/eventloop"
	"xorp/internal/kernel"
	"xorp/internal/route"
	"xorp/internal/workload"
	"xorp/internal/xrl"
)

func mustP(s string) netip.Prefix { return netip.MustParsePrefix(s) }
func mustA(s string) netip.Addr   { return netip.MustParseAddr(s) }

const baseConfig = `
interfaces {
    eth0 { address 192.168.1.1/24; }
}
static {
    route 10.0.0.0/8 next-hop 192.168.1.254;
    route 10.99.0.0/16 next-hop 192.168.1.253;
}
protocols {
    bgp {
        local-as 65001
        id 192.168.1.1
        peer p1 {
            local-addr 192.168.1.1
            peer-addr 192.168.1.2
            as 65002
            passive
        }
        peer p2 {
            local-addr 192.168.1.1
            peer-addr 192.168.1.3
            as 65003
            passive
        }
    }
}
`

func TestConfigParser(t *testing.T) {
	cfg, err := ParseConfig(baseConfig)
	if err != nil {
		t.Fatal(err)
	}
	bgpNode := cfg.Child("protocols").Child("bgp")
	if bgpNode.Leaf("local-as") != "65001" {
		t.Fatalf("local-as = %q", bgpNode.Leaf("local-as"))
	}
	peers := bgpNode.ChildrenNamed("peer")
	if len(peers) != 2 || peers[0].Arg(0) != "p1" {
		t.Fatalf("peers %+v", peers)
	}
	if peers[0].Leaf("peer-addr") != "192.168.1.2" {
		t.Fatalf("peer-addr %q", peers[0].Leaf("peer-addr"))
	}
	if peers[0].Child("passive") == nil {
		t.Fatal("passive flag lost")
	}
	// Render must reparse to the same tree shape.
	back, err := ParseConfig(Render(cfg, 0))
	if err != nil {
		t.Fatalf("render/reparse: %v", err)
	}
	if back.Child("protocols").Child("bgp").Leaf("local-as") != "65001" {
		t.Fatal("render lost data")
	}
}

func TestConfigParserErrors(t *testing.T) {
	bad := []string{
		"a { b", "}", `x "unterminated`, "a } b",
		strings.Repeat("a {", maxConfigDepth+1) + strings.Repeat("}", maxConfigDepth+1),
	}
	for _, src := range bad {
		if _, err := ParseConfig(src); err == nil {
			t.Errorf("ParseConfig(%q) accepted", src)
		}
	}
}

func waitCond(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timeout waiting for %s", what)
}

func TestFullRouterBGPToKernel(t *testing.T) {
	// The Figures 10–12 pipeline end to end: UPDATE into BGP →
	// decision → RIB (XRL) → FEA (XRL) → kernel FIB.
	r, err := NewRouter(baseConfig, Options{ConsistencyChecks: true})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Stop()
	if err := r.Start(); err != nil {
		t.Fatal(err)
	}

	// Static + connected routes reach the FIB.
	waitCond(t, "static route in FIB", func() bool {
		_, ok := r.FIB.Lookup(mustA("10.1.2.3"))
		return ok
	})

	// Inject a test route on p1 (nexthop resolvable via the static /8).
	net1 := mustP("20.1.0.0/16")
	u := &bgp.UpdateMsg{
		Attrs: workload.TestAttrs(mustA("10.0.0.1"), 65002),
		NLRI:  []netip.Prefix{net1},
	}
	r.BGP.Loop().Dispatch(func() { r.BGP.InjectUpdate("p1", u) })
	waitCond(t, "BGP route in FIB", func() bool {
		e, ok := r.FIB.Lookup(mustA("20.1.2.3"))
		return ok && e.Net == net1
	})

	// Withdraw it.
	w := &bgp.UpdateMsg{Withdrawn: []netip.Prefix{net1}}
	r.BGP.Loop().Dispatch(func() { r.BGP.InjectUpdate("p1", w) })
	waitCond(t, "BGP route withdrawn from FIB", func() bool {
		e, ok := r.FIB.Lookup(mustA("20.1.2.3"))
		return !ok || e.Net != net1
	})

	// No consistency violations.
	r.BGP.Loop().DispatchAndWait(func() {
		if v, _ := r.BGP.Metrics().Get("bgp_consistency_violations_total"); v != 0 {
			t.Errorf("%v consistency violations", v)
		}
	})
}

func TestFullRouterDecisionAcrossPeers(t *testing.T) {
	r, err := NewRouter(baseConfig, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Stop()
	if err := r.Start(); err != nil {
		t.Fatal(err)
	}
	net1 := mustP("20.2.0.0/16")

	// p1 offers a longer path (nexthop resolving via gateway .254); p2 a
	// shorter one (nexthop under 10.99/16, gateway .253). After recursive
	// resolution the FIB's gateway reveals which peer's route won.
	long := &bgp.PathAttrs{
		Origin:  bgp.OriginIGP,
		ASPath:  bgp.ASPath{{Type: bgp.SegSequence, ASes: []uint16{65002, 65009, 65010}}},
		NextHop: mustA("10.0.0.1"),
	}
	short := &bgp.PathAttrs{
		Origin:  bgp.OriginIGP,
		ASPath:  bgp.ASPath{{Type: bgp.SegSequence, ASes: []uint16{65003}}},
		NextHop: mustA("10.99.0.1"),
	}
	r.BGP.Loop().Dispatch(func() {
		r.BGP.InjectUpdate("p1", &bgp.UpdateMsg{Attrs: long, NLRI: []netip.Prefix{net1}})
		r.BGP.InjectUpdate("p2", &bgp.UpdateMsg{Attrs: short, NLRI: []netip.Prefix{net1}})
	})
	waitCond(t, "short path in FIB", func() bool {
		e, ok := r.FIB.Lookup(mustA("20.2.0.1"))
		return ok && e.Net == net1 && e.NextHop == mustA("192.168.1.253")
	})
}

func TestNexthopUnresolvableBlocksRoute(t *testing.T) {
	r, err := NewRouter(baseConfig, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Stop()
	if err := r.Start(); err != nil {
		t.Fatal(err)
	}
	// Nexthop 99.9.9.9 has no cover in the RIB: route must not reach
	// the FIB.
	net1 := mustP("20.3.0.0/16")
	r.BGP.Loop().Dispatch(func() {
		r.BGP.InjectUpdate("p1", &bgp.UpdateMsg{
			Attrs: workload.TestAttrs(mustA("99.9.9.9"), 65002),
			NLRI:  []netip.Prefix{net1},
		})
	})
	time.Sleep(200 * time.Millisecond)
	if e, ok := r.FIB.Lookup(mustA("20.3.0.1")); ok && e.Net == net1 {
		t.Fatal("unresolvable route reached the FIB")
	}

	// Now a static route covering the nexthop appears: the parked route
	// must resolve and land in the FIB — event-driven dependency
	// tracking across three processes.
	r.RIB.Loop().Dispatch(func() {
		r.RIB.AddRoute(route.ProtoStatic, route.Entry{
			Net: mustP("99.9.9.0/24"), NextHop: mustA("192.168.1.254"), IfName: "eth0",
		})
	})
	waitCond(t, "parked route resolves after IGP change", func() bool {
		e, ok := r.FIB.Lookup(mustA("20.3.0.1"))
		return ok && e.Net == net1
	})
}

func TestManagementViaXRLs(t *testing.T) {
	r, err := NewRouter(baseConfig, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Stop()
	if err := r.Start(); err != nil {
		t.Fatal(err)
	}
	// Drive the router through its management interface, call_xrl style.
	x, err := xrl.Parse("finder://bgp/bgp/1.0/peer_state?name:txt=p1")
	if err != nil {
		t.Fatal(err)
	}
	args, xerr := r.current("bgp").router.Call(x)
	if xerr != nil {
		t.Fatalf("peer_state: %v", xerr)
	}
	if st, _ := args.TextArg("state"); st == "" {
		t.Fatal("empty peer state")
	}
	// Cross-process: ask the RIB from the BGP router.
	args, xerr = r.current("bgp").router.Call(xrl.New("rib", "rib", "1.0", "lookup_route_by_dest4",
		xrl.Addr("addr", mustA("10.1.1.1"))))
	if xerr != nil {
		t.Fatalf("lookup_route_by_dest4: %v", xerr)
	}
	if found, _ := args.BoolArg("found"); !found {
		t.Fatal("static route not found via XRL")
	}
	// Profiling control via XRLs.
	if _, xerr = r.current("bgp").router.Call(xrl.New("rib", "profile", "0.1", "enable",
		xrl.Text("pname", "route_arrive_rib"))); xerr != nil {
		t.Fatalf("profile enable: %v", xerr)
	}
}

// peerRIB is a BGP peer's RIB as a set of prefixes, written on the peer's
// loop and read from the test's goroutine.
type peerRIB struct {
	mu  sync.Mutex
	has map[netip.Prefix]bool
}

func (c *peerRIB) AddRoutes4(_ string, es []route.Entry, _ func(error)) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, e := range es {
		c.has[e.Net] = true
	}
}

func (c *peerRIB) DeleteRoutes4(_ string, nets []netip.Prefix, _ func(error)) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, net := range nets {
		delete(c.has, net)
	}
}

func (c *peerRIB) holds(net netip.Prefix) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.has[net]
}

// `redistribute static` into BGP, watched from the far end: a plain BGP
// process on loopback peers with p1 and must be told the static routes —
// the one configured, one the RIB learns later — and the withdrawal of a
// static the RIB deletes.
func TestRedistributionStaticToBGP(t *testing.T) {
	r, err := NewRouter(`
interfaces { eth0 { address 192.168.1.1/24; } }
static { route 10.0.0.0/8 next-hop 192.168.1.254; }
protocols {
    bgp {
        local-as 65001
        id 192.168.1.1
        redistribute static
        peer p1 { local-addr 127.0.0.1; peer-addr 127.0.0.1; as 65002; passive; }
    }
}
`, Options{BGPListen: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Stop()
	if err := r.Start(); err != nil {
		t.Fatal(err)
	}
	var listen string
	r.BGP.Loop().DispatchAndWait(func() { listen = r.BGP.ListenAddr() })

	loop := eventloop.New(nil)
	go loop.Run()
	defer loop.Stop()
	got := &peerRIB{has: make(map[netip.Prefix]bool)}
	peer := bgp.NewProcess(loop, bgp.Config{AS: 65002, BGPID: mustA("192.168.1.2")}, got, nil)
	defer loop.DispatchAndWait(peer.Close)
	loop.DispatchAndWait(func() {
		if _, err := peer.AddPeer(bgp.PeerConfig{
			Name: "r", LocalAddr: mustA("127.0.0.1"), PeerAddr: mustA("127.0.0.1"), PeerAS: 65001,
			DialAddr: listen, HoldTime: 30 * time.Second, ConnectRetry: 200 * time.Millisecond,
		}); err != nil {
			t.Error(err)
		}
		peer.EnablePeer("r")
	})

	waitCond(t, "the configured static announced to the peer", func() bool { return got.holds(mustP("10.0.0.0/8")) })
	late := route.Entry{Net: mustP("44.0.0.0/8"), NextHop: mustA("192.168.1.254"), IfName: "eth0"}
	r.RIB.Loop().Dispatch(func() { r.RIB.AddRoute(route.ProtoStatic, late) })
	waitCond(t, "a later static announced to the peer", func() bool { return got.holds(late.Net) })
	r.RIB.Loop().Dispatch(func() { r.RIB.DeleteRoute(route.ProtoStatic, late.Net) })
	waitCond(t, "the deleted static withdrawn from the peer", func() bool { return !got.holds(late.Net) })
	if !got.holds(mustP("10.0.0.0/8")) {
		t.Fatal("the configured static was withdrawn with the later one")
	}
}

func TestRIPInAssembly(t *testing.T) {
	netw := kernel.NewNetwork()
	mk := func(addr string) *Router {
		cfg := `
interfaces { eth0 { address ` + addr + `/24; } }
protocols { rip { } }
`
		r, err := NewRouter(cfg, Options{Network: netw, LocalAddr: mustA(addr)})
		if err != nil {
			t.Fatal(err)
		}
		if err := r.Start(); err != nil {
			t.Fatal(err)
		}
		return r
	}
	a := mk("192.168.1.1")
	defer a.Stop()
	b := mk("192.168.1.2")
	defer b.Stop()

	// a originates a RIP route; b must install it via RIP → RIB → FEA.
	a.RIP.RedistAdd(route.Entry{Net: mustP("172.30.0.0/16")})
	waitCond(t, "RIP route in b's FIB", func() bool {
		e, ok := b.FIB.Lookup(mustA("172.30.1.1"))
		return ok && e.Net == mustP("172.30.0.0/16")
	})
}

// An assembled router's IGPs answer the XRLs cmd/xorp_rip and
// cmd/xorp_ospf bind, redist4/0.1: an add_route4 to RIP reaches the RIB
// through RIP at its metric — one left out is 1, RIP's least — and OSPF
// takes one too.
func TestIGPControlXRLsInAssembly(t *testing.T) {
	r, err := NewRouter(`
interfaces { eth0 { address 192.168.1.1/24; } }
protocols { rip { } ospf { } }
`, Options{Clock: eventloop.NewSimClock(time.Unix(0, 0)), SharedLoop: true,
		Network: kernel.NewNetwork(), LocalAddr: mustA("192.168.1.1")})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Start(); err != nil {
		t.Fatal(err)
	}
	r.SettleAll()
	call := func(text string) {
		t.Helper()
		x, err := xrl.Parse(text)
		if err != nil {
			t.Fatal(err)
		}
		var xerr *xrl.Error
		answered := false
		r.RIBRouter.Send(x, func(_ xrl.Args, err *xrl.Error) { xerr, answered = err, true })
		r.SettleAll()
		if !answered || xerr != nil {
			t.Fatalf("%s: answered %v, error %v", text, answered, xerr)
		}
	}

	call("finder://rip/redist4/0.1/add_route4?network:ipv4net=172.29.0.0/16&metric:u32=3")
	e, ok := r.RIB.LookupBest(mustA("172.29.1.1"))
	if !ok || e.Net != mustP("172.29.0.0/16") || e.Protocol != route.ProtoRIP || e.Metric != 3 {
		t.Fatalf("after add_route4 the RIB holds %+v %v, want the RIP route at metric 3", e, ok)
	}
	call("finder://rip/redist4/0.1/add_route4?network:ipv4net=172.27.0.0/16")
	e, ok = r.RIB.LookupBest(mustA("172.27.1.1"))
	if !ok || e.Net != mustP("172.27.0.0/16") || e.Protocol != route.ProtoRIP || e.Metric != 1 {
		t.Fatalf("after add_route4 with no metric the RIB holds %+v %v, want the RIP route at metric 1", e, ok)
	}
	call("finder://ospf/redist4/0.1/add_route4?network:ipv4net=172.28.0.0/16")
}

func TestOSPFInAssembly(t *testing.T) {
	// Two full routers speaking OSPF over the simulated fabric:
	// connected prefixes and redistributed statics flow OSPF → RIB →
	// FEA → kernel FIB, with an export policy tagging routes on the
	// receiving side.
	netw := kernel.NewNetwork()
	a, err := NewRouter(`
interfaces {
    eth0 { address 192.168.1.1/24; }
    eth1 { address 10.50.0.1/24; }
}
static { route 172.31.0.0/16 next-hop 192.168.1.200; }
protocols { ospf { hello-interval 1; redistribute static; } }
`, Options{Network: netw, LocalAddr: mustA("192.168.1.1")})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Stop()
	b, err := NewRouter(`
interfaces { eth0 { address 192.168.1.2/24; } }
protocols { ospf { hello-interval 1; export tag-ospf; } }
policy tag-ospf { term all { then set tag add 42 } }
`, Options{Network: netw, LocalAddr: mustA("192.168.1.2")})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Stop()
	if err := a.Start(); err != nil {
		t.Fatal(err)
	}
	if err := b.Start(); err != nil {
		t.Fatal(err)
	}

	// The redistributed static must traverse a's RIB → OSPF flooding →
	// b's SPF → b's RIB → b's FEA → b's kernel FIB.
	waitCond(t, "OSPF route in b's FIB", func() bool {
		e, ok := b.FIB.Lookup(mustA("172.31.1.1"))
		return ok && e.Net == mustP("172.31.0.0/16") && e.NextHop == mustA("192.168.1.1")
	})
	// b's RIB carries it as an OSPF route (admin distance 110) with the
	// export policy's tag applied.
	e, ok := b.RIB.LookupBest(mustA("172.31.1.1"))
	if !ok || e.Protocol != route.ProtoOSPF || e.AdminDistance != 110 {
		t.Fatalf("b's RIB entry %+v %v", e, ok)
	}
	if len(e.PolicyTags) != 1 || e.PolicyTags[0] != 42 {
		t.Fatalf("export policy tag missing: %+v", e)
	}
	// a's connected networks are originated as stub prefixes: b must
	// learn a's eth1 prefix — which b has no interface on — via OSPF.
	waitCond(t, "a's connected eth1 prefix at b", func() bool {
		e, ok := b.RIB.LookupBest(mustA("10.50.0.77"))
		return ok && e.Protocol == route.ProtoOSPF &&
			e.Net == mustP("10.50.0.0/24") && e.NextHop == mustA("192.168.1.1")
	})
}

func TestDampingInAssembly(t *testing.T) {
	// bgp { damping } plumbs a DampingStage into every peering's input
	// branch (§8.3): a flapping route must stop reaching the FIB while a
	// stable one is unaffected.
	cfgText := strings.Replace(baseConfig, "local-as 65001",
		"local-as 65001\n        damping", 1)
	r, err := NewRouter(cfgText, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Stop()
	if err := r.Start(); err != nil {
		t.Fatal(err)
	}
	stable := mustP("20.7.0.0/16")
	flappy := mustP("20.8.0.0/16")
	attrs := workload.TestAttrs(mustA("10.0.0.1"), 65002)
	r.BGP.Loop().Dispatch(func() {
		r.BGP.InjectUpdate("p1", &bgp.UpdateMsg{Attrs: attrs, NLRI: []netip.Prefix{stable}})
	})
	waitCond(t, "stable route installed", func() bool {
		e, ok := r.FIB.Lookup(mustA("20.7.0.1"))
		return ok && e.Net == stable
	})
	// Flap hard: 3 announce/withdraw cycles exceed the suppress threshold.
	r.BGP.Loop().DispatchAndWait(func() {
		for i := 0; i < 3; i++ {
			r.BGP.InjectUpdate("p1", &bgp.UpdateMsg{Attrs: attrs, NLRI: []netip.Prefix{flappy}})
			r.BGP.InjectUpdate("p1", &bgp.UpdateMsg{Withdrawn: []netip.Prefix{flappy}})
		}
		r.BGP.InjectUpdate("p1", &bgp.UpdateMsg{Attrs: attrs, NLRI: []netip.Prefix{flappy}})
	})
	// The final announcement is suppressed: it must NOT reach the FIB.
	time.Sleep(300 * time.Millisecond)
	if e, ok := r.FIB.Lookup(mustA("20.8.0.1")); ok && e.Net == flappy {
		t.Fatal("flapping route reached the FIB despite damping")
	}
	// The stable route is unaffected.
	if e, ok := r.FIB.Lookup(mustA("20.7.0.1")); !ok || e.Net != stable {
		t.Fatal("stable route lost")
	}
}

func TestPeerGroupConfig(t *testing.T) {
	// peer-group blocks: members share one output branch (and one encode
	// per outbound UPDATE in the BGP process), and inherit defaults from
	// the block where their own peer block is silent.
	cfg, err := ParseConfig(`
protocols {
    bgp {
        local-as 65001
        id 192.168.1.1
        peer-group rs {
            local-addr 192.168.1.1
            as 65002
            holdtime 30
        }
        peer p1 {
            peer-addr 192.168.1.2
            group rs
            passive
        }
        peer p2 {
            peer-addr 192.168.1.3
            as 65002
            group rs
            passive
        }
        peer solo {
            local-addr 192.168.1.1
            peer-addr 192.168.1.4
            as 65003
            passive
        }
    }
}
`)
	if err != nil {
		t.Fatal(err)
	}
	bgpNode := cfg.Child("protocols").Child("bgp")
	peers := bgpNode.ChildrenNamed("peer")
	if len(peers) != 3 {
		t.Fatalf("parsed %d peers", len(peers))
	}
	p1, err := parsePeerConfig(withEmbeddedGroup(peers[0], bgpNode))
	if err != nil {
		t.Fatal(err)
	}
	if p1.Group != "rs" || p1.PeerAS != 65002 || p1.LocalAddr != mustA("192.168.1.1") {
		t.Fatalf("p1 did not inherit group defaults: %+v", p1)
	}
	if p1.HoldTime != 30*time.Second || !p1.Passive {
		t.Fatalf("p1 holdtime/passive: %+v", p1)
	}
	solo, err := parsePeerConfig(peers[2])
	if err != nil {
		t.Fatal(err)
	}
	if solo.Group != "" {
		t.Fatalf("solo peer got group %q", solo.Group)
	}

	// The reload planner embeds the peer-group block into peer changes so
	// the agent can resolve defaults with no other context.
	embedded := withEmbeddedGroup(peers[0], bgpNode)
	if embedded.Child("peer-group") == nil {
		t.Fatal("peer-group block not embedded")
	}
	pe, err := parsePeerConfig(embedded)
	if err != nil {
		t.Fatal(err)
	}
	if pe.Group != "rs" || pe.PeerAS != 65002 || pe.HoldTime != 30*time.Second {
		t.Fatalf("embedded parse lost defaults: %+v", pe)
	}
	// A peer that is not in a group passes through unembedded.
	if withEmbeddedGroup(peers[2], bgpNode) != peers[2] {
		t.Fatal("ungrouped peer was copied")
	}
}

func TestPeerGroupInAssembly(t *testing.T) {
	// A full router with grouped peers: the BGP process must build one
	// shared group output branch, and a route from one member must be
	// encoded once and fanned to the other members (split horizon keeps
	// it away from the contributor). The members dial a plain BGP speaker
	// each on loopback; the group works only while a session is up.
	var fars [2]*peerRIB
	cfgText := baseConfig
	for i, as := range []uint16{65002, 65003} {
		loop := eventloop.New(nil)
		go loop.Run()
		defer loop.Stop()
		fars[i] = &peerRIB{has: make(map[netip.Prefix]bool)}
		far := bgp.NewProcess(loop, bgp.Config{AS: as, BGPID: mustA(fmt.Sprintf("192.168.1.%d", i+2)), ListenAddr: "127.0.0.1:0"}, fars[i], nil)
		defer loop.DispatchAndWait(far.Close)
		loop.DispatchAndWait(func() {
			if err := far.Listen(); err != nil {
				t.Error(err)
			}
			if _, err := far.AddPeer(bgp.PeerConfig{Name: "r", LocalAddr: mustA("127.0.0.1"), PeerAddr: mustA("127.0.0.1"),
				PeerAS: 65001, Passive: true, HoldTime: 30 * time.Second}); err != nil {
				t.Error(err)
			}
			far.EnablePeer("r")
		})
		member := fmt.Sprintf("peer p%d {\n            local-addr 192.168.1.1", i+1)
		cfgText = strings.Replace(cfgText, member, strings.Replace(member, "{", "{\n            group rs", 1), 1)
		cfgText = strings.Replace(cfgText, fmt.Sprintf("as %d\n            passive", as),
			fmt.Sprintf("as %d\n            dial %s", as, far.ListenAddr()), 1)
	}
	r, err := NewRouter(cfgText, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Stop()
	if err := r.Start(); err != nil {
		t.Fatal(err)
	}
	var g *bgp.GroupOut
	r.BGP.Loop().DispatchAndWait(func() { g = r.BGP.Group("rs") })
	if g == nil {
		t.Fatal("group rs not built")
	}
	if g.Members() != 2 {
		t.Fatalf("group has %d members", g.Members())
	}
	// onBGP reads the group's state on the BGP loop: what the group has
	// sent, what each member has been told, and its encode count.
	onBGP := func() (sent, c1, c2, encodes int, established bool) {
		r.BGP.Loop().DispatchAndWait(func() {
			p1, _ := r.BGP.Peer("p1")
			p2, _ := r.BGP.Peer("p2")
			sent, encodes = g.AnnouncedCount(), g.EncodeCalls
			c1, c2 = g.MemberAnnouncedCount(p1.Handle()), g.MemberAnnouncedCount(p2.Handle())
			established = p1.State() == bgp.StateEstablished && p2.State() == bgp.StateEstablished
		})
		return
	}
	waitCond(t, "both members' sessions established", func() bool {
		_, _, _, _, up := onBGP()
		return up
	})
	inject := func(net netip.Prefix) {
		attrs := workload.TestAttrs(mustA("10.0.0.1"), 65002)
		r.BGP.Loop().DispatchAndWait(func() {
			r.BGP.InjectUpdate("p1", &bgp.UpdateMsg{Attrs: attrs, NLRI: []netip.Prefix{net}})
		})
	}
	net := mustP("20.9.0.0/16")
	inject(net)
	waitCond(t, "route reaches the group", func() bool {
		sent, _, _, _, _ := onBGP()
		return sent == 1
	})
	// Contributor suppressed, other member told, once encoded.
	if _, c1, c2, encodes, _ := onBGP(); c1 != 0 || c2 != 1 || encodes != 1 {
		t.Fatalf("member visibility: contributor=%d other=%d after %d encodes", c1, c2, encodes)
	}
	waitCond(t, "the other member's speaker holds the route", func() bool { return fars[1].holds(net) })
	if fars[0].holds(net) {
		t.Fatal("the contributor's speaker was sent its own route")
	}

	// With both sessions closed the group is parked: it reports 0 and
	// encodes nothing.
	for i := range fars {
		r.BGP.Loop().DispatchAndWait(func() {
			p, _ := r.BGP.Peer(fmt.Sprintf("p%d", i+1))
			p.Disable()
		})
	}
	_, _, _, before, _ := onBGP()
	inject(mustP("20.10.0.0/16"))
	if sent, c1, c2, encodes, _ := onBGP(); sent != 0 || c1 != 0 || c2 != 0 || encodes != before {
		t.Fatalf("sessionless group: %d sent (%d, %d to members) after %d encodes", sent, c1, c2, encodes-before)
	}
}
