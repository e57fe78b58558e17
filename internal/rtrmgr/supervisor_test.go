package rtrmgr

import (
	"net/netip"
	"strings"
	"testing"
	"time"

	"xorp/internal/bgp"
	"xorp/internal/eventloop"
	"xorp/internal/kernel"
	"xorp/internal/rip"
	"xorp/internal/route"
	"xorp/internal/workload"
)

// fastSup is a supervision config tuned for tests: quick respawns, a
// window wide enough that every test kill counts as rapid.
func fastSup() SupervisorConfig {
	return SupervisorConfig{
		InitialBackoff: 10 * time.Millisecond,
		MaxBackoff:     50 * time.Millisecond,
		RapidWindow:    time.Minute,
		MaxRapidDeaths: 10,
	}
}

func (r *Router) staleCount(t *testing.T, proto route.Protocol) int {
	t.Helper()
	var n int
	r.RIB.Loop().DispatchAndWait(func() { n = r.RIB.StaleCount(proto) })
	return n
}

// Kill the BGP process under an installed route: the route must survive
// in FIB and RIB (stale retention), the supervisor must respawn BGP
// from its config slice, and a re-announcement plus resync_complete
// must leave the table as if nothing happened.
func TestSupervisorRespawnsKilledBGP(t *testing.T) {
	r, err := NewRouter(baseConfig, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Stop()
	if err := r.Start(); err != nil {
		t.Fatal(err)
	}
	if _, err := r.EnableSupervision(fastSup()); err != nil {
		t.Fatal(err)
	}

	net1 := mustP("20.1.0.0/16")
	u := &bgp.UpdateMsg{
		Attrs: workload.TestAttrs(mustA("10.0.0.1"), 65002),
		NLRI:  []netip.Prefix{net1},
	}
	old := r.CurrentBGP()
	old.Loop().Dispatch(func() { old.InjectUpdate("p1", u) })
	waitCond(t, "BGP route in FIB", func() bool {
		e, ok := r.FIB.Lookup(mustA("20.1.2.3"))
		return ok && e.Net == net1
	})

	if err := r.KillProcess("bgp"); err != nil {
		t.Fatal(err)
	}
	// Graceful restart: the dead process's route is marked stale but
	// keeps forwarding.
	waitCond(t, "route marked stale after death", func() bool {
		return r.staleCount(t, route.ProtoEBGP) == 1
	})
	if _, ok := r.FIB.Lookup(mustA("20.1.2.3")); !ok {
		t.Fatal("FIB lost the route during the grace window")
	}

	waitCond(t, "BGP respawned", func() bool {
		p := r.CurrentBGP()
		return p != nil && p != old
	})
	deaths, respawns, givenUp := r.sup.Stats("bgp")
	if deaths != 1 || respawns != 1 || givenUp {
		t.Fatalf("stats = %d deaths, %d respawns, givenUp=%v", deaths, respawns, givenUp)
	}

	// The respawned process re-learns the same route; it un-stales in
	// place, and resync_complete closes the window with nothing to sweep.
	nu := r.CurrentBGP()
	nu.Loop().Dispatch(func() { nu.InjectUpdate("p1", u) })
	waitCond(t, "re-learned route un-staled", func() bool {
		return r.staleCount(t, route.ProtoEBGP) == 0
	})
	var swept int
	r.RIB.Loop().DispatchAndWait(func() {
		swept = r.RIB.ResyncComplete(route.ProtoEBGP) + r.RIB.ResyncComplete(route.ProtoIBGP)
	})
	if swept != 0 {
		t.Fatalf("resync swept %d routes; re-learned route should have un-staled", swept)
	}
	e, ok := r.FIB.Lookup(mustA("20.1.2.3"))
	if !ok || e.Net != net1 {
		t.Fatalf("FIB after restart: %+v %v", e, ok)
	}
}

// Kill RIP on one of two peered routers: the respawn must bind the RIP
// port through the FEA again (the port is the class's, so the FEA finds
// it held and keeps it) and re-learn the neighbour's routes from its
// periodic updates.
func TestSupervisorRespawnsKilledRIP(t *testing.T) {
	netw := kernel.NewNetwork()
	mk := func(addr string) *Router {
		r, err := NewRouter(`
interfaces { eth0 { address `+addr+`/24; } }
protocols { rip { update-interval 1 } }
`, Options{Network: netw, LocalAddr: mustA(addr)})
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
	if _, err := b.EnableSupervision(fastSup()); err != nil {
		t.Fatal(err)
	}

	target := mustP("172.30.0.0/16")
	a.RIP.RedistAdd(route.Entry{Net: target})
	waitCond(t, "RIP route in b's FIB", func() bool {
		e, ok := b.FIB.Lookup(mustA("172.30.1.1"))
		return ok && e.Net == target
	})

	killed := b.CurrentRIP()
	if err := b.KillProcess("rip"); err != nil {
		t.Fatal(err)
	}
	if _, ok := b.FIB.Lookup(mustA("172.30.1.1")); !ok {
		t.Fatal("FIB lost RIP route during grace window")
	}
	waitCond(t, "RIP respawned", func() bool {
		p := b.CurrentRIP()
		return p != nil && p != killed
	})
	// The neighbour's next periodic update re-teaches the route, which
	// un-stales in place.
	waitCond(t, "RIP route re-learned after respawn", func() bool {
		e, ok := b.FIB.Lookup(mustA("172.30.1.1"))
		return ok && e.Net == target && b.staleCount(t, route.ProtoRIP) == 0
	})
}

// Same for OSPF: respawn re-joins the multicast group, re-binds the
// port, re-forms the adjacency, and SPF re-learns the topology.
func TestSupervisorRespawnsKilledOSPF(t *testing.T) {
	netw := kernel.NewNetwork()
	a, err := NewRouter(`
interfaces { eth0 { address 192.168.1.1/24; } }
static { route 172.31.0.0/16 next-hop 192.168.1.200; }
protocols { ospf { hello-interval 1; dead-interval 3; redistribute static; } }
`, Options{Network: netw, LocalAddr: mustA("192.168.1.1")})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Stop()
	b, err := NewRouter(`
interfaces { eth0 { address 192.168.1.2/24; } }
protocols { ospf { hello-interval 1; dead-interval 3; } }
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
	if _, err := b.EnableSupervision(fastSup()); err != nil {
		t.Fatal(err)
	}

	target := mustP("172.31.0.0/16")
	waitCond(t, "OSPF route in b's FIB", func() bool {
		e, ok := b.FIB.Lookup(mustA("172.31.1.1"))
		return ok && e.Net == target
	})

	killed := b.CurrentOSPF()
	if err := b.KillProcess("ospf"); err != nil {
		t.Fatal(err)
	}
	if _, ok := b.FIB.Lookup(mustA("172.31.1.1")); !ok {
		t.Fatal("FIB lost OSPF route during grace window")
	}
	waitCond(t, "OSPF respawned", func() bool {
		p := b.CurrentOSPF()
		return p != nil && p != killed
	})
	// Adjacency re-forms (the neighbour may need a dead-interval to
	// notice the restart), flooding re-teaches the route, stale clears.
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		e, ok := b.FIB.Lookup(mustA("172.31.1.1"))
		if ok && e.Net == target && b.staleCount(t, route.ProtoOSPF) == 0 {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatal("OSPF route not re-learned after respawn")
}

// The whole kill/respawn cycle in deterministic simulated time: the
// supervisor's backoff timer, the Finder death broadcast, and the
// respawn's re-registration all driven from the shared loop.
func TestSupervisorSimMode(t *testing.T) {
	clock := eventloop.NewSimClock(time.Unix(1000, 0))
	r, err := NewRouter(baseConfig, Options{Clock: clock, SharedLoop: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Start(); err != nil {
		t.Fatal(err)
	}
	r.SettleAll()
	if _, err := r.EnableSupervision(fastSup()); err != nil {
		t.Fatal(err)
	}
	loop := r.Loops()[0]

	net1 := mustP("20.1.0.0/16")
	u := &bgp.UpdateMsg{
		Attrs: workload.TestAttrs(mustA("10.0.0.1"), 65002),
		NLRI:  []netip.Prefix{net1},
	}
	old := r.CurrentBGP()
	old.Loop().Dispatch(func() { old.InjectUpdate("p1", u) })
	r.SettleAll()
	if e, ok := r.FIB.Lookup(mustA("20.1.2.3")); !ok || e.Net != net1 {
		t.Fatalf("route not installed: %+v %v", e, ok)
	}

	if err := r.KillProcess("bgp"); err != nil {
		t.Fatal(err)
	}
	r.SettleAll() // deliver the death event
	if n := r.RIB.StaleCount(route.ProtoEBGP); n != 1 {
		t.Fatalf("stale count after death = %d", n)
	}
	if _, ok := r.FIB.Lookup(mustA("20.1.2.3")); !ok {
		t.Fatal("FIB lost route during grace window")
	}

	loop.RunFor(time.Second) // fire the respawn backoff timer
	r.SettleAll()
	nu := r.CurrentBGP()
	if nu == nil || nu == old {
		t.Fatal("BGP not respawned in sim mode")
	}
	nu.Loop().Dispatch(func() { nu.InjectUpdate("p1", u) })
	r.SettleAll()
	if n := r.RIB.StaleCount(route.ProtoEBGP); n != 0 {
		t.Fatalf("stale count after re-learn = %d", n)
	}
	if e, ok := r.FIB.Lookup(mustA("20.1.2.3")); !ok || e.Net != net1 {
		t.Fatalf("route lost after respawn: %+v %v", e, ok)
	}
}

// TestSupervisorBackoffScheduleSim pins the backoff schedule in
// deterministic time: respawns fire at Initial, 2x, then cap at
// MaxBackoff for every later rapid death — never earlier, never later.
func TestSupervisorBackoffScheduleSim(t *testing.T) {
	clock := eventloop.NewSimClock(time.Unix(1000, 0))
	r, err := NewRouter(baseConfig, Options{Clock: clock, SharedLoop: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Start(); err != nil {
		t.Fatal(err)
	}
	r.SettleAll()
	cfg := SupervisorConfig{
		InitialBackoff: 100 * time.Millisecond,
		MaxBackoff:     400 * time.Millisecond,
		RapidWindow:    time.Minute,
		MaxRapidDeaths: 10,
	}
	if _, err := r.EnableSupervision(cfg); err != nil {
		t.Fatal(err)
	}
	loop := r.Loops()[0]

	// Expected backoffs for rapid deaths 1..4: 100, 200, 400 (cap), 400.
	for kill, backoff := range []time.Duration{
		100 * time.Millisecond,
		200 * time.Millisecond,
		400 * time.Millisecond,
		400 * time.Millisecond,
	} {
		prev := r.CurrentBGP()
		if prev == nil {
			t.Fatalf("kill %d: no live process to kill", kill+1)
		}
		if err := r.KillProcess("bgp"); err != nil {
			t.Fatalf("kill %d: %v", kill+1, err)
		}
		r.SettleAll() // deliver the death event, arming the backoff timer
		loop.RunFor(backoff - 10*time.Millisecond)
		r.SettleAll()
		if p := r.CurrentBGP(); p != nil {
			t.Fatalf("kill %d: respawned %v early (backoff %v)", kill+1, 10*time.Millisecond, backoff)
		}
		loop.RunFor(20 * time.Millisecond)
		r.SettleAll()
		if p := r.CurrentBGP(); p == nil || p == prev {
			t.Fatalf("kill %d: not respawned after backoff %v", kill+1, backoff)
		}
	}
	deaths, respawns, givenUp := r.sup.Stats("bgp")
	if deaths != 4 || respawns != 4 || givenUp {
		t.Fatalf("stats = %d deaths, %d respawns, givenUp=%v", deaths, respawns, givenUp)
	}
}

// TestSupervisorAlarmAfterRapidDeathsSim drives the give-up path in
// simulated time: death N+1 within the rapid window abandons the class,
// fires the alarm exactly once, and schedules no further respawns. It is
// the only test of that path: whether a death is "rapid" is a comparison of
// clock readings, and a version that killed on the wall clock gave a slow
// respawn (five -race packages on two CPUs) the time to fall outside the
// window.
func TestSupervisorAlarmAfterRapidDeathsSim(t *testing.T) {
	clock := eventloop.NewSimClock(time.Unix(1000, 0))
	r, err := NewRouter(baseConfig, Options{Clock: clock, SharedLoop: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Start(); err != nil {
		t.Fatal(err)
	}
	r.SettleAll()
	var alarms []string
	cfg := SupervisorConfig{
		InitialBackoff: 10 * time.Millisecond,
		MaxBackoff:     50 * time.Millisecond,
		RapidWindow:    time.Minute,
		MaxRapidDeaths: 2,
		Alarm:          func(class string, deaths int) { alarms = append(alarms, class) },
	}
	if _, err := r.EnableSupervision(cfg); err != nil {
		t.Fatal(err)
	}
	loop := r.Loops()[0]

	for kill := 1; kill <= 3; kill++ {
		if r.CurrentBGP() == nil {
			t.Fatalf("kill %d: process not alive", kill)
		}
		if err := r.KillProcess("bgp"); err != nil {
			t.Fatalf("kill %d: %v", kill, err)
		}
		r.SettleAll()
		loop.RunFor(100 * time.Millisecond)
		r.SettleAll()
	}
	if len(alarms) != 1 || alarms[0] != "bgp" {
		t.Fatalf("alarms = %v, want exactly one for bgp", alarms)
	}
	deaths, respawns, givenUp := r.sup.Stats("bgp")
	if !givenUp || deaths != 3 || respawns != 2 {
		t.Fatalf("stats = %d deaths, %d respawns, givenUp=%v", deaths, respawns, givenUp)
	}
	// Abandoned for good: no respawn however long we wait.
	loop.RunFor(2 * time.Second)
	r.SettleAll()
	if r.CurrentBGP() != nil {
		t.Fatal("abandoned process was respawned")
	}
}

// TestSupervisorRespawnDuringTransactionAborts covers the interaction
// between supervision and the reload coordinator: a participant dies
// and is respawned while a transaction is between its validate and
// commit phases. The transaction must abort (the respawned process has
// no staged state), leave everything untouched, and the same reload
// must succeed once retried against the respawned process.
func TestSupervisorRespawnDuringTransactionAborts(t *testing.T) {
	clock := eventloop.NewSimClock(time.Unix(1000, 0))
	r, err := NewRouter(baseConfig, Options{Clock: clock, SharedLoop: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Start(); err != nil {
		t.Fatal(err)
	}
	r.SettleAll()
	if _, err := r.EnableSupervision(fastSup()); err != nil {
		t.Fatal(err)
	}
	loop := r.Loops()[0]

	before := Render(r.Config, 0)
	// Between the phases: kill BGP and drive time until the supervisor
	// has fully respawned it — the commit phase then faces a process
	// that never saw validate_tx.
	r.txHooks = TxHooks{AfterValidate: func() {
		old := r.CurrentBGP()
		if err := r.KillProcess("bgp"); err != nil {
			t.Errorf("kill: %v", err)
		}
		r.SettleAll()
		for i := 0; i < 100; i++ {
			if p := r.CurrentBGP(); p != nil && p != old {
				break
			}
			loop.RunFor(20 * time.Millisecond)
			r.SettleAll()
		}
		if p := r.CurrentBGP(); p == nil || p == old {
			t.Errorf("bgp not respawned inside the transaction window")
		}
	}}
	cand := strings.NewReplacer(
		"route 10.99.0.0/16 next-hop 192.168.1.253;", "route 10.77.0.0/16 next-hop 192.168.1.253;",
		"peer p2 {", "peer p3 { local-addr 192.168.1.1; peer-addr 192.168.1.9; as 65009; passive; }\n        peer p2 {",
	).Replace(baseConfig)
	err = r.Reload(cand)
	if err == nil {
		t.Fatal("reload across a respawn succeeded")
	}
	if g := r.Generation(); g != 1 {
		t.Fatalf("generation = %d after aborted reload", g)
	}
	if Render(r.Config, 0) != before {
		t.Fatal("aborted reload modified the running config")
	}
	r.SettleAll()
	if e, ok := r.FIB.Lookup(mustA("10.77.1.1")); ok && e.Net == mustP("10.77.0.0/16") {
		t.Fatal("aborted reload leaked the staged static route")
	}

	// Retried against the respawned process, the same candidate commits.
	r.txHooks = TxHooks{}
	if err := r.Reload(cand); err != nil {
		t.Fatalf("retry reload: %v", err)
	}
	r.SettleAll()
	if e, ok := r.FIB.Lookup(mustA("10.77.1.1")); !ok || e.Net != mustP("10.77.0.0/16") {
		t.Fatal("retried reload did not install the new static route")
	}
	var havePeer bool
	p := r.CurrentBGP()
	p.Loop().Dispatch(func() { _, havePeer = p.Peer("p3") })
	r.SettleAll()
	if !havePeer {
		t.Fatal("retried reload did not add peer p3")
	}
}

// A killed IGP stays dead. RIP reaches the RIB over XRLs like every other
// process, and on a shared loop the killed incarnation's timers outlive
// it. Handed a withdrawal, it must not reach the RIB: its XRL router is
// closed, and the route is what stale retention is keeping. And the
// expiry timer of a route it had learned must not fire 180 s after its
// last refresh: the respawned RIP holds the same route at the same metric
// and would never re-add it, a black hole until the neighbour's metric
// changed. The neighbour is a raw host on the fabric, so nothing but its
// refreshes keeps the route.
func TestSupervisorKilledRIPCannotWithdraw(t *testing.T) {
	clock := eventloop.NewSimClock(time.Unix(1000, 0))
	netw := kernel.NewNetwork()
	r, err := NewRouter(`
interfaces { eth0 { address 192.168.1.1/24; } }
protocols { rip { } }
`, Options{Clock: clock, SharedLoop: true, Network: netw, LocalAddr: mustA("192.168.1.1")})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Start(); err != nil {
		t.Fatal(err)
	}
	r.SettleAll()
	if _, err := r.EnableSupervision(fastSup()); err != nil {
		t.Fatal(err)
	}
	loop := r.Loops()[0]

	nbr, err := netw.Attach(mustA("192.168.1.2"))
	if err != nil {
		t.Fatal(err)
	}
	learned, local := mustP("172.30.0.0/16"), mustP("172.29.0.0/16")
	pkt, err := (&rip.Packet{Command: rip.CmdResponse, RTEs: []rip.RTE{{Net: learned, Metric: 1}}}).Append(nil)
	if err != nil {
		t.Fatal(err)
	}
	teach := func() {
		nbr.SendTo(rip.Port, netip.AddrPortFrom(mustA("192.168.1.1"), rip.Port), pkt)
		r.SettleAll()
	}
	inFIB := func(net netip.Prefix) bool {
		e, ok := r.FIB.Lookup(net.Addr().Next())
		return ok && e.Net == net
	}

	old := r.CurrentRIP()
	old.RedistAdd(route.Entry{Net: local})
	teach()
	if !inFIB(learned) || !inFIB(local) {
		t.Fatalf("before the kill: learned in FIB %v, local in FIB %v", inFIB(learned), inFIB(local))
	}

	if err := r.KillProcess("rip"); err != nil {
		t.Fatal(err)
	}
	r.SettleAll()
	old.WithdrawLocal(local)
	r.SettleAll()
	if !inFIB(local) {
		t.Fatal("a killed RIP process withdrew a route from the RIB")
	}

	loop.RunFor(time.Second) // the respawn backoff
	r.SettleAll()
	nu := r.CurrentRIP()
	if nu == nil || nu == old {
		t.Fatal("RIP not respawned")
	}
	nu.RedistAdd(route.Entry{Net: local}) // what the redistribution it serves would re-teach
	for at := 0; at <= 240; at += 30 {
		teach()
		if !inFIB(learned) {
			t.Fatalf("route lost at +%ds although the live RIP holds it (count %d)", at, nu.RouteCount())
		}
		if n := r.RIB.StaleCount(route.ProtoRIP); n != 0 {
			t.Fatalf("%d RIP routes stale at +%ds", n, at)
		}
		loop.RunFor(30 * time.Second)
		r.SettleAll()
	}
}

// Nor does a killed IGP reach the network: its packets go out through the
// FEA's relay over the XRL router teardown closed. Handed a withdrawal of
// a route it advertised, the dead incarnation's triggered update must not
// put a poisoned route on the wire — the neighbour would drop what the
// respawn is about to re-teach. The neighbour is a raw host counting, from
// the kill on, the RTEs for that prefix at metric 16.
func TestSupervisorKilledRIPIsSilent(t *testing.T) {
	clock := eventloop.NewSimClock(time.Unix(1000, 0))
	netw := kernel.NewNetwork()
	r, err := NewRouter(`
interfaces { eth0 { address 192.168.1.1/24; } }
protocols { rip { } }
`, Options{Clock: clock, SharedLoop: true, Network: netw, LocalAddr: mustA("192.168.1.1")})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Start(); err != nil {
		t.Fatal(err)
	}
	r.SettleAll()
	if _, err := r.EnableSupervision(fastSup()); err != nil {
		t.Fatal(err)
	}
	nbr, err := netw.Attach(mustA("192.168.1.2"))
	if err != nil {
		t.Fatal(err)
	}
	local := mustP("172.29.0.0/16")
	var killed bool
	var advertised, poisoned int
	if err := nbr.Bind(rip.Port, func(_ netip.AddrPort, payload []byte) {
		pkt, err := rip.Decode(payload)
		if err != nil {
			t.Errorf("undecodable RIP datagram: %v", err)
			return
		}
		for _, rte := range pkt.RTEs {
			switch {
			case rte.Net != local:
			case rte.Metric < rip.Infinity:
				advertised++
			case killed:
				poisoned++
			}
		}
	}); err != nil {
		t.Fatal(err)
	}

	old := r.CurrentRIP()
	old.RedistAdd(route.Entry{Net: local})
	r.Loops()[0].RunFor(5 * time.Second) // the triggered update
	r.SettleAll()
	if advertised == 0 {
		t.Fatal("RIP never advertised the route")
	}
	if err := r.KillProcess("rip"); err != nil {
		t.Fatal(err)
	}
	r.SettleAll()
	killed = true
	old.WithdrawLocal(local)
	r.Loops()[0].RunFor(5 * time.Second) // the dead incarnation's triggered update, and the respawn
	r.SettleAll()
	if poisoned != 0 {
		t.Fatalf("a killed RIP process put %d poisoned RTEs for %v on the wire", poisoned, local)
	}
	if nu := r.CurrentRIP(); nu == nil || nu == old {
		t.Fatal("RIP not respawned")
	}
}

// RIP honours `redistribute static` at the static route's metric, and a
// killed process is handed nothing of it: the RIB quiets the
// redistribution at the death, and no withdrawal may reach the dead
// incarnation — a crash withdraws nothing, and an IGP handed one would
// flood it to its neighbours as its last act. The respawn's birth gets
// it the route afresh.
func TestSupervisorKilledProcessKeepsRedistribution(t *testing.T) {
	clock := eventloop.NewSimClock(time.Unix(1000, 0))
	r, err := NewRouter(`
static { route 172.16.0.0/16 metric 3; }
protocols { rip { redistribute static; } }
`, Options{Clock: clock, SharedLoop: true, Network: kernel.NewNetwork(), LocalAddr: mustA("192.168.1.1")})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Start(); err != nil {
		t.Fatal(err)
	}
	if _, err := r.EnableSupervision(fastSup()); err != nil {
		t.Fatal(err)
	}
	r.SettleAll()
	net := mustP("172.16.0.0/16")
	old := r.CurrentRIP()
	if m, ok := old.Lookup(net); !ok || m != 3 {
		t.Fatalf("RIP holds the redistributed static at %d %v, want metric 3", m, ok)
	}

	if err := r.KillProcess("rip"); err != nil {
		t.Fatal(err)
	}
	r.SettleAll()
	if _, ok := old.Lookup(net); !ok {
		t.Fatal("the killed RIP process was handed its redistribution's withdrawal")
	}
	r.Loops()[0].RunFor(time.Second) // the respawn backoff
	r.SettleAll()
	nu := r.CurrentRIP()
	if nu == nil || nu == old {
		t.Fatal("RIP not respawned")
	}
	if m, ok := nu.Lookup(net); !ok || m != 3 {
		t.Fatalf("respawned RIP holds the redistributed static at %d %v, want metric 3", m, ok)
	}
}

// redistSpy is a redistribution subscriber in the test's hands.
type redistSpy struct{ adds, dels int }

func (s *redistSpy) RedistAdd(route.Entry)    { s.adds++ }
func (s *redistSpy) RedistDelete(route.Entry) { s.dels++ }

// A killed process is fed nothing while it is dead, and afresh once it is
// born again. Its death quiets every redist stage feeding its class: no
// withdrawal reaches anyone (a crash withdraws nothing), nor an add for a
// route the RIB learns meanwhile. Its respawn's birth primes each stage
// from the table. A spy stage spliced for class rip hears all of it.
func TestSupervisorKilledProcessIsFedNothingWhileDead(t *testing.T) {
	clock := eventloop.NewSimClock(time.Unix(1000, 0))
	r, err := NewRouter(`
static { route 172.16.0.0/16 metric 3; }
protocols { rip { redistribute static; } }
`, Options{Clock: clock, SharedLoop: true, Network: kernel.NewNetwork(), LocalAddr: mustA("192.168.1.1")})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Start(); err != nil {
		t.Fatal(err)
	}
	if _, err := r.EnableSupervision(fastSup()); err != nil {
		t.Fatal(err)
	}
	r.SettleAll()
	spy := &redistSpy{}
	if _, err := r.RIB.AddRedist("spy", "rip", nil, spy); err != nil {
		t.Fatal(err)
	}
	if spy.adds != 1 {
		t.Fatalf("the spy's stage was primed with %d routes, want 1", spy.adds)
	}

	if err := r.KillProcess("rip"); err != nil {
		t.Fatal(err)
	}
	r.SettleAll() // the death event, not yet the respawn
	if r.CurrentRIP() != nil {
		t.Fatal("RIP respawned before its backoff")
	}
	late := mustP("172.17.0.0/16")
	if err := r.RIB.AddRoute(route.ProtoStatic, route.Entry{Net: late, Metric: 4}); err != nil {
		t.Fatal(err)
	}
	r.SettleAll()
	if spy.adds != 1 || spy.dels != 0 {
		t.Fatalf("while RIP was dead the spy heard %d adds and %d withdrawals, want none", spy.adds-1, spy.dels)
	}

	r.Loops()[0].RunFor(time.Second) // the respawn backoff
	r.SettleAll()
	nu := r.CurrentRIP()
	if nu == nil {
		t.Fatal("RIP not respawned")
	}
	if spy.adds != 3 || spy.dels != 0 {
		t.Fatalf("after the respawn the spy heard %d adds and %d withdrawals, want a priming of 2", spy.adds-1, spy.dels)
	}
	if m, ok := nu.Lookup(late); !ok || m != 4 {
		t.Fatalf("the respawned RIP holds the static learnt while it was dead at %d %v, want metric 4", m, ok)
	}
}

// A killed process stays dead, the XRL road: teardown closes the dead
// BGP's XRL router so that nothing it still does reaches the RIB, and a
// closed router must mean that — not merely that bgp.Process.Close
// happens not to emit. Hand the killed process a withdrawal of the route
// stale retention is keeping.
func TestSupervisorKilledBGPCannotReachRIB(t *testing.T) {
	clock := eventloop.NewSimClock(time.Unix(1000, 0))
	r, err := NewRouter(baseConfig, Options{Clock: clock, SharedLoop: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Start(); err != nil {
		t.Fatal(err)
	}
	r.SettleAll()

	net1 := mustP("20.1.0.0/16")
	old := r.CurrentBGP()
	old.InjectUpdate("p1", &bgp.UpdateMsg{
		Attrs: workload.TestAttrs(mustA("10.0.0.1"), 65002),
		NLRI:  []netip.Prefix{net1},
	})
	r.SettleAll()
	if e, ok := r.FIB.Lookup(mustA("20.1.2.3")); !ok || e.Net != net1 {
		t.Fatalf("route not installed: %+v %v", e, ok)
	}
	if err := r.KillProcess("bgp"); err != nil {
		t.Fatal(err)
	}
	r.SettleAll()
	old.InjectUpdate("p1", &bgp.UpdateMsg{Withdrawn: []netip.Prefix{net1}})
	r.SettleAll()
	if e, ok := r.FIB.Lookup(mustA("20.1.2.3")); !ok || e.Net != net1 {
		t.Fatal("a killed BGP process withdrew a route from the RIB")
	}
	if n := r.RIB.StaleCount(route.ProtoEBGP); n != 1 {
		t.Fatalf("stale count = %d, want the killed process's route retained", n)
	}
}

// The running config belongs to txMu once the router is live: a respawn
// reads its class's block on the supervisor's loop while a reload on
// another goroutine commits and swaps the tree. Static-only reloads, back
// to back across the respawn of a killed BGP; the race detector is the
// assertion.
func TestSupervisorRespawnReadsConfigUnderTxMu(t *testing.T) {
	r, err := NewRouter(baseConfig, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Stop()
	if err := r.Start(); err != nil {
		t.Fatal(err)
	}
	if _, err := r.EnableSupervision(fastSup()); err != nil {
		t.Fatal(err)
	}
	more := strings.Replace(baseConfig, "route 10.99.0.0/16 next-hop 192.168.1.253;",
		"route 10.99.0.0/16 next-hop 192.168.1.253;\n    route 10.77.0.0/16 next-hop 192.168.1.253;", 1)
	for kill := 0; kill < 3; kill++ {
		old := r.CurrentBGP()
		if err := r.KillProcess("bgp"); err != nil {
			t.Fatal(err)
		}
		// The respawn fires 10 ms after the death; reload through it.
		for until := time.Now().Add(50 * time.Millisecond); time.Now().Before(until); {
			for _, cand := range []string{more, baseConfig} {
				if err := r.Reload(cand); err != nil {
					t.Fatalf("static-only reload: %v", err)
				}
			}
		}
		waitCond(t, "BGP respawned", func() bool {
			p := r.CurrentBGP()
			return p != nil && p != old
		})
	}
}
