package rtrmgr

import (
	"fmt"
	"net/netip"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"xorp/internal/bgp"
	"xorp/internal/eventloop"
	"xorp/internal/kernel"
	"xorp/internal/workload"
)

func TestDiffConfig(t *testing.T) {
	running, err := ParseConfig(baseConfig)
	if err != nil {
		t.Fatal(err)
	}
	candText := strings.NewReplacer(
		// Modify a leaf in place.
		"local-as 65001", "local-as 65001",
		// Remove one static route, add another.
		"route 10.99.0.0/16 next-hop 192.168.1.253;", "route 10.77.0.0/16 next-hop 192.168.1.253;",
		// Add a peer.
		"peer p2 {", "peer p3 { local-addr 192.168.1.1; peer-addr 192.168.1.9; as 65009; passive; }\n        peer p2 {",
	).Replace(baseConfig)
	candidate, err := ParseConfig(candText)
	if err != nil {
		t.Fatal(err)
	}
	changes := DiffConfig(running, candidate)
	got := make(map[string]ChangeVerb)
	for _, c := range changes {
		got[c.PathString()] = c.Verb
	}
	want := map[string]ChangeVerb{
		"static / route 10.99.0.0/16 next-hop 192.168.1.253": ChangeRemove,
		"static / route 10.77.0.0/16 next-hop 192.168.1.253": ChangeAdd,
		"protocols / bgp / peer p3":                          ChangeAdd,
	}
	if len(got) != len(want) {
		t.Fatalf("diff = %v, want %v", got, want)
	}
	for p, v := range want {
		if got[p] != v {
			t.Errorf("diff[%s] = %v, want %v (all: %v)", p, got[p], v, got)
		}
	}

	// A leaf value change diffs as a modify.
	modText := strings.Replace(baseConfig, "local-as 65001", "local-as 65999", 1)
	mod, _ := ParseConfig(modText)
	mc := DiffConfig(running, mod)
	if len(mc) != 1 || mc[0].Verb != ChangeModify || mc[0].PathString() != "protocols / bgp / local-as" {
		t.Fatalf("modify diff = %+v", mc)
	}

	// Wire round-trip preserves verb, path, and both subtrees.
	for _, c := range append(changes, mc...) {
		back, err := DecodeChange(c.Encode())
		if err != nil {
			t.Fatalf("decode %s: %v", c.PathString(), err)
		}
		if back.Verb != c.Verb || back.PathString() != c.PathString() {
			t.Fatalf("round-trip %s changed to %s", c.PathString(), back.PathString())
		}
		if renderNode(back.Old) != renderNode(c.Old) || renderNode(back.New) != renderNode(c.New) {
			t.Fatalf("round-trip %s altered subtrees", c.PathString())
		}
	}

	// Inverse of the diff applied to the diff's verbs: add<->remove swap.
	inv := mc[0].Inverse()
	if inv.Verb != ChangeModify || renderNode(inv.New) != renderNode(mc[0].Old) {
		t.Fatalf("inverse = %+v", inv)
	}
}

// txDump captures the observable state the atomicity oracle compares:
// the rendered running config, the full FIB, and the RIB's best route
// for every installed prefix.
func txDump(t *testing.T, r *Router) string {
	t.Helper()
	var fibLines []string
	var prefixes []netip.Prefix
	r.FIB.Walk(func(e kernel.FIBEntry) bool {
		fibLines = append(fibLines, fmt.Sprintf("fib %v via %v dev %s", e.Net, e.NextHop, e.IfName))
		prefixes = append(prefixes, e.Net)
		return true
	})
	sort.Strings(fibLines)
	var ribLines []string
	r.RIB.Loop().DispatchAndWait(func() {
		for _, pfx := range prefixes {
			e, ok := r.RIB.LookupBest(pfx.Addr().Next())
			if !ok {
				ribLines = append(ribLines, fmt.Sprintf("rib %v missing", pfx))
				continue
			}
			ribLines = append(ribLines, fmt.Sprintf("rib %v via %v metric %d proto %v",
				e.Net, e.NextHop, e.Metric, e.Protocol))
		}
	})
	sort.Strings(ribLines)
	return Render(r.Config, 0) + "\n" + strings.Join(append(fibLines, ribLines...), "\n")
}

// TestReloadCommitInPlace drives a full two-phase reload on a live
// router: a new peer, a static route swap — while an injected BGP route
// must survive with zero FIB churn.
func TestReloadCommitInPlace(t *testing.T) {
	r, err := NewRouter(baseConfig, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Stop()
	if err := r.Start(); err != nil {
		t.Fatal(err)
	}
	waitCond(t, "static routes in FIB", func() bool {
		e, ok := r.FIB.Lookup(mustA("10.99.1.1"))
		return ok && e.Net == mustP("10.99.0.0/16") // 10.0.0.0/8 answers too, and lands first
	})

	// A live BGP route that the reload must not touch.
	net1 := mustP("20.1.0.0/16")
	u := &bgp.UpdateMsg{Attrs: workload.TestAttrs(mustA("10.0.0.1"), 65002), NLRI: []netip.Prefix{net1}}
	r.BGP.Loop().Dispatch(func() { r.BGP.InjectUpdate("p1", u) })
	waitCond(t, "BGP route in FIB", func() bool {
		e, ok := r.FIB.Lookup(mustA("20.1.2.3"))
		return ok && e.Net == net1
	})

	// Unaffected prefixes must see no FIB installs during the reload.
	var stableOps atomic.Int64
	r.FIB.SetInstallObserver(func(e kernel.FIBEntry) {
		if e.Net == net1 || e.Net == mustP("10.0.0.0/8") {
			stableOps.Add(1)
		}
	})
	defer r.FIB.SetInstallObserver(nil)

	candText := strings.NewReplacer(
		"route 10.99.0.0/16 next-hop 192.168.1.253;", "route 10.77.0.0/16 next-hop 192.168.1.253;",
		"peer p2 {", "peer p3 { local-addr 192.168.1.1; peer-addr 192.168.1.9; as 65009; passive; }\n        peer p2 {",
	).Replace(baseConfig)
	if err := r.Reload(candText); err != nil {
		t.Fatalf("reload: %v", err)
	}

	if g := r.Generation(); g != 2 {
		t.Fatalf("generation = %d, want 2", g)
	}
	if !strings.Contains(Render(r.Config, 0), "peer p3") {
		t.Fatal("running config not swapped to candidate")
	}
	var havePeer bool
	r.BGP.Loop().DispatchAndWait(func() { _, havePeer = r.BGP.Peer("p3") })
	if !havePeer {
		t.Fatal("peer p3 not created by commit")
	}
	waitCond(t, "new static route in FIB", func() bool {
		e, ok := r.FIB.Lookup(mustA("10.77.1.1"))
		return ok && e.Net == mustP("10.77.0.0/16")
	})
	waitCond(t, "old static route removed", func() bool {
		e, ok := r.FIB.Lookup(mustA("10.99.1.1"))
		return !ok || e.Net != mustP("10.99.0.0/16")
	})
	if e, ok := r.FIB.Lookup(mustA("20.1.2.3")); !ok || e.Net != net1 {
		t.Fatal("reload disturbed the live BGP route")
	}
	if n := stableOps.Load(); n != 0 {
		t.Fatalf("reload caused %d FIB installs on unaffected prefixes", n)
	}
}

// TestReloadValidateRejectAtomic proves phase-1 atomicity: a candidate
// that any participant rejects leaves config, RIB, and FIB untouched —
// even though another participant had already staged changes.
func TestReloadValidateRejectAtomic(t *testing.T) {
	r, err := NewRouter(baseConfig, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Stop()
	if err := r.Start(); err != nil {
		t.Fatal(err)
	}
	waitCond(t, "static routes in FIB", func() bool {
		e, ok := r.FIB.Lookup(mustA("10.99.1.1"))
		return ok && e.Net == mustP("10.99.0.0/16") // 10.0.0.0/8 answers too, and lands first
	})
	before := txDump(t, r)

	// The static change is valid (rib stages it); the local-as change is
	// not (bgp nacks); the transaction must abort everywhere.
	candText := strings.NewReplacer(
		"local-as 65001", "local-as 65999",
		"route 10.99.0.0/16 next-hop 192.168.1.253;", "route 10.77.0.0/16 next-hop 192.168.1.253;",
	).Replace(baseConfig)
	err = r.Reload(candText)
	if err == nil {
		t.Fatal("reload of a restart-only change succeeded")
	}
	if !strings.Contains(err.Error(), "rejected by bgp") {
		t.Fatalf("unexpected error: %v", err)
	}
	if g := r.Generation(); g != 1 {
		t.Fatalf("generation bumped to %d on abort", g)
	}
	if after := txDump(t, r); after != before {
		t.Fatalf("abort left state modified:\nbefore:\n%s\nafter:\n%s", before, after)
	}
}

// TestReloadKillMidCommitRollsBack is the paper-critical atomicity
// oracle: a participant dies between two commit_tx calls; the
// already-committed participant must be rolled back with the inverse
// plan, leaving config, RIB, and FIB byte-identical to pre-transaction.
func TestReloadKillMidCommitRollsBack(t *testing.T) {
	r, err := NewRouter(baseConfig, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Stop()
	if err := r.Start(); err != nil {
		t.Fatal(err)
	}
	waitCond(t, "static routes in FIB", func() bool {
		e, ok := r.FIB.Lookup(mustA("10.99.1.1"))
		return ok && e.Net == mustP("10.99.0.0/16") // 10.0.0.0/8 answers too, and lands first
	})
	before := txDump(t, r)

	// rib commits first (static route add); bgp is killed immediately
	// before its own commit.
	r.txHooks = TxHooks{BetweenCommits: func(class string) {
		if class == "bgp" {
			if err := r.KillProcess("bgp"); err != nil {
				t.Errorf("kill bgp: %v", err)
			}
		}
	}}
	candText := strings.NewReplacer(
		"route 10.99.0.0/16 next-hop 192.168.1.253;",
		"route 10.99.0.0/16 next-hop 192.168.1.253;\n    route 10.77.0.0/16 next-hop 192.168.1.253;",
		"peer p2 {", "peer p3 { local-addr 192.168.1.1; peer-addr 192.168.1.9; as 65009; passive; }\n        peer p2 {",
	).Replace(baseConfig)
	err = r.Reload(candText)
	if err == nil {
		t.Fatal("reload with a mid-commit crash succeeded")
	}
	if !strings.Contains(err.Error(), "rolled back") {
		t.Fatalf("error does not report rollback: %v", err)
	}
	if g := r.Generation(); g != 1 {
		t.Fatalf("generation bumped to %d on rollback", g)
	}
	waitCond(t, "staged static route rolled back", func() bool {
		e, ok := r.FIB.Lookup(mustA("10.77.1.1"))
		return !ok || e.Net != mustP("10.77.0.0/16")
	})
	if after := txDump(t, r); after != before {
		t.Fatalf("rollback incomplete:\nbefore:\n%s\nafter:\n%s", before, after)
	}
}

// TestReloadKillBetweenPhases kills a participant after validation but
// before any commit: nothing has been applied, so the abort path alone
// must restore invariants.
func TestReloadKillBetweenPhases(t *testing.T) {
	r, err := NewRouter(baseConfig, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Stop()
	if err := r.Start(); err != nil {
		t.Fatal(err)
	}
	waitCond(t, "static routes in FIB", func() bool {
		e, ok := r.FIB.Lookup(mustA("10.99.1.1"))
		return ok && e.Net == mustP("10.99.0.0/16") // 10.0.0.0/8 answers too, and lands first
	})
	before := txDump(t, r)

	r.txHooks = TxHooks{AfterValidate: func() {
		if err := r.KillProcess("bgp"); err != nil {
			t.Errorf("kill bgp: %v", err)
		}
	}}
	candText := strings.NewReplacer(
		"route 10.99.0.0/16 next-hop 192.168.1.253;",
		"route 10.99.0.0/16 next-hop 192.168.1.253;\n    route 10.77.0.0/16 next-hop 192.168.1.253;",
		"peer p2 {", "peer p3 { local-addr 192.168.1.1; peer-addr 192.168.1.9; as 65009; passive; }\n        peer p2 {",
	).Replace(baseConfig)
	err = r.Reload(candText)
	if err == nil {
		t.Fatal("reload across a validate/commit crash succeeded")
	}
	if g := r.Generation(); g != 1 {
		t.Fatalf("generation bumped to %d on abort", g)
	}
	if after := txDump(t, r); after != before {
		t.Fatalf("abort incomplete:\nbefore:\n%s\nafter:\n%s", before, after)
	}
}

// TestReloadSimulated runs a reload on a simulated-clock shared-loop
// assembly (the chaos harness configuration): the coordinator must pump
// the loops itself rather than wait on wall-clock time.
func TestReloadSimulated(t *testing.T) {
	clock := eventloop.NewSimClock(time.Unix(0, 0))
	r, err := NewRouter(baseConfig, Options{Clock: clock, SharedLoop: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Start(); err != nil {
		t.Fatal(err)
	}
	r.SettleAll()
	if _, ok := r.FIB.Lookup(mustA("10.99.1.1")); !ok {
		t.Fatal("static route missing before reload")
	}

	candText := strings.NewReplacer(
		"route 10.99.0.0/16 next-hop 192.168.1.253;", "route 10.77.0.0/16 next-hop 192.168.1.253;",
	).Replace(baseConfig)
	if err := r.Reload(candText); err != nil {
		t.Fatalf("simulated reload: %v", err)
	}
	r.SettleAll()
	if _, ok := r.FIB.Lookup(mustA("10.77.1.1")); !ok {
		t.Fatal("new static route missing after simulated reload")
	}
	if e, ok := r.FIB.Lookup(mustA("10.99.1.1")); ok && e.Net == mustP("10.99.0.0/16") {
		t.Fatal("old static route still installed after simulated reload")
	}
	if g := r.Generation(); g != 2 {
		t.Fatalf("generation = %d, want 2", g)
	}
}

const igpTimersConfig = `
interfaces { eth0 { address 10.0.0.1/24; } }
protocols {
    rip { update-interval 10; }
    ospf { router-id 10.0.0.1; hello-interval 10; dead-interval 40; cost 1; }
}
`

// TestReloadRetunesTimers covers the in-place RIP/OSPF apply hooks:
// timer changes commit without restarting either process.
func TestReloadRetunesTimers(t *testing.T) {
	netw := kernel.NewNetwork()
	r, err := NewRouter(igpTimersConfig, Options{Network: netw, LocalAddr: mustA("10.0.0.1")})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Stop()
	if err := r.Start(); err != nil {
		t.Fatal(err)
	}

	cand := strings.NewReplacer(
		"update-interval 10", "update-interval 5",
		"hello-interval 10", "hello-interval 2",
		"cost 1", "cost 7",
	).Replace(igpTimersConfig)
	if err := r.Reload(cand); err != nil {
		t.Fatalf("reload: %v", err)
	}
	var ripIv, helloIv time.Duration
	var cost uint16
	r.current("rip").loop.DispatchAndWait(func() { ripIv = r.RIP.Timers().UpdateInterval })
	r.current("ospf").loop.DispatchAndWait(func() {
		helloIv = r.OSPF.Timers().HelloInterval
		cost = r.OSPF.Timers().Cost
	})
	if ripIv != 5*time.Second {
		t.Fatalf("rip update-interval = %v, want 5s", ripIv)
	}
	if helloIv != 2*time.Second || cost != 7 {
		t.Fatalf("ospf hello = %v cost = %d, want 2s / 7", helloIv, cost)
	}
}

// TestReloadRemovePeer exercises the surgical peer teardown: removing
// one peer withdraws only its routes; the other peer's stay.
func TestReloadRemovePeer(t *testing.T) {
	r, err := NewRouter(baseConfig, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Stop()
	if err := r.Start(); err != nil {
		t.Fatal(err)
	}
	waitCond(t, "static routes in FIB", func() bool {
		_, ok := r.FIB.Lookup(mustA("10.0.1.1"))
		return ok
	})
	netP1, netP2 := mustP("20.1.0.0/16"), mustP("20.2.0.0/16")
	r.BGP.Loop().Dispatch(func() {
		r.BGP.InjectUpdate("p1", &bgp.UpdateMsg{
			Attrs: workload.TestAttrs(mustA("10.0.0.1"), 65002), NLRI: []netip.Prefix{netP1}})
		r.BGP.InjectUpdate("p2", &bgp.UpdateMsg{
			Attrs: workload.TestAttrs(mustA("10.0.0.2"), 65003), NLRI: []netip.Prefix{netP2}})
	})
	waitCond(t, "both BGP routes in FIB", func() bool {
		_, ok1 := r.FIB.Lookup(mustA("20.1.2.3"))
		_, ok2 := r.FIB.Lookup(mustA("20.2.2.3"))
		return ok1 && ok2
	})

	cand := strings.Replace(baseConfig, `        peer p2 {
            local-addr 192.168.1.1
            peer-addr 192.168.1.3
            as 65003
            passive
        }
`, "", 1)
	if err := r.Reload(cand); err != nil {
		t.Fatalf("reload: %v", err)
	}
	waitCond(t, "p2's route withdrawn", func() bool {
		e, ok := r.FIB.Lookup(mustA("20.2.2.3"))
		return !ok || e.Net != netP2
	})
	if e, ok := r.FIB.Lookup(mustA("20.1.2.3")); !ok || e.Net != netP1 {
		t.Fatal("p1's route lost when p2 was removed")
	}
	var gone bool
	r.BGP.Loop().DispatchAndWait(func() { _, ok := r.BGP.Peer("p2"); gone = !ok })
	if !gone {
		t.Fatal("peer p2 still present after reload")
	}
}

const policyConfig = `
interfaces { eth0 { address 192.168.1.1/24; } }
static {
    route 10.1.0.0/16 next-hop 192.168.1.254;
    route 10.2.0.0/16 next-hop 192.168.1.254;
}
policy redist-pol {
    term a {
        from net <= 10.1.0.0/16
        then accept
    }
    term rest { then reject }
}
protocols {
    bgp {
        local-as 65001
        id 192.168.1.1
        peer p1 { local-addr 192.168.1.1; peer-addr 192.168.1.2; as 65002; passive; }
        redistribute static redist-pol
    }
}
`

// TestReloadPolicySwap covers the re-policy apply hook: editing a
// policy body re-filters an existing redistribution in place.
func TestReloadPolicySwap(t *testing.T) {
	r, err := NewRouter(policyConfig, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Stop()
	if err := r.Start(); err != nil {
		t.Fatal(err)
	}
	// The redist mirrors only 10.1/16 initially.
	waitCond(t, "filtered redistribution primed", func() bool {
		var n int
		r.RIB.Loop().DispatchAndWait(func() { n = r.RIB.RedistMirrored("to-bgp-static") })
		return n == 1
	})

	cand := strings.Replace(policyConfig, "from net <= 10.1.0.0/16", "from net <= 10.2.0.0/16", 1)
	if err := r.Reload(cand); err != nil {
		t.Fatalf("reload: %v", err)
	}
	waitCond(t, "filter swapped in place", func() bool {
		var n int
		var has102 bool
		r.RIB.Loop().DispatchAndWait(func() {
			n = r.RIB.RedistMirrored("to-bgp-static")
			has102 = r.RIB.RedistHas("to-bgp-static", mustP("10.2.0.0/16"))
		})
		return n == 1 && has102
	})
}

// A redistribution policy flipped back and forth by reload, in the manner
// of rib's TestSetRedistFilterReplay, through the assembly: each flip
// reaches RIP as redist4/0.1 XRLs — a route whose metric changes as a
// delete then an add — and after each reload RIP's own table must equal
// the RIB's mirror. A delete overtaking its add would leave RIP short.
func TestReloadRedistFlipReachesRIP(t *testing.T) {
	const cfg = `
static {
    route 10.0.0.0/16 metric 1;
    route 10.1.0.0/16 metric 2;
    route 10.2.0.0/16 metric 3;
    route 10.3.0.0/16 metric 4;
}
policy flip { term all { then set metric 9; then accept } }
protocols { rip { redistribute static flip; } }
`
	const low = `policy flip { term low { from metric < 3; then accept } term rest { then reject } }`
	r, err := NewRouter(cfg, Options{Clock: eventloop.NewSimClock(time.Unix(0, 0)), SharedLoop: true,
		Network: kernel.NewNetwork(), LocalAddr: mustA("192.168.1.1")})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Start(); err != nil {
		t.Fatal(err)
	}
	r.SettleAll()
	flipped := strings.Replace(cfg, "policy flip { term all { then set metric 9; then accept } }", low, 1)
	for i, text := range []string{cfg, flipped, cfg, flipped, cfg} {
		if i > 0 {
			if err := r.Reload(text); err != nil {
				t.Fatalf("reload %d: %v", i, err)
			}
			r.SettleAll()
		}
		for m := uint32(1); m <= 4; m++ {
			net := netip.PrefixFrom(netip.AddrFrom4([4]byte{10, byte(m - 1), 0, 0}), 16)
			mirrored := r.RIB.RedistHas("to-rip-static", net)
			want := uint32(9)
			if text == flipped {
				want = m
			}
			got, held := r.RIP.Lookup(net)
			if held != mirrored || held && got != want {
				t.Fatalf("after reload %d: RIP holds %v at metric %d %v, the RIB mirrors it %v (metric %d)",
					i, net, got, held, mirrored, want)
			}
			if mirrored != (text == cfg || m < 3) {
				t.Fatalf("after reload %d: the RIB mirrors %v %v", i, net, mirrored)
			}
		}
	}
}

// The planner hands each statement to the process that holds its state:
// a redistribute statement, and an edit of the policy it names, to the RIB
// alone; an export policy's edit to its class; an interface to the FEA,
// as a connected route to the RIB, and as a stub prefix to OSPF.
func TestCompilePlanRoutesToOwner(t *testing.T) {
	const from = `
interfaces { eth0 { address 192.168.1.1/24; } }
policy rp { term a { then accept } }
policy ep { term a { then accept } }
protocols {
    bgp { local-as 65001; id 192.168.1.1; redistribute static rp; }
    rip { }
    ospf { export ep; }
}
`
	for _, tc := range []struct {
		name, old, new string
		want           map[string]string // participant: its changes
	}{
		{"redistribute added", "rip { }", "rip { redistribute connected; }",
			map[string]string{"rib": "add protocols / rip / redistribute connected"}},
		{"redistribute removed", " redistribute static rp;", "",
			map[string]string{"rib": "remove protocols / bgp / redistribute static rp"}},
		{"redistribute policy edited", "policy rp { term a { then accept } }", "policy rp { term a { then reject } }",
			map[string]string{"rib": "modify protocols / bgp / redistribute static rp"}},
		{"export policy edited", "policy ep { term a { then accept } }", "policy ep { term a { then reject } }",
			map[string]string{"ospf": "modify protocols / ospf / export"}},
		{"interface added", "eth0 {", "eth1 { address 10.50.0.1/24; }\n    eth0 {",
			map[string]string{"fea": "add interfaces / eth1", "rib": "add interfaces / eth1", "ospf": "add interfaces / eth1"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			running, err := ParseConfig(from)
			if err != nil {
				t.Fatal(err)
			}
			candidate, err := ParseConfig(strings.Replace(from, tc.old, tc.new, 1))
			if err != nil {
				t.Fatal(err)
			}
			plan, err := compilePlan(modules, DiffConfig(running, candidate), running, candidate)
			if err != nil {
				t.Fatal(err)
			}
			got := make(map[string]string)
			for class, cs := range plan {
				var s []string
				for _, c := range cs {
					s = append(s, string(c.Verb)+" "+c.PathString())
				}
				got[class] = strings.Join(s, ", ")
			}
			if fmt.Sprint(got) != fmt.Sprint(tc.want) {
				t.Fatalf("plan %v, want %v", got, tc.want)
			}
		})
	}
}

// The RIB's slice of a boot plan follows the config's order, and the
// order must not matter: static routes written before the interfaces
// their next hops sit on boot to the state the usual order does.
func TestBootStaticBeforeInterfaces(t *testing.T) {
	i, j := strings.Index(bootBase, "static {"), strings.Index(bootBase, "protocols {")
	reordered := bootBase[i:j] + bootBase[:i] + bootBase[j:]
	usual, early := simRouter(t, bootBase), simRouter(t, reordered)
	strip := func(r *Router) string { return strings.TrimPrefix(bootState(r), Render(r.Config, 0)) }
	if want, got := strip(usual), strip(early); got != want {
		t.Errorf("static first boots to\n%s\nthe usual order to\n%s", got, want)
	}
}

// A dead process's redistribution is the RIB's config, so a reload
// changes it while the process is down. With RIP killed and unsupervised,
// a re-filtered `redistribute static flip`, its removal and its return
// all commit: the quiet stage takes the new filter and mirrors nothing,
// the removal unsplices it, and the return splices a fresh one, primed at
// once as any new stage is. A supervisor then told of the death respawns
// RIP holding exactly what the last committed config redistributes.
func TestReloadRedistOfDeadProcess(t *testing.T) {
	const cfg = `
static {
    route 10.0.0.0/16 metric 1;
    route 10.1.0.0/16 metric 2;
    route 10.2.0.0/16 metric 3;
}
policy flip { term all { then set metric 9; then accept } }
protocols { rip { redistribute static flip; } }
`
	flipped := strings.Replace(cfg, "term all { then set metric 9; then accept }",
		"term low { from metric < 3; then accept } term rest { then reject }", 1)
	removed := strings.Replace(flipped, " redistribute static flip; ", " ", 1)
	r, err := NewRouter(cfg, Options{Clock: eventloop.NewSimClock(time.Unix(0, 0)), SharedLoop: true,
		Network: kernel.NewNetwork(), LocalAddr: mustA("192.168.1.1")})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Start(); err != nil {
		t.Fatal(err)
	}
	r.SettleAll()
	if n := r.RIB.RedistMirrored("to-rip-static"); n != 3 {
		t.Fatalf("the RIB mirrors %d statics to RIP, want 3", n)
	}
	if err := r.KillProcess("rip"); err != nil {
		t.Fatal(err)
	}
	r.SettleAll()
	for i, step := range []struct {
		text     string
		mirrored int
	}{{flipped, 0}, {removed, 0}, {flipped, 2}} {
		if err := r.Reload(step.text); err != nil {
			t.Fatalf("reload %d with RIP dead: %v", i, err)
		}
		r.SettleAll()
		if n := r.RIB.RedistMirrored("to-rip-static"); n != step.mirrored {
			t.Fatalf("after reload %d the RIB mirrors %d statics to the dead RIP, want %d", i, n, step.mirrored)
		}
	}

	sup, err := r.EnableSupervision(fastSup())
	if err != nil {
		t.Fatal(err)
	}
	r.Loops()[0].Dispatch(func() { sup.noteDeath("rip") })
	r.Loops()[0].RunFor(time.Second) // the respawn backoff
	r.SettleAll()
	rip := r.CurrentRIP()
	if rip == nil {
		t.Fatal("RIP not respawned")
	}
	for m := uint32(1); m <= 3; m++ {
		net := netip.PrefixFrom(netip.AddrFrom4([4]byte{10, byte(m - 1), 0, 0}), 16)
		got, held := rip.Lookup(net)
		if held != (m < 3) || held && got != m {
			t.Errorf("the respawned RIP holds %v at metric %d %v, want it only below metric 3", net, got, held)
		}
	}
	if n := r.RIB.RedistMirrored("to-rip-static"); n != 2 {
		t.Fatalf("the RIB mirrors %d statics to the respawned RIP, want 2", n)
	}
}

// An agent judges a transaction's generation by its own record: a
// validate_tx built against a generation older than the last it committed
// is nacked as stale, while the current generation is acked, and so is
// the rollback of a commit, which carries that commit's generation.
func TestAgentRefusesStaleGeneration(t *testing.T) {
	running, _ := ParseConfig("static { }")
	candidate, _ := ParseConfig("static { route 10.9.0.0/16 next-hop 192.168.1.1; }")
	changes := EncodeChanges(DiffConfig(running, candidate))
	applied := 0
	a := &txAgent{class: "rib", stage: func(Change) ([]txStep, string, error) {
		return []txStep{{desc: "count", apply: func() error { applied++; return nil }}}, "", nil
	}}
	validate := func(txID, gen uint32) (bool, string) {
		t.Helper()
		ok, reason, err := a.ValidateTx(txID, gen, changes)
		if err != nil {
			t.Fatal(err)
		}
		return ok, reason
	}
	if ok, reason := validate(1, 4); !ok {
		t.Fatalf("first transaction nacked: %s", reason)
	}
	if _, err := a.CommitTx(1); err != nil || applied != 1 {
		t.Fatalf("commit: %v, %d steps applied", err, applied)
	}
	if ok, reason := validate(2, 3); ok || !strings.Contains(reason, "stale generation 3") {
		t.Fatalf("generation 3 after a commit at 4: ok=%v %q", ok, reason)
	}
	if ok, reason := validate(3, 4); !ok {
		t.Fatalf("rollback at the committed generation nacked: %s", reason)
	}
	if _, err := a.CommitTx(3); err != nil || applied != 2 {
		t.Fatalf("rollback commit: %v, %d steps applied", err, applied)
	}
	if ok, reason := validate(4, 5); !ok {
		t.Fatalf("current generation nacked: %s", reason)
	}
}

// Transaction 0 is the agent's "none": no call stages or commits it. Once
// a staged transaction is aborted, a commit_tx of 0 applies nothing and
// leaves the committed generation where it was, so the aborted
// transaction's generation cannot make the current one stale.
func TestAgentRefusesTransactionZero(t *testing.T) {
	running, _ := ParseConfig("static { }")
	candidate, _ := ParseConfig("static { route 10.9.0.0/16 next-hop 192.168.1.1; }")
	changes := EncodeChanges(DiffConfig(running, candidate))
	applied := 0
	a := &txAgent{class: "rib", stage: func(Change) ([]txStep, string, error) {
		return []txStep{{desc: "count", apply: func() error { applied++; return nil }}}, "", nil
	}}
	if ok, reason, err := a.ValidateTx(0, 1, changes); ok || err != nil {
		t.Fatalf("validate_tx of transaction 0: ok=%v %q %v, want a nack", ok, reason, err)
	}
	if ok, reason, err := a.ValidateTx(7, 5, changes); !ok || err != nil {
		t.Fatalf("validate_tx 7: ok=%v %q %v", ok, reason, err)
	}
	if err := a.AbortTx(7); err != nil {
		t.Fatal(err)
	}
	if n, err := a.CommitTx(0); err == nil {
		t.Fatalf("commit_tx of transaction 0 after an abort: %d applied, no error", n)
	}
	if applied != 0 || a.committed != 0 {
		t.Fatalf("%d steps applied, committed generation %d, want none and 0", applied, a.committed)
	}
	if ok, reason, _ := a.ValidateTx(8, 1, changes); !ok {
		t.Fatalf("generation 1 after the abort nacked: %s", reason)
	}
}

// config/0.1 is open to any caller, so an agent refuses a change its
// class does not stage instead of handing it to a stage that indexes the
// path: an interface reaches OSPF's stage (a section of its row) and is
// nacked by BGP's agent.
func TestAgentRefusesChangesOutsideItsClass(t *testing.T) {
	r := simRouter(t, bootBase)
	candidate, _ := ParseConfig(strings.Replace(bootBase, "# interfaces+", "eth1 { address 10.50.0.1/24; }", 1))
	add := DiffConfig(r.Config, candidate)
	for class, want := range map[string]string{"bgp": "unsupported bgp change", "ospf": ""} {
		ok, reason, err := r.sendValidate(class, 99, r.Generation(), add)
		if err != nil || ok != (want == "") || !strings.Contains(reason, want) {
			t.Errorf("%s: ok=%v %q %v, want %q", class, ok, reason, err, want)
		}
		r.abortAll(99, []string{class})
	}
}
