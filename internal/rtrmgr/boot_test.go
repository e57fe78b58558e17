package rtrmgr

import (
	"fmt"
	"sort"
	"strings"
	"testing"
	"time"

	"xorp/internal/eventloop"
	"xorp/internal/kernel"
)

// bootBase holds a little of everything a reload can apply. Each case of
// TestBootMatchesReload edits it into the config B it boots and reloads;
// the comments are the places an edit inserts lines.
const bootBase = `
interfaces {
    eth0 { address 192.168.1.1/24; }
    # interfaces+
}
static {
    route 10.0.0.0/8 next-hop 192.168.1.254;
    # static+
}
protocols {
    bgp {
        local-as 65001
        id 192.168.1.1
        peer p1 { local-addr 192.168.1.1; peer-addr 192.168.1.2; as 65002; passive; }
        # bgp+
    }
    rip { }
    ospf { }
}
# policy+
`

// simRouter boots cfg on a simulated clock and one shared loop, with a
// fabric of its own for the IGPs, and starts it.
func simRouter(t *testing.T, cfg string) *Router {
	t.Helper()
	r, err := NewRouter(cfg, simOptions())
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Start(); err != nil {
		t.Fatal(err)
	}
	r.SettleAll()
	t.Cleanup(r.Stop)
	return r
}

func simOptions() Options {
	return Options{Clock: eventloop.NewSimClock(time.Unix(0, 0)), SharedLoop: true,
		Network: kernel.NewNetwork(), LocalAddr: mustA("10.0.0.1")}
}

// bootState renders what boot and reload must agree on: the running
// config, the FIB, the IGP timers, OSPF's self-originated stub prefixes,
// each configured BGP peer (its handle and session state; bgp exports no
// PeerConfig) and group, and what each redistribution of statics mirrors.
func bootState(r *Router) string {
	var sb strings.Builder
	sb.WriteString(Render(r.Config, 0))
	var fib []string
	r.FIB.Walk(func(e kernel.FIBEntry) bool {
		fib = append(fib, fmt.Sprintf("fib %v via %v dev %s\n", e.Net, e.NextHop, e.IfName))
		return true
	})
	sort.Strings(fib)
	sb.WriteString(strings.Join(fib, ""))
	fmt.Fprintf(&sb, "rip %+v\nospf %+v\n", r.RIP.Timers(), r.OSPF.Timers())
	self, _ := r.OSPF.DB().Get(r.OSPF.RouterID())
	fmt.Fprintf(&sb, "ospf stubs %v\n", self.Prefixes)
	bgpCfg := r.classConfig("bgp")
	for _, pn := range bgpCfg.ChildrenNamed("peer") {
		if p, ok := r.BGP.Peer(pn.Arg(0)); ok {
			fmt.Fprintf(&sb, "peer %+v %v\n", *p.Handle(), p.State())
		} else {
			fmt.Fprintf(&sb, "peer %s missing\n", pn.Arg(0))
		}
	}
	for _, g := range bgpCfg.ChildrenNamed("peer-group") {
		if out := r.BGP.Group(g.Arg(0)); out != nil {
			fmt.Fprintf(&sb, "group %s members %d\n", g.Arg(0), out.Members())
		}
	}
	for _, class := range []string{"bgp", "rip", "ospf"} {
		name := redistName(class, "static")
		fmt.Fprintf(&sb, "%s mirrors %d\n", name, r.RIB.RedistMirrored(name))
	}
	return sb.String()
}

// TestBootMatchesReload: boot is a reload from the empty tree, so for two
// configs A and B that differ only in units a reload applies, NewRouter(B)
// and NewRouter(A) + Reload(B) end in the same state.
func TestBootMatchesReload(t *testing.T) {
	for _, tc := range []struct {
		name  string
		edits []string // old, new pairs turning bootBase into B
	}{
		{"rip timers", []string{"rip { }", "rip { timeout 7; gc-time 3; triggered-delay 2; }"}},
		{"peer group and member", []string{"# bgp+",
			"peer-group g { local-addr 192.168.1.1; as 65004; holdtime 30; }\n" +
				"peer p3 { peer-addr 192.168.1.4; group g; passive; }"}},
		{"ospf export policy", []string{"ospf { }", "ospf { export tag-ospf; }",
			"# policy+", "policy tag-ospf { term all { then set tag add 42 } }"}},
		{"ospf hello alone", []string{"ospf { }", "ospf { hello-interval 2; }"}},
		{"filtered redistribution", []string{"# bgp+", "redistribute static redist-pol",
			"# static+", "route 10.1.0.0/16 next-hop 192.168.1.254; route 10.2.0.0/16 next-hop 192.168.1.254;",
			"# policy+", "policy redist-pol { term a { from net <= 10.1.0.0/16; then accept } term rest { then reject } }"}},
		{"static route", []string{"# static+", "route 10.77.0.0/16 next-hop 192.168.1.253;"}},
		{"interface", []string{"# interfaces+", "eth1 { address 10.50.0.1/24; }"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			b := strings.NewReplacer(tc.edits...).Replace(bootBase)
			booted := simRouter(t, b)
			reloaded := simRouter(t, bootBase)
			if err := reloaded.Reload(b); err != nil {
				t.Fatalf("reload: %v", err)
			}
			reloaded.SettleAll()
			if want, got := bootState(booted), bootState(reloaded); got != want {
				t.Errorf("boot and reload disagree\nNewRouter(B):\n%s\nNewRouter(A) + Reload(B):\n%s", want, got)
			}
		})
	}
}

// TestReloadRefusals pins what a reload refuses, naming the unit: a change
// to a unit a class's constructor reads (module.identity), a duration or
// cost the process would ignore, and a section or class the planner does
// not know. The generation and the running config stay as they were.
// Boot goes through the same planner and stages, so the candidate of
// every case but the identity ones fails NewRouter too.
func TestReloadRefusals(t *testing.T) {
	noRouterID := strings.Replace(igpTimersConfig, "router-id 10.0.0.1; ", "", 1)
	for _, tc := range []struct {
		name, from, old, new, want string
		bootFails                  bool
	}{
		{"local-as", baseConfig, "local-as 65001", "local-as 65009", "protocols / bgp / local-as: changing local-as requires a restart", false},
		{"id", baseConfig, "id 192.168.1.1", "id 192.168.1.9", "protocols / bgp / id: changing id requires a restart", false},
		{"damping added", baseConfig, "local-as 65001", "local-as 65001\n        damping", "protocols / bgp / damping: changing damping requires a restart", false},
		{"router-id added", noRouterID, "ospf {", "ospf { router-id 10.0.0.1;", "protocols / ospf / router-id: changing router-id requires a restart", false},
		{"router-id changed", igpTimersConfig, "router-id 10.0.0.1", "router-id 10.0.0.9", "changing router-id requires a restart", false},
		{"update-interval 0", igpTimersConfig, "update-interval 10", "update-interval 0", `protocols / rip / update-interval: bad duration "0"`, true},
		{"hello-interval -3", igpTimersConfig, "hello-interval 10", "hello-interval -3", `protocols / ospf / hello-interval: bad duration "-3"`, true},
		{"cost 0", igpTimersConfig, "cost 1", "cost 0", `protocols / ospf / cost: bad cost "0"`, true},
		{"unknown section", baseConfig, "protocols {", "bogus { }\nprotocols {", `unsupported config section "bogus"`, true},
		{"unknown class", baseConfig, "protocols {", "protocols {\n    bgpp { local-as 65001; }", `unsupported protocol "bgpp"`, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			to := strings.Replace(tc.from, tc.old, tc.new, 1)
			r := simRouter(t, tc.from)
			before := Render(r.Config, 0)
			if err := r.Reload(to); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("reload: %v, want an error naming %q", err, tc.want)
			}
			if g, after := r.Generation(), Render(r.Config, 0); g != 1 || after != before {
				t.Fatalf("refused reload left generation %d and config\n%s", g, after)
			}
			booted, err := NewRouter(to, simOptions())
			if err == nil {
				booted.Stop()
			}
			if (err != nil) != tc.bootFails || err != nil && !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("NewRouter: %v, want failure %v naming %q", err, tc.bootFails, tc.want)
			}
		})
	}
}
