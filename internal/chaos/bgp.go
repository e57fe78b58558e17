package chaos

import (
	"fmt"
	"net/netip"
	"strings"
	"time"

	"xorp/internal/bgp"
	"xorp/internal/route"
	"xorp/internal/rtrmgr"
	"xorp/internal/workload"
	"xorp/internal/xif"
	"xorp/internal/xrl"
)

// BGPResult is the BGP kill/respawn acceptance verdict: the generic
// scenario measurements plus the graceful-restart criteria the paper's
// survivability story demands.
type BGPResult struct {
	Result

	// Routes is how many prefixes were installed before the kill.
	Routes int
	// LossSamples counts FIB polls during the outage window that were
	// missing any pre-kill route. Graceful restart requires zero: the
	// forwarding plane never blinks while the BGP process is down.
	LossSamples int
	// Stale is how many routes the RIB marked stale at the death.
	Stale int
	// Swept is what resync_complete swept after the respawned process
	// re-announced; zero means every route un-staled in place.
	Swept int
	// TablesIdentical: the restarted router's FIB and RIB are
	// byte-identical to a control router that never crashed.
	TablesIdentical bool
	// Diff holds the first table difference when they are not.
	Diff string
}

// bgpChaosConfig is the assembly under test: statics to resolve the
// BGP next hops, and two passive EBGP peers that inject the load.
const bgpChaosConfig = `
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

const bgpRoutes = 40 // total prefixes; half installed before the kill

// RunBGPKillRespawn is the survivability acceptance scenario on the
// full rtrmgr assembly, in real time:
//
//  1. Two identical routers come up; one is supervised (the chaos
//     router), the other is the never-crashed control.
//  2. Both learn the same first half of the table from their peers.
//  3. The chaos router's BGP process is killed. While it is down, the
//     FIB is sampled continuously — every pre-kill route must keep
//     forwarding (stale, not deleted) — and the second half of the
//     table keeps arriving at the control (the "load").
//  4. The supervisor respawns BGP; the peers replay the full table
//     (as real peers do when the session re-establishes), the restart
//     ends with rib/1.0 resync_complete, and nothing should be swept.
//  5. The chaos router's RIB and FIB must be byte-identical to the
//     control's.
func RunBGPKillRespawn() (BGPResult, error) {
	res := BGPResult{Result: Result{
		Topology: "rtrmgr",
		Protocol: "bgp",
		Failure:  ProcessKill,
		Nodes:    1,
	}}

	mk := func() (*rtrmgr.Router, error) {
		r, err := rtrmgr.NewRouter(bgpChaosConfig, rtrmgr.Options{})
		if err != nil {
			return nil, err
		}
		if err := r.Start(); err != nil {
			r.Stop()
			return nil, err
		}
		return r, nil
	}
	chaosR, err := mk()
	if err != nil {
		return res, err
	}
	defer chaosR.Stop()
	control, err := mk()
	if err != nil {
		return res, err
	}
	defer control.Stop()
	if _, err := chaosR.EnableSupervision(rtrmgr.SupervisorConfig{
		InitialBackoff: 10 * time.Millisecond,
		MaxBackoff:     50 * time.Millisecond,
	}); err != nil {
		return res, err
	}

	prefixes := make([]netip.Prefix, bgpRoutes)
	for i := range prefixes {
		prefixes[i] = netip.MustParsePrefix(fmt.Sprintf("20.%d.0.0/16", i+1))
	}
	pre, post := prefixes[:bgpRoutes/2], prefixes[bgpRoutes/2:]
	res.Routes = len(pre)

	start := time.Now()
	inject(chaosR, pre)
	inject(control, pre)
	if err := waitFor(10*time.Second, func() bool {
		return fibHasAll(chaosR, pre) && fibHasAll(control, pre)
	}); err != nil {
		return res, fmt.Errorf("initial convergence: %w", err)
	}
	res.Initial = time.Since(start)
	res.Converged = true

	// Crash BGP; the rest of the table arrives at the control while
	// the chaos router's process is down.
	old := chaosR.CurrentBGP()
	killed := time.Now()
	if err := chaosR.KillProcess("bgp"); err != nil {
		return res, err
	}
	inject(control, post)

	// Outage window: poll the FIB until the supervisor has respawned
	// the process. Any missing pre-kill route is forwarding loss.
	for {
		if !fibHasAll(chaosR, pre) {
			res.LossSamples++
		}
		if p := chaosR.CurrentBGP(); p != nil && p != old {
			break
		}
		if time.Since(killed) > 10*time.Second {
			return res, fmt.Errorf("BGP not respawned within 10s")
		}
		time.Sleep(time.Millisecond)
	}
	res.Stale = staleBGP(chaosR)

	// Session re-established: the peers replay the full table.
	inject(chaosR, prefixes)
	if err := waitFor(10*time.Second, func() bool {
		return fibHasAll(chaosR, prefixes) && fibHasAll(control, prefixes)
	}); err != nil {
		return res, fmt.Errorf("reconvergence: %w", err)
	}

	// End of resync, over the wire: rib/1.0 resync_complete sweeps
	// whatever the replay did not refresh.
	for _, proto := range []route.Protocol{route.ProtoEBGP, route.ProtoIBGP} {
		swept, err := resyncComplete(chaosR, proto)
		if err != nil {
			return res, err
		}
		res.Swept += swept
	}
	res.Recovery = time.Since(killed)
	res.Recovered = true
	res.Blackhole = time.Duration(res.LossSamples) * time.Millisecond

	chaosTables := dumpTables(chaosR, prefixes)
	controlTables := dumpTables(control, prefixes)
	res.TablesIdentical = chaosTables == controlTables
	if !res.TablesIdentical {
		res.Diff = firstDiff(chaosTables, controlTables)
		res.Note = "tables differ from control"
	}
	return res, nil
}

// inject feeds prefixes to a router's BGP process through its passive
// peers, alternating peers like two upstreams splitting the table.
func inject(r *rtrmgr.Router, prefixes []netip.Prefix) {
	p := r.CurrentBGP()
	if p == nil {
		return
	}
	for i, pfx := range prefixes {
		peer, as := "p1", uint16(65002)
		if i%2 == 1 {
			peer, as = "p2", 65003
		}
		u := &bgp.UpdateMsg{
			Attrs: workload.TestAttrs(netip.MustParseAddr("10.0.0.1"), as),
			NLRI:  []netip.Prefix{pfx},
		}
		p.Loop().Dispatch(func() { p.InjectUpdate(peer, u) })
	}
}

// fibHasAll reports whether r's published forwarding table — what a
// packet would see — holds every prefix.
func fibHasAll(r *rtrmgr.Router, prefixes []netip.Prefix) bool {
	snap := r.FEA.Snapshots().Current()
	for _, pfx := range prefixes {
		if _, ok := snap.Get(pfx); !ok {
			return false
		}
	}
	return true
}

func staleBGP(r *rtrmgr.Router) int {
	var n int
	r.RIB.Loop().DispatchAndWait(func() {
		n = r.RIB.StaleCount(route.ProtoEBGP) + r.RIB.StaleCount(route.ProtoIBGP)
	})
	return n
}

// resyncComplete sends the graceful-restart end-of-resync signal the
// way a restarted protocol would: as a rib/1.0 XRL.
func resyncComplete(r *rtrmgr.Router, proto route.Protocol) (int, error) {
	rc := xif.NewRIBClient(r.FEARouter, "rib")
	type reply struct {
		swept uint32
		err   *xrl.Error
	}
	done := make(chan reply, 1)
	r.FEA.Loop().Dispatch(func() {
		rc.ResyncComplete4(proto.String(), func(swept uint32, err *xrl.Error) {
			done <- reply{swept, err}
		})
	})
	select {
	case rep := <-done:
		if rep.err != nil {
			return 0, fmt.Errorf("resync_complete(%v): %v", proto, rep.err)
		}
		return int(rep.swept), nil
	case <-time.After(5 * time.Second):
		return 0, fmt.Errorf("resync_complete(%v): timeout", proto)
	}
}

// dumpTables renders a router's published forwarding table (every entry,
// in prefix order) and RIB (best route per injected prefix)
// deterministically, for byte comparison.
func dumpTables(r *rtrmgr.Router, prefixes []netip.Prefix) string {
	var lines []string
	r.FEA.Snapshots().Current().Walk(func(e route.Entry) bool {
		lines = append(lines, fmt.Sprintf("fib %v via %v dev %s", e.Net, e.NextHop, e.IfName))
		return true
	})
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
	return strings.Join(append(lines, ribLines...), "\n")
}

func firstDiff(a, b string) string {
	al, bl := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := 0; i < len(al) || i < len(bl); i++ {
		var av, bv string
		if i < len(al) {
			av = al[i]
		}
		if i < len(bl) {
			bv = bl[i]
		}
		if av != bv {
			return fmt.Sprintf("chaos %q != control %q", av, bv)
		}
	}
	return ""
}

func waitFor(limit time.Duration, cond func() bool) error {
	deadline := time.Now().Add(limit)
	for time.Now().Before(deadline) {
		if cond() {
			return nil
		}
		time.Sleep(2 * time.Millisecond)
	}
	return fmt.Errorf("condition not reached within %v", limit)
}
