package chaos

import (
	"strings"
	"testing"
	"time"
)

// The headline survivability acceptance: kill and respawn BGP under
// load. Zero forwarding loss during the grace window, nothing swept at
// resync_complete, and the restarted router's tables byte-identical to
// a control router that never crashed.
func TestBGPKillRespawnAcceptance(t *testing.T) {
	res, err := RunBGPKillRespawn()
	if err != nil {
		t.Fatal(err)
	}
	if res.LossSamples != 0 {
		t.Errorf("forwarding loss during grace window: %d samples missing pre-kill routes", res.LossSamples)
	}
	if res.Stale != res.Routes {
		t.Errorf("stale at death = %d, want %d (every pre-kill BGP route retained as stale)", res.Stale, res.Routes)
	}
	if res.Swept != 0 {
		t.Errorf("resync_complete swept %d routes; the replay should have un-staled all", res.Swept)
	}
	if !res.Recovered {
		t.Error("router did not reconverge after respawn")
	}
	if !res.TablesIdentical {
		t.Errorf("tables differ from never-killed control: %s", res.Diff)
	}
}

// The full simulated matrix: every topology × failure × IGP cell must
// converge, survive its failure, and reconverge. Deterministic: the
// whole grid runs on the simulated clock.
func TestDefaultMatrix(t *testing.T) {
	results := RunMatrix(DefaultMatrix())
	t.Logf("\n%s", FormatTable(results))
	for _, r := range results {
		if r.Note != "" && strings.HasPrefix(r.Note, "skipped") {
			continue
		}
		if !r.Converged {
			t.Errorf("%s/%s/%s: never converged (%s)", r.Topology, r.Protocol, r.Failure, r.Note)
			continue
		}
		if !r.Recovered {
			t.Errorf("%s/%s/%s: did not reconverge after failure", r.Topology, r.Protocol, r.Failure)
		}
	}
}

// The graceful-restart contrast: a supervised process crash is invisible
// to the data plane (retained forwarding state, respawn inside every
// protocol timer), while an equivalent link loss blackholes traffic for
// the protocol's detection time — 180 s route timeout for RIP, 40 s dead
// interval for OSPF. On the ring there is no backup origin to fail over
// to: the respawned origin's neighbours must re-form their adjacencies
// with it at once.
func TestProcessKillIsHitless(t *testing.T) {
	for _, c := range []struct {
		topo  *Topology
		proto string
	}{{LAN3(), "rip"}, {LAN3(), "ospf"}, {Ring(6), "ospf"}} {
		name := c.topo.Name + "/" + c.proto
		kill := Run(Spec{Topology: c.topo, Protocol: c.proto, Failure: ProcessKill})
		if !kill.Converged || !kill.Recovered {
			t.Fatalf("%s process-kill: %+v", name, kill)
		}
		if kill.Blackhole != 0 {
			t.Errorf("%s process-kill blackholed for %v; graceful restart should be hitless", name, kill.Blackhole)
		}

		loss := Run(Spec{Topology: c.topo, Protocol: c.proto, Failure: LinkLoss})
		if !loss.Converged || !loss.Recovered {
			t.Fatalf("%s link-loss: %+v", name, loss)
		}
		if loss.Blackhole == 0 {
			t.Errorf("%s link-loss reported no blackhole; cutting the active link must hurt", name)
		}
	}
}

// RIP waits out its 180 s route timeout before believing the backup
// origin; OSPF detects the dead adjacency at its 40 s dead interval.
// The chaos harness must reproduce the convergence example's numbers.
func TestIGPFailoverTimes(t *testing.T) {
	rip := Run(Spec{Topology: LAN3(), Protocol: "rip", Failure: LinkLoss})
	if !rip.Recovered {
		t.Fatalf("rip: %+v", rip)
	}
	if rip.Recovery < 150*time.Second || rip.Recovery > 250*time.Second {
		t.Errorf("rip failover took %v, want ~180s (route timeout)", rip.Recovery)
	}
	ospf := Run(Spec{Topology: LAN3(), Protocol: "ospf", Failure: LinkLoss})
	if !ospf.Recovered {
		t.Fatalf("ospf: %+v", ospf)
	}
	if ospf.Recovery < 20*time.Second || ospf.Recovery > 60*time.Second {
		t.Errorf("ospf failover took %v, want ~40s (dead interval)", ospf.Recovery)
	}
	if ospf.Recovery >= rip.Recovery {
		t.Errorf("ospf (%v) should beat rip (%v)", ospf.Recovery, rip.Recovery)
	}
}

// RIP on a multi-hop topology is meaningless under this model's
// broadcast-domain split horizon; the matrix must say so rather than
// report a bogus non-convergence.
func TestRIPMultiHopSkipped(t *testing.T) {
	r := Run(Spec{Topology: Ring(6), Protocol: "rip", Failure: LinkLoss})
	if !strings.HasPrefix(r.Note, "skipped") {
		t.Fatalf("rip/ring should be skipped, got %+v", r)
	}
}

// The reload-under-churn acceptance: a 100-peer config diff commits
// on a router carrying a full table and live update churn, with zero
// FIB installs and zero loss samples for the prefixes the diff does
// not touch — the transactional apply is invisible to unaffected
// routes.
func TestReloadUnderChurnAcceptance(t *testing.T) {
	res, err := RunReloadUnderChurn()
	if err != nil {
		t.Fatal(err)
	}
	if res.PeersAdded != reloadPeers {
		t.Errorf("peers added = %d, want %d", res.PeersAdded, reloadPeers)
	}
	if res.Generation != 2 {
		t.Errorf("generation = %d after reload, want 2", res.Generation)
	}
	if res.StableOps != 0 {
		t.Errorf("reload caused %d FIB installs on stable prefixes; in-place apply requires 0", res.StableOps)
	}
	if res.LossSamples != 0 {
		t.Errorf("reload blackholed stable prefixes for %d samples", res.LossSamples)
	}
	if res.ChurnDelivered == 0 {
		t.Error("no churn delivered during the transaction; the scenario did not test under load")
	}
	t.Logf("reload committed in %v under %d churn updates", res.Recovery, res.ChurnDelivered)
}

// Fat-tree cells: the redundant fabric must converge and survive an
// uplink loss, and the per-node percentiles must expose the redundancy
// — most nodes never see the cut (p50 zero), the corner behind the
// dead uplink pays the detection time (p99 positive for the observer's
// side of the fabric). k=8 (80 routers) only runs in long mode.
func TestFatTreeMatrix(t *testing.T) {
	specs := []Spec{
		{Topology: FatTree(4), Protocol: "ospf", Failure: LinkLoss},
		{Topology: FatTree(4), Protocol: "ospf", Failure: ProcessKill},
	}
	if !testing.Short() {
		specs = append(specs, Spec{Topology: FatTree(8), Protocol: "ospf", Failure: LinkLoss})
	}
	results := RunMatrix(specs)
	t.Logf("\n%s", FormatTable(results))
	for _, r := range results {
		if !r.Converged {
			t.Errorf("%s/%s/%s: never converged (%s)", r.Topology, r.Protocol, r.Failure, r.Note)
			continue
		}
		if !r.Recovered {
			t.Errorf("%s/%s/%s: did not reconverge", r.Topology, r.Protocol, r.Failure)
		}
		if r.BlackP50 > r.BlackP95 || r.BlackP95 > r.BlackP99 {
			t.Errorf("%s/%s: percentiles not monotonic: p50=%v p95=%v p99=%v",
				r.Topology, r.Failure, r.BlackP50, r.BlackP95, r.BlackP99)
		}
		if r.Failure == LinkLoss {
			if r.BlackP50 != 0 {
				t.Errorf("%s link-loss: p50 node blackholed %v; only the observer routes over the cut uplink",
					r.Topology, r.BlackP50)
			}
			if r.Blackhole == 0 {
				t.Errorf("%s link-loss: observer reported no blackhole; cutting its active uplink must hurt",
					r.Topology)
			}
		}
	}
}

// The hold durations are matrix knobs, not package constants: a
// partition shorter than OSPF's dead interval is healed before the
// adjacency drops, so the outage is just the hold itself — far less
// than the stock 60 s hold that forces a full reroute.
func TestTimingConfigurable(t *testing.T) {
	quick := Run(Spec{
		Topology: LAN3(), Protocol: "ospf", Failure: Partition,
		Timing: Timing{PartitionHold: 5 * time.Second},
	})
	if !quick.Converged || !quick.Recovered {
		t.Fatalf("short-hold partition: %+v", quick)
	}
	stock := Run(Spec{Topology: LAN3(), Protocol: "ospf", Failure: Partition})
	if !stock.Converged || !stock.Recovered {
		t.Fatalf("stock partition: %+v", stock)
	}
	if quick.Blackhole >= stock.Blackhole {
		t.Errorf("5s hold blackholed %v, stock 60s hold %v; shorter hold must hurt less",
			quick.Blackhole, stock.Blackhole)
	}
	if quick.Blackhole > 10*time.Second {
		t.Errorf("5s hold blackholed %v; healing inside the dead interval should cost ~the hold", quick.Blackhole)
	}
}

func TestFormatTable(t *testing.T) {
	out := FormatTable([]Result{{
		Topology: "ring6", Protocol: "ospf", Failure: LinkLoss, Nodes: 6,
		Converged: true, Recovered: true,
		Initial: 30 * time.Second, Recovery: 42 * time.Second, Blackhole: 40 * time.Second,
	}})
	for _, want := range []string{"topology", "ring6", "42.0s", "ok"} {
		if !strings.Contains(out, want) {
			t.Fatalf("table missing %q:\n%s", want, out)
		}
	}
}
