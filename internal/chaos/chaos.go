package chaos

import (
	"fmt"
	"math"
	"net/netip"
	"sort"
	"strings"
	"time"

	"xorp/internal/eventloop"
	"xorp/internal/fwd"
	"xorp/internal/kernel"
	"xorp/internal/rtrmgr"
	"xorp/internal/telemetry"
)

// Failure is one way to hurt the network.
type Failure string

const (
	// LinkLoss cuts the topology's FailLink permanently; recovery is
	// rerouting around it.
	LinkLoss Failure = "link-loss"
	// LinkFlap cuts and restores FailLink repeatedly, then leaves it
	// up: protocols whose timers outlast the down phase ride through.
	LinkFlap Failure = "link-flap"
	// Partition cuts every link between the topology's halves for
	// partitionHold, then heals; recovery is measured from the heal.
	Partition Failure = "partition"
	// ProcessKill crashes the origin's routing process and respawns
	// it after respawnDelay. Forwarding state is retained while the
	// process is down (graceful restart), so the expected blackhole
	// is zero.
	ProcessKill Failure = "process-kill"
)

// Spec is one cell of the chaos matrix.
type Spec struct {
	Topology *Topology
	Protocol string // "rip" or "ospf" (BGP runs via RunBGPKillRespawn)
	Failure  Failure
	// Timing overrides the scenario clock; zero fields take the
	// package defaults, so a zero Timing reproduces the stock matrix.
	Timing Timing
}

// Result is what one scenario measured. Blackhole is the headline
// number: simulated time during which the observer's forwarding path to
// the target prefix was missing, looped, or crossed a dead link — the
// interval real traffic would have been dropped (§8.2).
type Result struct {
	Topology string
	Protocol string
	Failure  Failure
	Nodes    int

	Converged bool          // initial convergence reached
	Initial   time.Duration // start -> first preferred-path convergence
	Recovered bool          // reconverged after the failure
	Recovery  time.Duration // repair (or failure, for link-loss) -> reconverged
	Blackhole time.Duration // total forwarding outage after the failure hit
	Note      string        // why a scenario was skipped or failed

	// BlackP50/P95/P99 are percentiles of the same outage measured
	// from every non-origin node, not just the observer: the
	// route-loss distribution across the topology. On a redundant
	// fabric the p50 node reroutes instantly while the p99 corner
	// rides out the full detection timer.
	BlackP50, BlackP95, BlackP99 time.Duration

	// PubSamples and PubP50/P95/P99 come from the route-latency
	// tracer: the wall-clock apply→snapshot-publish tail of every
	// route push the scenario's nodes performed (origin
	// StageFIBApply). Unlike the sim-clock outage columns these are
	// real nanoseconds — the cost of making a route visible to the
	// forwarding workers during churn.
	PubSamples             int
	PubP50, PubP95, PubP99 time.Duration
}

// Scenario timing. Sim-clock scenarios replay hundreds of simulated
// seconds in milliseconds, so the limits are generous.
const (
	stepQuantum   = 100 * time.Millisecond
	initialLimit  = 10 * time.Minute
	recoveryLimit = 30 * time.Minute

	// flapDown sits between OSPF's 40 s dead interval and RIP's 180 s
	// route timeout: OSPF reroutes during every down phase, RIP rides
	// the flaps out on its stale route.
	flapDown   = 60 * time.Second
	flapUp     = 60 * time.Second
	flapCycles = 2

	// partitionHold likewise: long enough for OSPF to tear down the
	// cross-partition adjacencies, short enough that RIP's routes
	// survive to the heal.
	partitionHold = 60 * time.Second

	// respawnDelay is well inside every protocol's failure-detection
	// timer, so a supervised respawn is invisible to neighbours.
	respawnDelay = 2 * time.Second
	// killSoak keeps sampling after the respawn for longer than any
	// protocol hold timer: if the respawned origin failed to
	// re-announce, routes expire during the soak and the scenario
	// reports the outage instead of a false pass.
	killSoak = 240 * time.Second
)

// Timing is the scenario clock, one knob per hold duration the matrix
// used to hard-code: how finely the runner samples, how long it waits
// for convergence, and how long each failure lasts. Zero fields take
// the package defaults.
type Timing struct {
	StepQuantum   time.Duration // advance/sampling quantum
	InitialLimit  time.Duration // give up waiting for initial convergence
	RecoveryLimit time.Duration // give up waiting for reconvergence
	FlapDown      time.Duration // link-flap down phase
	FlapUp        time.Duration // link-flap up phase
	FlapCycles    int           // link-flap repetitions
	PartitionHold time.Duration // partition duration before the heal
	RespawnDelay  time.Duration // process-kill downtime before respawn
	KillSoak      time.Duration // post-respawn soak before the re-check
}

// fill resolves zero fields to the package defaults.
func (tm Timing) fill() Timing {
	def := func(d *time.Duration, v time.Duration) {
		if *d == 0 {
			*d = v
		}
	}
	def(&tm.StepQuantum, stepQuantum)
	def(&tm.InitialLimit, initialLimit)
	def(&tm.RecoveryLimit, recoveryLimit)
	def(&tm.FlapDown, flapDown)
	def(&tm.FlapUp, flapUp)
	if tm.FlapCycles == 0 {
		tm.FlapCycles = flapCycles
	}
	def(&tm.PartitionHold, partitionHold)
	def(&tm.RespawnDelay, respawnDelay)
	def(&tm.KillSoak, killSoak)
	return tm
}

// runner drives one scenario on the simulated clock. Every node is a
// full rtrmgr.Router — FEA, RIB, one supervised IGP process — on its own
// shared loop, and all the loops advance together on one SimClock. It
// all runs on the driving goroutine, so no locking is needed.
type runner struct {
	spec     Spec
	tm       Timing
	routers  []*rtrmgr.Router
	loops    []*eventloop.Loop // every router's loop, advanced together
	nodeOf   map[netip.Addr]int
	prefix   netip.Prefix
	failed   map[[2]int]bool
	sampling bool
	black    time.Duration
	blackPer []time.Duration // per-node outage, indexed by node
	tracer   *telemetry.Tracer
}

func newRunner(spec Spec) (*runner, error) {
	if spec.Protocol != "rip" && spec.Protocol != "ospf" {
		return nil, fmt.Errorf("chaos: unknown protocol %q", spec.Protocol)
	}
	t := spec.Topology
	r := &runner{
		spec:     spec,
		tm:       spec.Timing.fill(),
		nodeOf:   make(map[netip.Addr]int, t.N),
		prefix:   netip.MustParsePrefix("172.16.0.0/16"),
		failed:   make(map[[2]int]bool),
		blackPer: make([]time.Duration, t.N),
	}
	// One tracer shared by every node's FEA: its traces open where the FEA
	// first sees a route, and end at the snapshot publish.
	r.tracer = telemetry.NewTracer()
	r.tracer.Enable()
	clock := eventloop.NewSimClock(time.Unix(0, 0))
	netw := kernel.NewNetwork()
	netw.SetDropFunc(r.drop)
	for i := 0; i < t.N; i++ {
		r.nodeOf[t.Addr(i)] = i
	}
	for i := 0; i < t.N; i++ {
		rt, err := rtrmgr.NewRouter(r.config(i), rtrmgr.Options{
			Clock: clock, SharedLoop: true, Network: netw, LocalAddr: t.Addr(i),
		})
		if err != nil {
			r.stop()
			return nil, err
		}
		r.routers = append(r.routers, rt)
		r.loops = append(r.loops, rt.Loops()...)
		rt.FEA.SetTracer(r.tracer)
		// The respawn delay is the supervisor's first backoff.
		if _, err := rt.EnableSupervision(rtrmgr.SupervisorConfig{InitialBackoff: r.tm.RespawnDelay}); err != nil {
			r.stop()
			return nil, err
		}
	}
	for _, rt := range r.routers {
		if err := rt.Start(); err != nil {
			r.stop()
			return nil, err
		}
	}
	return r, nil
}

// config is node i's configuration: its IGP, redistributing statics, and
// at the origin (metric 1) and the backup of a multi-homed topology
// (metric 5) a static route to the target prefix.
func (r *runner) config(i int) string {
	t := r.spec.Topology
	var static string
	switch i {
	case t.Origin:
		static = fmt.Sprintf("static { route %v metric 1; }\n", r.prefix)
	case t.Backup:
		static = fmt.Sprintf("static { route %v metric 5; }\n", r.prefix)
	}
	return static + fmt.Sprintf("protocols { %s { redistribute static; } }\n", r.spec.Protocol)
}

func (r *runner) stop() {
	for _, rt := range r.routers {
		rt.Stop()
	}
}

// now is the shared simulated clock's reading.
func (r *runner) now() time.Time { return r.loops[0].Now() }

// drop is the Network's shaping predicate: only datagrams between
// linked, un-failed pairs get through.
func (r *runner) drop(src, dst netip.AddrPort) bool {
	a, aok := r.nodeOf[src.Addr()]
	b, bok := r.nodeOf[dst.Addr()]
	if !aok || !bok {
		return true
	}
	return !r.linkUp(a, b)
}

func (r *runner) linkUp(a, b int) bool {
	return r.spec.Topology.Linked(a, b) && !r.failed[linkKey(a, b)]
}

// pathEnd follows forwarding entries hop by hop from the observer,
// returning the origin it reaches, or -1 if the path is missing, loops,
// or crosses a dead link — the data-plane truth behind "converged".
func (r *runner) pathEnd() int { return r.pathEndFrom(r.spec.Topology.Observer) }

// pathEndFrom is pathEnd starting at an arbitrary node, for the
// per-node route-loss sampling behind the blackhole percentiles.
func (r *runner) pathEndFrom(start int) int {
	t := r.spec.Topology
	cur := start
	seen := make(map[int]bool, t.N)
	for !seen[cur] {
		if cur == t.Origin || cur == t.Backup {
			return cur
		}
		seen[cur] = true
		// Forward the way a packet would: longest-prefix match against
		// the FEA's published snapshot, not the control plane's state.
		e, ok := r.snapshot(cur).Lookup(r.prefix.Addr())
		if !ok {
			return -1
		}
		nxt, ok := r.nodeOf[e.NextHop]
		if !ok || !r.linkUp(cur, nxt) {
			return -1
		}
		cur = nxt
	}
	return -1
}

// snapshot is node i's forwarding table as its FEA last published it. The
// runner advances every loop itself, so it reads between commits and
// needs no pin.
func (r *runner) snapshot(i int) *fwd.Snapshot { return r.routers[i].FEA.Snapshots().Current() }

func (r *runner) pathOK() bool { return r.pathEnd() >= 0 }

// converged: every non-origin node holds the route and the observer's
// forwarding path actually reaches an origin.
func (r *runner) converged() bool {
	t := r.spec.Topology
	for i := range r.routers {
		if i == t.Origin || i == t.Backup {
			continue
		}
		if _, ok := r.snapshot(i).Get(r.prefix); !ok {
			return false
		}
	}
	return r.pathOK()
}

// initialConverged additionally demands the preferred origin won, so a
// multi-homed scenario starts from the route the failure will break.
func (r *runner) initialConverged() bool {
	return r.converged() && r.pathEnd() == r.spec.Topology.Origin
}

// step advances simulated time by one quantum, accruing blackhole time
// at every node whose forwarding path is broken. The observer's total
// is the headline Blackhole; the full per-node distribution feeds the
// percentiles.
func (r *runner) step() {
	eventloop.AdvanceAll(r.now().Add(r.tm.StepQuantum), r.loops...)
	if !r.sampling {
		return
	}
	t := r.spec.Topology
	for i := range r.routers {
		if i == t.Origin || i == t.Backup {
			continue
		}
		if r.pathEndFrom(i) < 0 {
			r.blackPer[i] += r.tm.StepQuantum
			if i == t.Observer {
				r.black += r.tm.StepQuantum
			}
		}
	}
}

func (r *runner) runFor(d time.Duration) {
	end := r.now().Add(d)
	for r.now().Before(end) {
		r.step()
	}
}

func (r *runner) until(limit time.Duration, cond func() bool) (time.Duration, bool) {
	start := r.now()
	for {
		if cond() {
			return r.now().Sub(start), true
		}
		if r.now().Sub(start) >= limit {
			return r.now().Sub(start), false
		}
		r.step()
	}
}

func (r *runner) cut(l [2]int)     { r.failed[linkKey(l[0], l[1])] = true }
func (r *runner) restore(l [2]int) { delete(r.failed, linkKey(l[0], l[1])) }

func (r *runner) partitionCut() {
	for _, l := range r.spec.Topology.Links() {
		if r.spec.Topology.crossesHalves(l) {
			r.cut(l)
		}
	}
}

func (r *runner) heal() { r.failed = make(map[[2]int]bool) }

// Run executes one scenario and reports what it measured.
func Run(spec Spec) Result {
	t := spec.Topology
	res := Result{
		Topology: t.Name,
		Protocol: spec.Protocol,
		Failure:  spec.Failure,
		Nodes:    t.N,
	}
	if spec.Protocol == "rip" && !t.Broadcast {
		res.Note = "skipped: RIP split horizon is per broadcast domain"
		return res
	}
	r, err := newRunner(spec)
	if err != nil {
		res.Note = err.Error()
		return res
	}
	defer r.stop()
	res.Initial, res.Converged = r.until(r.tm.InitialLimit, r.initialConverged)
	if !res.Converged {
		res.Note = "never converged"
		return res
	}

	r.sampling = true
	switch spec.Failure {
	case LinkLoss:
		r.cut(t.FailLink)
		res.Recovery, res.Recovered = r.until(r.tm.RecoveryLimit, r.converged)
	case LinkFlap:
		for i := 0; i < r.tm.FlapCycles; i++ {
			r.cut(t.FailLink)
			r.runFor(r.tm.FlapDown)
			r.restore(t.FailLink)
			r.runFor(r.tm.FlapUp)
		}
		res.Recovery, res.Recovered = r.until(r.tm.RecoveryLimit, r.converged)
	case Partition:
		r.partitionCut()
		r.runFor(r.tm.PartitionHold)
		r.heal()
		res.Recovery, res.Recovered = r.until(r.tm.RecoveryLimit, r.converged)
	case ProcessKill:
		// The supervisor respawns the process RespawnDelay after the
		// Finder reports its death; the RIB keeps its routes meanwhile.
		if err := r.routers[t.Origin].KillProcess(spec.Protocol); err != nil {
			res.Note = fmt.Sprintf("kill: %v", err)
			return res
		}
		r.runFor(r.tm.RespawnDelay)
		res.Recovery, res.Recovered = r.until(r.tm.RecoveryLimit, r.converged)
		if res.Recovered {
			// Prove the respawned origin really re-announced: ride
			// out every protocol hold timer and re-check.
			r.runFor(r.tm.KillSoak)
			res.Recovered = r.converged()
		}
	default:
		res.Note = fmt.Sprintf("unknown failure %q", spec.Failure)
		return res
	}
	res.Blackhole = r.black
	res.BlackP50, res.BlackP95, res.BlackP99 = r.blackPercentiles()
	res.PubSamples, res.PubP50, res.PubP95, res.PubP99 = r.pubLatencies()
	return res
}

// pubLatencies reduces the tracer's apply→publish tail traces to
// percentiles of the wall-clock route-publication cost.
func (r *runner) pubLatencies() (n int, p50, p95, p99 time.Duration) {
	traces := r.tracer.Take()
	deltas := make([]float64, 0, len(traces))
	for i := range traces {
		a, b := traces[i].T[telemetry.StageFIBApply], traces[i].T[telemetry.StageSnapPub]
		if a > 0 && b >= a {
			deltas = append(deltas, float64(b-a))
		}
	}
	if len(deltas) == 0 {
		return
	}
	sort.Float64s(deltas)
	return len(deltas),
		time.Duration(telemetry.Percentile(deltas, 50)),
		time.Duration(telemetry.Percentile(deltas, 95)),
		time.Duration(telemetry.Percentile(deltas, 99))
}

// blackPercentiles summarises the per-node outage distribution over
// every node that forwards (origins excluded: they terminate the path).
func (r *runner) blackPercentiles() (p50, p95, p99 time.Duration) {
	t := r.spec.Topology
	ds := make([]time.Duration, 0, t.N)
	for i := range r.routers {
		if i == t.Origin || i == t.Backup {
			continue
		}
		ds = append(ds, r.blackPer[i])
	}
	if len(ds) == 0 {
		return
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	pick := func(p float64) time.Duration {
		idx := int(math.Ceil(p*float64(len(ds)))) - 1
		if idx < 0 {
			idx = 0
		}
		return ds[idx]
	}
	return pick(0.50), pick(0.95), pick(0.99)
}

// DefaultMatrix is the standard scenario grid: every failure on every
// topology, RIP restricted to broadcast-domain topologies (its split
// horizon poisons learned routes, so it propagates one hop).
func DefaultMatrix() []Spec {
	topos := []*Topology{LAN3(), Ring(6), Grid(3, 3), ASHierarchy(), FatTree(4)}
	var specs []Spec
	for _, t := range topos {
		for _, proto := range []string{"rip", "ospf"} {
			if proto == "rip" && !t.Broadcast {
				continue
			}
			for _, f := range []Failure{LinkLoss, LinkFlap, Partition, ProcessKill} {
				specs = append(specs, Spec{Topology: t, Protocol: proto, Failure: f})
			}
		}
	}
	return specs
}

// RunMatrix runs every spec in order.
func RunMatrix(specs []Spec) []Result {
	out := make([]Result, 0, len(specs))
	for _, s := range specs {
		out = append(out, Run(s))
	}
	return out
}

// FormatTable renders results as an aligned text table (simulated
// seconds; "blackhole" is the forwarding outage the failure caused).
func FormatTable(results []Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-9s %5s  %-5s %-12s %9s %9s %10s %7s %7s %7s %9s %9s  %s\n",
		"topology", "nodes", "proto", "failure", "initial", "recovery", "blackhole", "p50", "p95", "p99", "pub p50", "pub p99", "status")
	for _, r := range results {
		status := "ok"
		switch {
		case r.Note != "":
			status = r.Note
		case !r.Recovered:
			status = "did not reconverge"
		}
		fmt.Fprintf(&b, "%-9s %5d  %-5s %-12s %9s %9s %10s %7s %7s %7s %9s %9s  %s\n",
			r.Topology, r.Nodes, r.Protocol, r.Failure,
			fmtDur(r.Initial, r.Converged), fmtDur(r.Recovery, r.Recovered), fmtDur(r.Blackhole, r.Converged),
			fmtDur(r.BlackP50, r.Converged), fmtDur(r.BlackP95, r.Converged), fmtDur(r.BlackP99, r.Converged),
			fmtMicros(r.PubP50, r.PubSamples > 0), fmtMicros(r.PubP99, r.PubSamples > 0), status)
	}
	return b.String()
}

// fmtMicros renders a wall-clock trace latency in microseconds.
func fmtMicros(d time.Duration, valid bool) string {
	if !valid {
		return "-"
	}
	return fmt.Sprintf("%.1fµs", float64(d.Nanoseconds())/1e3)
}

func fmtDur(d time.Duration, valid bool) string {
	if !valid {
		return "-"
	}
	return fmt.Sprintf("%.1fs", d.Seconds())
}
