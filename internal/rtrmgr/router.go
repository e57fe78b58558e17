package rtrmgr

import (
	"fmt"
	"net/netip"
	"slices"
	"sync"
	"sync/atomic"

	"xorp/internal/bgp"
	"xorp/internal/eventloop"
	"xorp/internal/fea"
	"xorp/internal/finder"
	"xorp/internal/kernel"
	"xorp/internal/ospf"
	"xorp/internal/rib"
	"xorp/internal/rip"
	"xorp/internal/xif"
	"xorp/internal/xipc"
)

// Options tune how the router manager assembles a router.
type Options struct {
	// Clock drives every process loop (nil = wall clock). A SimClock
	// yields deterministic runs but requires SharedLoop.
	Clock eventloop.Clock
	// SharedLoop runs every process on one loop (deterministic tests/
	// simulations). The default is one loop per process, like real XORP.
	SharedLoop bool
	// Network attaches the FEA to a simulated datagram fabric (for RIP).
	Network *kernel.Network
	// LocalAddr is this router's address on Network.
	LocalAddr netip.Addr
	// BGPListen accepts real BGP peer connections ("" = none).
	BGPListen string
	// ConsistencyChecks enables BGP's §5.1 cache stage.
	ConsistencyChecks bool
}

// Router is a fully assembled XORP router: Finder, FEA, RIB and one
// process per configured class of the module table, wired over XRLs
// through an in-process Hub — the paper's multi-process architecture with
// each "process" an event loop.
type Router struct {
	Config *Node
	Hub    *xipc.Hub
	Finder *finder.Finder
	FIB    *kernel.FIB
	FEA    *fea.Process
	RIB    *rib.Process
	// Typed views of procs for callers outside the package, nil while the
	// process is dead; assigned in typedViews only.
	BGP  *bgp.Process
	RIP  *rip.Process
	OSPF *ospf.Process

	FEARouter *xipc.Router
	RIBRouter *xipc.Router

	modules []*module // the process classes this router knows, in start order
	loops   []*eventloop.Loop
	opts    Options
	dep     deployment
	running bool

	// procMu guards procs, the typed views and loops: the supervisor
	// replaces an instance on respawn while tests and chaos harnesses
	// read them.
	procMu sync.Mutex
	procs  map[string]*instance // live instances by class
	// respawning marks that setup code is running on the shared loop
	// itself (supervisor respawn); syncDo must not dispatch-and-wait.
	respawning atomic.Bool

	sup *Supervisor

	// Transactional reload state (txn.go). txMu guards all of it, plus
	// Config and generation once the router is live: the coordinator
	// swaps the running config only after a full two-phase commit.
	txMu         sync.Mutex
	generation   uint32 // bumped on every committed reload
	txSeq        uint32 // transaction id allocator
	txOpen       uint32 // open transaction id (0 = none)
	txParts      map[string]bool
	txPoison     string // set when a participant dies mid-transaction
	txHooks      TxHooks
	configRouter *xipc.Router
}

// module describes one process class. The class name is its Finder class
// and instance name, the key of its block under `protocols`, and its
// participant name in a reload transaction. Assembly, Start, Stop,
// supervision, KillProcess and the reload planner all walk one table of
// these (modules.go) and know nothing else about a protocol.
type module struct {
	class string
	// setup builds the process on the loop, XRL router and Finder target
	// the core made in inst: the constructor, reading only the identity
	// units of cfg (the class's block) and the deployment, and XRL
	// bindings on inst.target. The rest of the block arrives through
	// stage (bootPlan).
	setup func(d *deployment, inst *instance, cfg *Node) (proc, error)
	// identity lists the units setup reads; changing one needs a restart.
	identity []string
	// sections lists the top-level config sections, besides its own
	// block, whose changes the class's agent stages.
	sections []string
	// watch subscribes the registered instance to every class's Finder
	// lifetime events, delivered to the handler its setup installed.
	watch bool
}

// proc is what the core needs of a running process.
type proc interface {
	// begin is the class's slice of Start, run on the process loop: bind,
	// listen, enable what cfg (the class's running config block) names.
	begin(cfg *Node) error
	// close stops the process, on its loop: timers, listeners, sessions.
	close()
	// stage validates one change routed to the class (a unit of its block,
	// or of one of its sections) against live state and returns its apply
	// steps, or a nack reason (txagents.go).
	stage(c Change) ([]txStep, string, error)
}

// deployment is what a process's setup, stage and begin see of the router
// they are part of, besides their instance and their slice of the plan.
type deployment struct {
	localAddr         netip.Addr
	bgpListen         string
	consistencyChecks bool
	host              *kernel.Host // the FEA's attachment to Options.Network, nil without one
}

// newDeployment takes opts' settings, attaching the FEA's host to
// opts.Network when there is one.
func newDeployment(opts Options) (deployment, error) {
	d := deployment{localAddr: opts.LocalAddr, bgpListen: opts.BGPListen, consistencyChecks: opts.ConsistencyChecks}
	if opts.Network != nil && opts.LocalAddr.IsValid() {
		var err error
		if d.host, err = opts.Network.Attach(opts.LocalAddr); err != nil {
			return d, err
		}
	}
	return d, nil
}

// instance is one incarnation of a module's process. A respawn makes a
// new one; nothing of the old survives but its config block.
type instance struct {
	class  string
	loop   *eventloop.Loop
	router *xipc.Router
	target *xipc.Target // kept so a respawn can register it
	proc   proc
}

// simulated reports whether the assembly runs on a simulated clock.
func (r *Router) simulated() bool {
	return r.opts.Clock != nil && r.opts.Clock.IsSimulated()
}

// loopFor returns a loop for the next process under the sharing policy.
// Real-clock loops start running immediately so the XRL wiring performed
// during assembly can complete.
func (r *Router) loopFor() *eventloop.Loop {
	if r.opts.SharedLoop && len(r.loops) > 0 {
		return r.loops[0]
	}
	l := eventloop.New(r.opts.Clock)
	r.procMu.Lock()
	r.loops = append(r.loops, l)
	r.procMu.Unlock()
	if !r.simulated() {
		go l.Run()
	}
	return l
}

// processRouter returns the XRL router of a new process named
// <name>_process: on a loop from loopFor, attached to the hub.
func (r *Router) processRouter(name string) *xipc.Router {
	xr := xipc.NewRouter(name+"_process", r.loopFor())
	xr.AttachHub(r.Hub)
	return xr
}

// pump drives the simulated loops until *done is set, reporting whether
// it was (false: the loops drained with the work unfinished).
func (r *Router) pump(done *bool) bool {
	for i := 0; !*done && i < 20000; i++ {
		for _, l := range r.loops {
			l.RunPending()
		}
	}
	return *done
}

// syncDo runs fn on loop and waits for completion, driving simulated
// loops as needed.
func (r *Router) syncDo(loop *eventloop.Loop, fn func()) {
	if r.respawning.Load() && r.opts.SharedLoop {
		// Respawn runs on the shared loop itself: dispatching to it and
		// waiting would deadlock (real clock) or wedge (sim clock), and
		// being on the loop already makes the direct call safe.
		fn()
		return
	}
	if !r.simulated() {
		loop.DispatchAndWait(fn)
		return
	}
	done := false
	loop.Dispatch(func() {
		fn()
		done = true
	})
	if !r.pump(&done) {
		panic("rtrmgr: simulated loops wedged")
	}
}

// await runs one asynchronous Finder call to completion from outside the
// loops, driving simulated ones as needed.
func (r *Router) await(what string, start func(done func(error))) error {
	if !r.simulated() {
		ch := make(chan error, 1)
		start(func(e error) { ch <- e })
		return <-ch
	}
	var err error
	done := false
	start(func(e error) { err, done = e, true })
	if !r.pump(&done) {
		return fmt.Errorf("rtrmgr: %s wedged", what)
	}
	return err
}

// register announces t, hosted by xr, to the Finder and, when watch is
// set, subscribes it to every class's lifetime events. done runs on xr's
// loop.
func register(xr *xipc.Router, t *xipc.Target, watch bool, done func(error)) {
	finder.RegisterTarget(xr, t, true, func(err error) {
		if err != nil || !watch {
			done(err)
			return
		}
		finder.Watch(xr, t.Name, "*", done)
	})
}

// boot registers inst (for m.watch, with its lifetime watch) and then,
// on inst's loop, configures it through a with its slice of a boot plan:
// how a process boots in NewRouter, on respawn and alone. Registration
// comes first, and is asynchronous, because a respawn runs on a loop it
// must not block. done runs on inst's loop.
func boot(m *module, inst *instance, a *txAgent, plan []Change, done func(error)) {
	register(inst.router, inst.target, m.watch, func(err error) {
		if err != nil {
			err = fmt.Errorf("rtrmgr: register %s: %w", m.class, err)
		} else {
			err = a.configure(plan)
		}
		done(err)
	})
}

// NewRouter assembles a router from configuration text. Supported
// configuration (see examples/ and the README):
//
//	interfaces { eth0 { address 10.0.0.1/24; } }
//	static { route 10.0.0.0/8 next-hop 10.0.0.254; }
//	protocols {
//	    bgp { local-as 65001; id 10.0.0.1;
//	          peer p1 { local-addr ...; peer-addr ...; as 65002; dial host:port; } }
//	    rip { }
//	    ospf { hello-interval 10; dead-interval 40; export pol-name; }
//	}
//	policy import-bgp { term a { from ...; then ...; } }
func NewRouter(cfgText string, opts Options) (*Router, error) {
	return newRouter(cfgText, opts, modules)
}

// newRouter is NewRouter over an explicit module table.
func newRouter(cfgText string, opts Options, table []*module) (*Router, error) {
	cfg, err := ParseConfig(cfgText)
	if err != nil {
		return nil, err
	}
	r := &Router{Config: cfg, Hub: xipc.NewHub(), opts: opts, generation: 1,
		modules: table, procs: make(map[string]*instance)}
	plan, err := bootPlan(table, cfg)
	if err != nil {
		return nil, err
	}
	if r.dep, err = newDeployment(opts); err != nil {
		return nil, err
	}
	r.Finder = finder.New(r.loopFor())
	r.Finder.AttachHub(r.Hub)

	// The FEA, then the RIB forwarding to it, then one process per
	// configured class.
	feaInst, err := r.bringUp(feaModule, nil, plan)
	if err != nil {
		return nil, err
	}
	r.FEA, r.FEARouter = feaInst.proc.(feaProc).Process, feaInst.router
	r.FIB = r.FEA.FIB()
	ribInst, err := r.bringUp(ribModule, nil, plan)
	if err != nil {
		return nil, err
	}
	r.RIB, r.RIBRouter = ribInst.proc.(ribProc).Process, ribInst.router
	for _, m := range r.modules {
		if pcfg := r.classConfig(m.class); pcfg != nil {
			inst, err := r.bringUp(m, pcfg, plan)
			if err != nil {
				return nil, err
			}
			r.publish(inst)
		}
	}
	return r, nil
}

// bringUp builds m's process from cfg and boots it with its slice of
// plan, dismantling it on failure.
func (r *Router) bringUp(m *module, cfg *Node, plan map[string][]Change) (*instance, error) {
	inst, a, err := build(m, &r.dep, r.processRouter(m.class), cfg)
	if err == nil {
		err = r.await("boot", func(done func(error)) { boot(m, inst, a, plan[m.class], done) })
	}
	if err != nil {
		r.dismantle(inst)
		return nil, err
	}
	return inst, nil
}

// runningConfig returns the running configuration tree. Once the router
// is live it is read from process loops and the supervisor's while a
// reload swaps it, hence txMu.
func (r *Router) runningConfig() *Node {
	r.txMu.Lock()
	defer r.txMu.Unlock()
	return r.Config
}

// classConfig returns class's block of the running configuration, nil
// when the class is not configured.
func (r *Router) classConfig(class string) *Node {
	if protos := r.runningConfig().Child("protocols"); protos != nil {
		return protos.Child(class)
	}
	return nil
}

// current returns class's live instance, nil while it is dead.
func (r *Router) current(class string) *instance {
	r.procMu.Lock()
	defer r.procMu.Unlock()
	return r.procs[class]
}

// instances snapshots the live instances in module order.
func (r *Router) instances() []*instance {
	r.procMu.Lock()
	defer r.procMu.Unlock()
	var out []*instance
	for _, m := range r.modules {
		if inst := r.procs[m.class]; inst != nil {
			out = append(out, inst)
		}
	}
	return out
}

// build assembles an instance of m on xr — its loop, XRL router and Finder
// target, the process m.setup builds on them from cfg and d — and returns
// it with its side of the reload protocol, the agent that configures it,
// bound on the target. The caller registers the instance, then configures
// it with its slice of a boot plan, then begins it: NewRouter, a respawn
// and StartProcess alike. What feeds it from other processes is theirs to
// configure: the RIB primes the redistribution stages of the class when
// the registration's birth event reaches it.
func build(m *module, d *deployment, xr *xipc.Router, cfg *Node) (*instance, *txAgent, error) {
	inst := &instance{class: m.class, loop: xr.Loop(), router: xr, target: xif.NewTarget(m.class, m.class)}
	p, err := m.setup(d, inst, cfg)
	if err != nil {
		return inst, nil, err
	}
	inst.proc = p
	// A stage sees a unit of one of m's sections, or a statement under
	// protocols; a change to one of the class's identity units is refused.
	a := &txAgent{class: m.class, stage: func(c Change) ([]txStep, string, error) {
		switch {
		case len(c.Path) >= 2 && slices.Contains(m.sections, c.Path[0]):
		case len(c.Path) < 3 || c.Path[0] != "protocols":
			return nil, "unsupported " + m.class + " change", nil
		case c.Path[1] == m.class && slices.Contains(m.identity, c.Path[2]):
			return nil, "changing " + c.Path[2] + " requires a restart", nil
		}
		return p.stage(c)
	}}
	xif.BindConfig(inst.target, a)
	xr.AddTarget(inst.target)
	return inst, a, nil
}

// procOf returns inst's process as the wrapper type T, the zero T for a
// nil instance.
func procOf[T proc](inst *instance) (p T) {
	if inst != nil {
		p, _ = inst.proc.(T)
	}
	return p
}

// typedViews refreshes the exported typed fields from procs after it
// changed. procMu held.
func (r *Router) typedViews() {
	r.BGP = procOf[bgpProc](r.procs["bgp"]).Process
	r.RIP = procOf[ripProc](r.procs["rip"]).Process
	r.OSPF = procOf[ospfProc](r.procs["ospf"]).Process
}

// CurrentBGP returns the live BGP process, nil while dead. The supervisor
// replaces processes on respawn, so concurrent readers (tests, chaos
// harnesses) use these rather than the fields.
func (r *Router) CurrentBGP() *bgp.Process { return procOf[bgpProc](r.current("bgp")).Process }

// publish makes inst its class's live instance.
func (r *Router) publish(inst *instance) {
	r.procMu.Lock()
	r.procs[inst.class] = inst
	r.typedViews()
	r.procMu.Unlock()
}

// teardown is the destructive half of a crash or respawn. It unpublishes
// class's instance first, so readers never see a half-dead process, then
// dismantles it. Idempotent: a second call finds nothing and reports
// false.
func (r *Router) teardown(class string) bool {
	r.procMu.Lock()
	inst := r.procs[class]
	delete(r.procs, class)
	r.typedViews()
	r.procMu.Unlock()
	if inst == nil {
		return false
	}
	r.dismantle(inst)
	return true
}

// dismantle takes inst out of the router. Its XRL router, the process's
// one road to the RIB and the network, closes first: the peer-down
// machinery of a dying process cannot push withdrawals into the RIB, nor
// a dying IGP poison its routes on the wire, and redistribution XRLs on
// their way to it fail there. Then the process stops on its loop; no
// other process is touched. The RIB quiets the redistribution feeding the
// class on its own, at the death event. The FEA keeps its relay ports:
// they are the class's, and a respawn's bind finds them held.
func (r *Router) dismantle(inst *instance) {
	inst.router.Close()
	if inst.proc != nil { // nil when setup failed half way
		r.syncDo(inst.loop, inst.proc.close)
	}
	r.dropLoop(inst.loop)
}

// dropLoop retires a dead process's dedicated loop. The shared loop
// hosts every other process and stays.
func (r *Router) dropLoop(l *eventloop.Loop) {
	if r.opts.SharedLoop {
		return
	}
	l.Stop()
	r.procMu.Lock()
	if i := slices.Index(r.loops, l); i >= 0 {
		r.loops = slices.Delete(r.loops, i, i+1)
	}
	r.procMu.Unlock()
}

// respawn replaces class m's instance: teardown (idempotent — KillProcess
// usually already did it), setup, boot with the running config's plan,
// then — on the new process's loop — publish and begin. done is
// called exactly once, possibly from that loop.
func (r *Router) respawn(m *module, done func(error)) {
	cfg := r.classConfig(m.class)
	plan, err := bootPlan(r.modules, r.runningConfig())
	if err != nil {
		done(err)
		return
	}
	// Respawn runs on the supervisor's loop, which under SharedLoop is the
	// loop syncDo would dispatch to: the flag makes it call directly.
	r.respawning.Store(true)
	r.teardown(m.class)
	inst, a, err := build(m, &r.dep, r.processRouter(m.class), cfg)
	if err != nil {
		r.dismantle(inst)
	}
	r.respawning.Store(false)
	if err != nil {
		done(err)
		return
	}
	boot(m, inst, a, plan[m.class], func(err error) {
		// Published even when it failed, so the next respawn's teardown
		// takes it down.
		r.publish(inst)
		if err == nil {
			err = inst.proc.begin(cfg)
		}
		done(err)
	})
}

// Start begins every configured process (loops already run in real-clock
// mode; simulated assemblies are driven with SettleAll / the loops
// directly).
func (r *Router) Start() error {
	if r.running {
		return nil
	}
	r.running = true
	for _, inst := range r.instances() {
		cfg := r.classConfig(inst.class)
		var err error
		r.syncDo(inst.loop, func() { err = inst.proc.begin(cfg) })
		if err != nil {
			return err
		}
	}
	return nil
}

// Stop shuts everything down. The instances are snapshotted under procMu:
// the supervisor may have replaced them since Start.
func (r *Router) Stop() {
	insts := r.instances()
	r.procMu.Lock()
	loops := slices.Clone(r.loops)
	r.procMu.Unlock()
	// Timers and sessions are loop-owned state: stop each process on its
	// own loop (real-clock loops are still running here).
	for _, inst := range insts {
		if r.simulated() {
			inst.proc.close()
		} else {
			inst.loop.DispatchAndWait(inst.proc.close)
		}
	}
	for _, l := range loops {
		l.Stop()
	}
	r.running = false
}

// Loops exposes the process loops (deterministic driving in tests).
func (r *Router) Loops() []*eventloop.Loop { return r.loops }

// SettleAll runs all loops' pending work until quiescent (SharedLoop +
// SimClock mode only).
func (r *Router) SettleAll() {
	for i := 0; i < 100; i++ {
		n := 0
		for _, l := range r.loops {
			n += l.RunPending()
		}
		if n == 0 {
			return
		}
	}
}
