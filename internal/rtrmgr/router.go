package rtrmgr

import (
	"fmt"
	"net/netip"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"xorp/internal/bgp"
	"xorp/internal/eventloop"
	"xorp/internal/fea"
	"xorp/internal/finder"
	"xorp/internal/kernel"
	"xorp/internal/ospf"
	"xorp/internal/policy"
	"xorp/internal/rib"
	"xorp/internal/rip"
	"xorp/internal/route"
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

// Router is a fully assembled XORP router: Finder, FEA, RIB, and
// (config-dependent) BGP and RIP, wired over XRLs through an in-process
// Hub — the paper's multi-process architecture with each "process" an
// event loop.
type Router struct {
	Config *Node
	Hub    *xipc.Hub
	Finder *finder.Finder
	FIB    *kernel.FIB
	FEA    *fea.Process
	RIB    *rib.Process
	BGP    *bgp.Process
	RIP    *rip.Process
	OSPF   *ospf.Process

	// Routers (one per process) and their loops.
	FEARouter  *xipc.Router
	RIBRouter  *xipc.Router
	BGPRouter  *xipc.Router
	RIPRouter  *xipc.Router
	OSPFRouter *xipc.Router

	MetricSource *bgp.MetricSource
	loops        []*eventloop.Loop
	bgpLoop      *eventloop.Loop
	ripLoop      *eventloop.Loop
	ospfLoop     *eventloop.Loop
	opts         Options
	running      bool

	// Finder targets for the supervised protocol processes, kept so a
	// respawn can re-register them.
	bgpTarget  *xipc.Target
	ripTarget  *xipc.Target
	ospfTarget *xipc.Target

	// Names of the RIB redistribution stages each protocol spliced in,
	// removed on teardown so a respawn re-splices them cleanly.
	bgpRedists  []string
	ospfRedists []string

	// procMu guards the swappable process fields (BGP/RIP/OSPF, their
	// routers, loops, targets, redist names): the supervisor replaces
	// them on respawn while tests and chaos harnesses read them.
	procMu sync.Mutex
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
	txDeadline   time.Duration
	txHooks      TxHooks
	configLoop   *eventloop.Loop
	configRouter *xipc.Router
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
	for i := 0; !done && i < 10000; i++ {
		for _, l := range r.loops {
			l.RunPending()
		}
	}
	if !done {
		panic("rtrmgr: simulated loops wedged")
	}
}

// registerTarget registers t with the Finder, driving simulated loops.
func (r *Router) registerTarget(xr *xipc.Router, t *xipc.Target) error {
	if !r.simulated() {
		return finder.RegisterTargetSync(xr, t, true)
	}
	var err error
	done := false
	finder.RegisterTarget(xr, t, true, func(e error) {
		err = e
		done = true
	})
	for i := 0; !done && i < 10000; i++ {
		for _, l := range r.loops {
			l.RunPending()
		}
	}
	if !done {
		return fmt.Errorf("rtrmgr: finder registration wedged")
	}
	return err
}

// watch subscribes watcherTarget (hosted by xr) to Finder lifetime
// events for class, driving simulated loops as needed.
func (r *Router) watch(xr *xipc.Router, watcherTarget, class string) error {
	if !r.simulated() {
		ch := make(chan error, 1)
		finder.Watch(xr, watcherTarget, class, func(e error) { ch <- e })
		return <-ch
	}
	var err error
	done := false
	finder.Watch(xr, watcherTarget, class, func(e error) {
		err = e
		done = true
	})
	for i := 0; !done && i < 10000; i++ {
		for _, l := range r.loops {
			l.RunPending()
		}
	}
	if !done {
		return fmt.Errorf("rtrmgr: finder watch wedged")
	}
	return err
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
	cfg, err := ParseConfig(cfgText)
	if err != nil {
		return nil, err
	}
	r := &Router{Config: cfg, Hub: xipc.NewHub(), FIB: kernel.NewFIB(), opts: opts, generation: 1}

	// Finder process.
	r.Finder = finder.New(r.loopFor())
	r.Finder.AttachHub(r.Hub)

	// FEA process.
	feaLoop := r.loopFor()
	r.FEARouter = xipc.NewRouter("fea_process", feaLoop)
	r.FEARouter.AttachHub(r.Hub)
	var host *kernel.Host
	if opts.Network != nil && opts.LocalAddr.IsValid() {
		host, err = opts.Network.Attach(opts.LocalAddr)
		if err != nil {
			return nil, err
		}
	}
	r.FEA = fea.New(feaLoop, r.FIB, host, r.FEARouter)
	feaTarget := xif.NewTarget("fea", "fea")
	r.FEA.RegisterXRLs(feaTarget)
	xif.BindConfig(feaTarget, &txAgent{r: r, class: "fea", loop: feaLoop})
	r.FEARouter.AddTarget(feaTarget)
	if err := r.registerTarget(r.FEARouter, feaTarget); err != nil {
		return nil, fmt.Errorf("rtrmgr: register fea: %w", err)
	}

	// RIB process, forwarding to the FEA over XRLs.
	ribLoop := r.loopFor()
	r.RIBRouter = xipc.NewRouter("rib_process", ribLoop)
	r.RIBRouter.AttachHub(r.Hub)
	r.RIB = rib.NewProcess(ribLoop, &xrlFIBClient{stub: xif.NewFTIClient(r.RIBRouter, "fea")}, r.RIBRouter)
	ribTarget := xif.NewTarget("rib", "rib")
	r.RIB.RegisterXRLs(ribTarget)
	xif.BindConfig(ribTarget, &txAgent{r: r, class: "rib", loop: ribLoop})
	r.RIBRouter.AddTarget(ribTarget)
	if err := r.registerTarget(r.RIBRouter, ribTarget); err != nil {
		return nil, fmt.Errorf("rtrmgr: register rib: %w", err)
	}
	// Graceful restart: the RIB watches component lifetimes so a protocol
	// death marks its routes stale instead of stranding them (rib/graceful.go).
	r.RIBRouter.SetFinderEvent(r.RIB.HandleFinderEvent)
	if err := r.watch(r.RIBRouter, "rib", "*"); err != nil {
		return nil, fmt.Errorf("rtrmgr: rib lifetime watch: %w", err)
	}

	// Interfaces and connected routes.
	if ifs := cfg.Child("interfaces"); ifs != nil {
		for _, ifn := range ifs.Children {
			addrStr := ifn.Leaf("address")
			if addrStr == "" {
				return nil, fmt.Errorf("rtrmgr: interface %s has no address", ifn.Key)
			}
			pfx, err := netip.ParsePrefix(addrStr)
			if err != nil {
				return nil, fmt.Errorf("rtrmgr: interface %s: %v", ifn.Key, err)
			}
			mtu := 1500
			if m := ifn.Leaf("mtu"); m != "" {
				if mtu, err = strconv.Atoi(m); err != nil {
					return nil, err
				}
			}
			r.FIB.AddInterface(ifn.Key, pfx, mtu)
			entry := route.Entry{Net: pfx.Masked(), IfName: ifn.Key}
			r.syncDo(ribLoop, func() { r.RIB.AddRoute(route.ProtoConnected, entry) })
		}
	}

	// Static routes.
	if st := cfg.Child("static"); st != nil {
		for _, rt := range st.ChildrenNamed("route") {
			e, err := parseStaticRoute(rt)
			if err != nil {
				return nil, err
			}
			r.syncDo(ribLoop, func() { r.RIB.AddRoute(route.ProtoStatic, e) })
		}
	}

	protos := cfg.Child("protocols")

	// Protocol processes. Each setup builds the process and its XRL
	// router; registration with the Finder happens here so the respawn
	// path (which must register asynchronously) can reuse the setups.
	if protos != nil && protos.Child("bgp") != nil {
		if err := r.setupBGP(protos.Child("bgp")); err != nil {
			return nil, err
		}
		if err := r.registerTarget(r.BGPRouter, r.bgpTarget); err != nil {
			return nil, fmt.Errorf("rtrmgr: register bgp: %w", err)
		}
	}
	if protos != nil && protos.Child("rip") != nil {
		if err := r.setupRIP(protos.Child("rip")); err != nil {
			return nil, err
		}
		if err := r.registerTarget(r.RIPRouter, r.ripTarget); err != nil {
			return nil, fmt.Errorf("rtrmgr: register rip: %w", err)
		}
	}
	if protos != nil && protos.Child("ospf") != nil {
		if err := r.setupOSPF(protos.Child("ospf")); err != nil {
			return nil, err
		}
		if err := r.registerTarget(r.OSPFRouter, r.ospfTarget); err != nil {
			return nil, fmt.Errorf("rtrmgr: register ospf: %w", err)
		}
	}

	return r, nil
}

func (r *Router) setupBGP(cfg *Node) error {
	asStr := cfg.Leaf("local-as")
	if asStr == "" {
		return fmt.Errorf("rtrmgr: bgp needs local-as")
	}
	as, err := strconv.ParseUint(asStr, 10, 16)
	if err != nil {
		return err
	}
	id, err := cfg.LeafAddr("id")
	if err != nil {
		return err
	}

	// Build into locals; publish the swappable fields under procMu at
	// the end so respawn-time readers never see a half-built process.
	bgpLoop := r.loopFor()
	xr := xipc.NewRouter("bgp_process", bgpLoop)
	xr.AttachHub(r.Hub)

	ms := &xrlMetricSource{stub: xif.NewRIBClient(xr, "rib"), loop: bgpLoop, bgpTarget: "bgp"}
	var metricSrc bgp.MetricSource = ms
	ribClient := newXRLRIBClient(xif.NewRIBClient(xr, "rib"), bgpLoop)
	proc := bgp.NewProcess(bgpLoop, bgp.Config{
		AS:                uint16(as),
		BGPID:             id,
		ListenAddr:        r.opts.BGPListen,
		EnableDamping:     cfg.Child("damping") != nil,
		ConsistencyChecks: r.opts.ConsistencyChecks,
	}, ribClient, metricSrc)

	bgpTarget := xif.NewTarget("bgp", "bgp")
	proc.RegisterXRLs(bgpTarget)
	xif.BindConfig(bgpTarget, &txAgent{r: r, class: "bgp", loop: bgpLoop, bgp: proc})
	xr.AddTarget(bgpTarget)

	// Peers (created on the BGP loop; enabled at Start).
	for _, p := range cfg.ChildrenNamed("peer") {
		pc, err := parsePeerConfig(p, cfg)
		if err != nil {
			return err
		}
		var aerr error
		r.syncDo(bgpLoop, func() { _, aerr = proc.AddPeer(pc) })
		if aerr != nil {
			return aerr
		}
	}

	// Redistribution into BGP, optionally policy-filtered:
	//   bgp { redistribute static policy-name; }
	var redists []string
	for _, rd := range cfg.ChildrenNamed("redistribute") {
		proto, filter, err := r.redistFilter(rd)
		if err != nil {
			return err
		}
		name := "to-bgp-" + proto
		var rerr error
		r.syncDo(r.RIB.Loop(), func() {
			_, rerr = r.RIB.AddRedist(name, filter, directRedist{bgp: proc})
		})
		if rerr != nil {
			return rerr
		}
		redists = append(redists, name)
	}

	r.procMu.Lock()
	r.bgpLoop, r.BGPRouter, r.BGP = bgpLoop, xr, proc
	r.MetricSource, r.bgpTarget, r.bgpRedists = &metricSrc, bgpTarget, redists
	r.procMu.Unlock()
	return nil
}

// parsePeerConfig parses one `peer <name> { ... }` block into a BGP peer
// configuration (shared by assembly and the transactional reload agent).
//
// A `group <name>` leaf joins the peer to a named peer group: members
// share one output branch and a single shared encode per outbound UPDATE.
// A matching top-level `peer-group <name> { ... }` block may supply
// defaults (local-addr, as, holdtime, dial, passive) that the peer block
// inherits where it is silent. bgpCfg is the surrounding bgp block used to
// resolve the group by name; the reload planner instead embeds the
// peer-group block into the change node (the change is the only context
// the agent gets), so bgpCfg may be nil.
func parsePeerConfig(p, bgpCfg *Node) (bgp.PeerConfig, error) {
	var pc bgp.PeerConfig
	group := p.Leaf("group")
	def := p.Child("peer-group") // embedded by the reload planner
	if def == nil && group != "" && bgpCfg != nil {
		def = findPeerGroup(bgpCfg, group)
	}
	if def != nil && group == "" {
		group = def.Arg(0)
	}
	leaf := func(key string) string {
		if v := p.Leaf(key); v != "" {
			return v
		}
		if def != nil {
			return def.Leaf(key)
		}
		return ""
	}
	parseAddr := func(key string) (netip.Addr, error) {
		s := leaf(key)
		if s == "" {
			return netip.Addr{}, fmt.Errorf("rtrmgr: missing %q under %q", key, p.Key)
		}
		return netip.ParseAddr(s)
	}
	localAddr, err := parseAddr("local-addr")
	if err != nil {
		return pc, err
	}
	peerAddr, err := p.LeafAddr("peer-addr")
	if err != nil {
		return pc, err
	}
	peerAS, err := strconv.ParseUint(leaf("as"), 10, 16)
	if err != nil {
		return pc, fmt.Errorf("rtrmgr: peer %s: bad as: %v", p.Key, err)
	}
	holdTime := 90 * time.Second
	if ht := leaf("holdtime"); ht != "" {
		sec, err := strconv.Atoi(ht)
		if err != nil {
			return pc, err
		}
		holdTime = time.Duration(sec) * time.Second
	}
	pc = bgp.PeerConfig{
		Name:      p.Arg(0),
		LocalAddr: localAddr,
		PeerAddr:  peerAddr,
		PeerAS:    uint16(peerAS),
		DialAddr:  leaf("dial"),
		HoldTime:  holdTime,
		Passive:   p.Child("passive") != nil || (def != nil && def.Child("passive") != nil),
		Group:     group,
	}
	if pc.Name == "" {
		pc.Name = "peer-" + peerAddr.String()
	}
	return pc, nil
}

// findPeerGroup returns the `peer-group <name>` block under a bgp config
// node, or nil.
func findPeerGroup(bgpCfg *Node, name string) *Node {
	for _, g := range bgpCfg.ChildrenNamed("peer-group") {
		if g.Arg(0) == name {
			return g
		}
	}
	return nil
}

// parseStaticRoute parses one `route <prefix> [next-hop a] [interface i]
// [metric m]` leaf (shared by assembly and the reload agent).
func parseStaticRoute(rt *Node) (route.Entry, error) {
	if len(rt.Args) < 1 {
		return route.Entry{}, fmt.Errorf("rtrmgr: static route needs a prefix")
	}
	pfx, err := netip.ParsePrefix(rt.Arg(0))
	if err != nil {
		return route.Entry{}, err
	}
	e := route.Entry{Net: pfx}
	for i := 1; i+1 < len(rt.Args); i += 2 {
		switch rt.Args[i] {
		case "next-hop":
			nh, err := netip.ParseAddr(rt.Args[i+1])
			if err != nil {
				return route.Entry{}, err
			}
			e.NextHop = nh
		case "interface":
			e.IfName = rt.Args[i+1]
		case "metric":
			m, err := strconv.ParseUint(rt.Args[i+1], 10, 32)
			if err != nil {
				return route.Entry{}, err
			}
			e.Metric = uint32(m)
		}
	}
	return e, nil
}

// redistFilter builds the RIB redistribution filter for one
// `redistribute <proto> [policy]` statement: the named policy when
// given, a protocol match otherwise.
func (r *Router) redistFilter(rd *Node) (string, rib.RedistFilter, error) {
	proto := rd.Arg(0)
	if polName := rd.Arg(1); polName != "" {
		pol, err := r.compilePolicy(polName)
		if err != nil {
			return proto, nil, err
		}
		return proto, policy.RIBRedistFilter(pol), nil
	}
	want, err := route.ParseProtocol(proto)
	if err != nil {
		return proto, nil, err
	}
	return proto, func(e route.Entry) *route.Entry {
		if e.Protocol != want {
			return nil
		}
		return &e
	}, nil
}

// compilePolicy finds `policy <name> { ... }` in the config and compiles
// its body.
func (r *Router) compilePolicy(name string) (*policy.Policy, error) {
	for _, p := range r.Config.ChildrenNamed("policy") {
		if p.Arg(0) == name {
			return policy.Compile(name, Render(p, 0))
		}
	}
	return nil, fmt.Errorf("rtrmgr: no policy %q", name)
}

func (r *Router) setupRIP(cfg *Node) error {
	if r.opts.Network == nil || !r.opts.LocalAddr.IsValid() {
		return fmt.Errorf("rtrmgr: rip requires Options.Network and LocalAddr")
	}
	ripLoop := r.loopFor()
	// RIP feeds the RIB through a direct adapter, but it still registers
	// a Finder target: lifetime events are what drive the RIB's stale-
	// route retention and the supervisor's respawn on its death.
	xr := xipc.NewRouter("rip_process", ripLoop)
	xr.AttachHub(r.Hub)
	tgt := xif.NewTarget("rip", "rip")
	xr.AddTarget(tgt)
	tr := &rip.FEATransport{
		BindFn: func(port uint16, recv func(src netip.AddrPort, payload []byte)) error {
			// Receive on the FEA, hop to the RIP loop.
			return r.FEA.UDPBind(port, "rip", func(src netip.AddrPort, payload []byte) {
				ripLoop.Dispatch(func() { recv(src, payload) })
			})
		},
		SendFn:      r.FEA.UDPSend,
		BroadcastFn: r.FEA.UDPBroadcast,
	}
	rcfg := rip.Config{LocalAddr: r.opts.LocalAddr, IfName: "eth0"}
	if v := cfg.Leaf("update-interval"); v != "" {
		sec, err := strconv.Atoi(v)
		if err != nil {
			return err
		}
		rcfg.UpdateInterval = time.Duration(sec) * time.Second
	}
	proc := rip.NewProcess(ripLoop, rcfg, tr, ribLoopClient{r.RIB, route.ProtoRIP})
	xif.BindConfig(tgt, &txAgent{r: r, class: "rip", loop: ripLoop, rip: proc})
	r.procMu.Lock()
	r.ripLoop, r.RIPRouter, r.RIP, r.ripTarget = ripLoop, xr, proc, tgt
	r.procMu.Unlock()
	return nil
}

// setupOSPF assembles the OSPF process:
//
//	protocols {
//	    ospf { router-id 10.0.0.1; hello-interval 10; dead-interval 40;
//	           cost 1; export pol-name; redistribute static [pol-name]; }
//	}
//
// Connected interface prefixes are originated as stub networks at
// Start; `export` applies a policy to SPF routes entering the RIB;
// `redistribute` splices a RIB redist stage feeding OSPF externals.
func (r *Router) setupOSPF(cfg *Node) error {
	if r.opts.Network == nil || !r.opts.LocalAddr.IsValid() {
		return fmt.Errorf("rtrmgr: ospf requires Options.Network and LocalAddr")
	}
	ospfLoop := r.loopFor()
	// Finder presence for lifetime events, as for RIP above.
	xr := xipc.NewRouter("ospf_process", ospfLoop)
	xr.AttachHub(r.Hub)
	tgt := xif.NewTarget("ospf", "ospf")
	xr.AddTarget(tgt)
	tr := &ospf.FEATransport{
		BindFn: func(group netip.Addr, port uint16, recv func(src netip.AddrPort, payload []byte)) error {
			if err := r.FEA.UDPJoinGroup(group); err != nil {
				return err
			}
			// Receive on the FEA, hop to the OSPF loop.
			return r.FEA.UDPBind(port, "ospf", func(src netip.AddrPort, payload []byte) {
				ospfLoop.Dispatch(func() { recv(src, payload) })
			})
		},
		SendFn: r.FEA.UDPSend,
	}
	ocfg := ospf.Config{LocalAddr: r.opts.LocalAddr, IfName: "eth0"}
	if v := cfg.Leaf("router-id"); v != "" {
		id, err := netip.ParseAddr(v)
		if err != nil {
			return err
		}
		ocfg.RouterID = id
	}
	for key, dst := range map[string]*time.Duration{
		"hello-interval": &ocfg.HelloInterval,
		"dead-interval":  &ocfg.DeadInterval,
	} {
		if v := cfg.Leaf(key); v != "" {
			sec, err := strconv.Atoi(v)
			if err != nil {
				return err
			}
			*dst = time.Duration(sec) * time.Second
		}
	}
	if v := cfg.Leaf("cost"); v != "" {
		c, err := strconv.ParseUint(v, 10, 16)
		if err != nil {
			return err
		}
		ocfg.Cost = uint16(c)
	}
	proc := ospf.NewProcess(ospfLoop, ocfg, tr, ribLoopClient{r.RIB, route.ProtoOSPF})
	xif.BindConfig(tgt, &txAgent{r: r, class: "ospf", loop: ospfLoop, ospf: proc})

	if polName := cfg.Leaf("export"); polName != "" {
		pol, err := r.compilePolicy(polName)
		if err != nil {
			return err
		}
		filter := policy.OSPFExportFilter(pol)
		r.syncDo(ospfLoop, func() { proc.SetExportFilter(filter) })
	}

	// Redistribution into OSPF, optionally policy-filtered:
	//   ospf { redistribute static policy-name; }
	var redists []string
	for _, rd := range cfg.ChildrenNamed("redistribute") {
		proto, filter, err := r.redistFilter(rd)
		if err != nil {
			return err
		}
		out := ospfRedistAdapter{loop: ospfLoop, p: proc}
		name := "to-ospf-" + proto
		var rerr error
		r.syncDo(r.RIB.Loop(), func() {
			_, rerr = r.RIB.AddRedist(name, filter, out)
		})
		if rerr != nil {
			return rerr
		}
		redists = append(redists, name)
	}

	r.procMu.Lock()
	r.ospfLoop, r.OSPFRouter, r.OSPF = ospfLoop, xr, proc
	r.ospfTarget, r.ospfRedists = tgt, redists
	r.procMu.Unlock()
	return nil
}

// ribLoopClient feeds an in-process IGP's runs into the RIB's origin
// table for proto, hopping onto the RIB loop: rip.RIBClient and
// ospf.RIBClient for this assembly, where the IGPs and the RIB share
// fate (the XRL path is NewXRLRouteClient, exercised by cmd/xorp_ospf
// and cmd/xorp_rip in multi-process deployments).
type ribLoopClient struct {
	rib   *rib.Process
	proto route.Protocol
}

func (a ribLoopClient) AddRoutes(es []route.Entry) {
	es = slices.Clone(es) // crossing loops: the caller's slice is valid for the call only
	a.rib.Loop().Dispatch(func() { a.rib.AddRoutes(a.proto, es) })
}

func (a ribLoopClient) DeleteRoutes(nets []netip.Prefix) {
	nets = slices.Clone(nets)
	a.rib.Loop().Dispatch(func() { a.rib.DeleteRoutes(a.proto, nets) })
}

// ospfRedistAdapter hops rib.Redistributor callbacks (which arrive on
// the RIB loop) onto the OSPF loop.
type ospfRedistAdapter struct {
	loop *eventloop.Loop
	p    *ospf.Process
}

func (a ospfRedistAdapter) RedistAdd(e route.Entry) {
	a.loop.Dispatch(func() { a.p.RedistAdd(e) })
}

func (a ospfRedistAdapter) RedistDelete(e route.Entry) {
	a.loop.Dispatch(func() { a.p.RedistDelete(e) })
}

// Start enables protocol sessions (loops already run in real-clock mode;
// simulated assemblies are driven with SettleAll / the loops directly).
func (r *Router) Start() error {
	if r.running {
		return nil
	}
	r.running = true
	// Snapshot the process pointers: the closures below run later on
	// the protocol loops, possibly after a supervisor teardown nils the
	// fields.
	if bgpProc := r.BGP; bgpProc != nil {
		if err := bgpProc.Listen(); err != nil {
			return err
		}
		protos := r.Config.Child("protocols")
		for _, p := range protos.Child("bgp").ChildrenNamed("peer") {
			name := p.Arg(0)
			if name == "" {
				name = "peer-" + p.Leaf("peer-addr")
			}
			bgpProc.Loop().Dispatch(func() { bgpProc.EnablePeer(name) })
		}
	}
	if ripProc := r.RIP; ripProc != nil {
		var err error
		r.syncDo(r.ripLoop, func() { err = ripProc.Start() })
		if err != nil {
			return err
		}
	}
	if ospfProc := r.OSPF; ospfProc != nil {
		ifaces := r.FIB.Interfaces()
		var err error
		r.syncDo(r.ospfLoop, func() {
			if err = ospfProc.Start(); err != nil {
				return
			}
			// Connected networks become stub prefixes.
			for _, ifc := range ifaces {
				ospfProc.OriginatePrefix(ifc.Addr.Masked(), 1)
			}
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// Stop shuts everything down. Snapshot the swappable process fields
// under procMu: the supervisor may have replaced them since Start.
func (r *Router) Stop() {
	r.procMu.Lock()
	bgpProc, ripProc, ospfProc := r.BGP, r.RIP, r.OSPF
	ripLoop, ospfLoop := r.ripLoop, r.ospfLoop
	loops := append([]*eventloop.Loop(nil), r.loops...)
	r.procMu.Unlock()
	if bgpProc != nil && !r.simulated() {
		bgpProc.Loop().DispatchAndWait(bgpProc.Close)
	}
	// Protocol timers are loop-owned state: cancel them on their own
	// loops (real-clock loops are still running here).
	if ripProc != nil {
		if r.simulated() {
			ripProc.Stop()
		} else {
			ripLoop.DispatchAndWait(ripProc.Stop)
		}
	}
	if ospfProc != nil {
		if r.simulated() {
			ospfProc.Stop()
		} else {
			ospfLoop.DispatchAndWait(ospfProc.Stop)
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
