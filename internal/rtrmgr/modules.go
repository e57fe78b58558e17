package rtrmgr

import (
	"fmt"
	"net/netip"
	"strconv"
	"strings"
	"time"

	"xorp/internal/bgp"
	"xorp/internal/eventloop"
	"xorp/internal/ospf"
	"xorp/internal/policy"
	"xorp/internal/rip"
	"xorp/internal/route"
	"xorp/internal/xif"
)

// modules is the table of process classes NewRouter assembles, in start
// and commit order. Everything the router manager knows about a protocol
// is in this file: one descriptor, one row here, and a proc.
var modules = []*module{
	{class: "bgp", setup: setupBGP},
	{class: "rip", setup: setupRIP},
	{class: "ospf", setup: setupOSPF},
}

// procOf returns inst's process as the wrapper type T, the zero T (whose
// embedded process pointer is nil) for a nil instance.
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

// CurrentRIP returns the live RIP process, nil while dead.
func (r *Router) CurrentRIP() *rip.Process { return procOf[ripProc](r.current("rip")).Process }

// CurrentOSPF returns the live OSPF process, nil while dead.
func (r *Router) CurrentOSPF() *ospf.Process { return procOf[ospfProc](r.current("ospf")).Process }

// --- BGP:
//
//	bgp { local-as 65001; id 10.0.0.1; damping { }
//	      peer-group g { local-addr ...; as ...; }
//	      peer p1 { local-addr ...; peer-addr ...; as 65002; dial host:port; group g; }
//	      redistribute static policy-name; }

type bgpProc struct {
	*bgp.Process
	r   *Router
	out loopRedist // redistribution into BGP: originate and withdraw
}

func setupBGP(r *Router, inst *instance, cfg *Node) (proc, error) {
	asStr := cfg.Leaf("local-as")
	if asStr == "" {
		return nil, fmt.Errorf("rtrmgr: bgp needs local-as")
	}
	as, err := strconv.ParseUint(asStr, 10, 16)
	if err != nil {
		return nil, err
	}
	id, err := cfg.LeafAddr("id")
	if err != nil {
		return nil, err
	}
	p := bgp.NewProcess(inst.loop, bgp.Config{
		AS:                uint16(as),
		BGPID:             id,
		ListenAddr:        r.opts.BGPListen,
		EnableDamping:     cfg.Child("damping") != nil,
		ConsistencyChecks: r.opts.ConsistencyChecks,
	}, newXRLRIBClient(xif.NewRIBClient(inst.router, "rib"), inst.loop),
		&xrlMetricSource{stub: xif.NewRIBClient(inst.router, "rib"), loop: inst.loop, bgpTarget: inst.class})
	p.RegisterXRLs(inst.target)

	// Peers (created on the BGP loop; enabled by begin).
	for _, pn := range cfg.ChildrenNamed("peer") {
		pc, err := parsePeerConfig(pn, cfg)
		if err != nil {
			return nil, err
		}
		r.syncDo(inst.loop, func() { _, err = p.AddPeer(pc) })
		if err != nil {
			return nil, err
		}
	}
	out := loopRedist{inst, func(e route.Entry) {
		nh := e.NextHop
		if !nh.IsValid() {
			nh = netip.IPv4Unspecified()
		}
		p.Originate(e.Net, nh, e.Metric)
	}, func(e route.Entry) { p.WithdrawOriginated(e.Net) }}
	return bgpProc{p, r, out}, r.spliceRedists(inst, cfg, out)
}

func (p bgpProc) begin(cfg *Node) error {
	if err := p.Listen(); err != nil {
		return err
	}
	for _, pn := range cfg.ChildrenNamed("peer") {
		p.EnablePeer(peerName(pn))
	}
	return nil
}

func (p bgpProc) close() { p.Close() }

// peerName is a peer block's name: its argument, or peer-<addr>.
func peerName(pn *Node) string {
	if name := pn.Arg(0); name != "" {
		return name
	}
	return "peer-" + pn.Leaf("peer-addr")
}

// parsePeerConfig parses one `peer <name> { ... }` block into a BGP peer
// configuration (shared by assembly and the transactional reload agent).
//
// A `group <name>` leaf joins the peer to a named peer group: members
// share one output branch and a single shared encode per outbound UPDATE.
// A matching `peer-group <name> { ... }` block may supply defaults
// (local-addr, as, holdtime, dial, passive) that the peer block inherits
// where it is silent. bgpCfg is the surrounding bgp block used to resolve
// the group by name; the reload planner instead embeds the peer-group
// block into the change node (the change is the only context the agent
// gets), so bgpCfg may be nil.
func parsePeerConfig(p, bgpCfg *Node) (bgp.PeerConfig, error) {
	var pc bgp.PeerConfig
	group := p.Leaf("group")
	def := p.Child("peer-group") // embedded by the reload planner
	if def == nil && group != "" && bgpCfg != nil {
		def = findBlock(bgpCfg, "peer-group", group)
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
		if holdTime, err = seconds(ht); err != nil {
			return pc, err
		}
	}
	return bgp.PeerConfig{
		Name:      peerName(p),
		LocalAddr: localAddr,
		PeerAddr:  peerAddr,
		PeerAS:    uint16(peerAS),
		DialAddr:  leaf("dial"),
		HoldTime:  holdTime,
		Passive:   p.Child("passive") != nil || (def != nil && def.Child("passive") != nil),
		Group:     group,
	}, nil
}

// stage: per-peer add/remove/rebuild and redistribution filter swaps.
// Everything else under the bgp block is identity (local-as, id) and
// needs a restart.
func (p bgpProc) stage(a *txAgent, c Change) ([]txStep, string, error) {
	if len(c.Path) < 3 {
		return nil, "unsupported BGP change", nil
	}
	unit := c.Path[2]
	switch {
	case unit == "local-as" || unit == "id":
		return nil, "changing the BGP identity requires a restart", nil
	case unit == "damping":
		return nil, "toggling damping requires a restart", nil
	case strings.HasPrefix(unit, "peer "):
		return p.stagePeer(c)
	case strings.HasPrefix(unit, "redistribute"):
		return a.stageRedist(c, p.out)
	}
	return nil, fmt.Sprintf("unsupported BGP change %q", unit), nil
}

func (p bgpProc) stagePeer(c Change) ([]txStep, string, error) {
	var steps []txStep
	if c.Old != nil {
		pc, err := parsePeerConfig(c.Old, nil)
		if err != nil {
			return nil, "", err
		}
		if _, ok := p.Peer(pc.Name); !ok {
			return nil, fmt.Sprintf("no peer %q", pc.Name), nil
		}
		name := pc.Name
		steps = append(steps, txStep{
			desc:  "remove peer " + name,
			apply: func() error { return p.RemovePeer(name) },
		})
	}
	if c.New != nil {
		pc, err := parsePeerConfig(c.New, nil)
		if err != nil {
			return nil, "", err
		}
		if c.Old == nil {
			if _, dup := p.Peer(pc.Name); dup {
				return nil, fmt.Sprintf("peer %q already exists", pc.Name), nil
			}
		}
		enable := p.r.running
		steps = append(steps, txStep{
			desc: "add peer " + pc.Name,
			apply: func() error {
				if _, err := p.AddPeer(pc); err != nil {
					return err
				}
				if enable {
					return p.EnablePeer(pc.Name)
				}
				return nil
			},
		})
	}
	return steps, "", nil
}

// --- RIP (needs Options.Network and LocalAddr):
//
//	rip { update-interval 30; timeout 180; gc-time 120; triggered-delay 1;
//	      redistribute static [pol-name]; }
//
// `redistribute` splices a RIB redist stage feeding RIP local routes,
// advertised at the redistributed route's metric.

type ripProc struct {
	*rip.Process
	out loopRedist // redistribution into RIP: local routes
}

func setupRIP(r *Router, inst *instance, cfg *Node) (proc, error) {
	if r.opts.Network == nil || !r.opts.LocalAddr.IsValid() {
		return nil, fmt.Errorf("rtrmgr: rip requires Options.Network and LocalAddr")
	}
	tr := &rip.FEATransport{
		BindFn: func(port uint16, recv func(src netip.AddrPort, payload []byte)) error {
			return r.FEA.UDPBind(port, inst.class, onLoop(inst.loop, recv))
		},
		SendFn:      r.FEA.UDPSend,
		BroadcastFn: r.FEA.UDPBroadcast,
	}
	rcfg := rip.Config{LocalAddr: r.opts.LocalAddr, IfName: "eth0"}
	if v := cfg.Leaf("update-interval"); v != "" {
		var err error
		if rcfg.UpdateInterval, err = seconds(v); err != nil {
			return nil, err
		}
	}
	// RIP feeds the RIB through a direct adapter, but its instance still
	// has a Finder target: lifetime events are what drive the RIB's stale-
	// route retention and the supervisor's respawn on its death.
	p := rip.NewProcess(inst.loop, rcfg, tr, ribLoopClient{r.RIB, route.ProtoRIP, inst})
	out := loopRedist{inst, p.RedistAdd, p.RedistDelete}
	return ripProc{p, out}, r.spliceRedists(inst, cfg, out)
}

// onLoop wraps an FEA receive callback (which runs on the FEA's loop) so
// recv runs on the protocol's.
func onLoop(loop *eventloop.Loop, recv func(src netip.AddrPort, payload []byte)) func(netip.AddrPort, []byte) {
	return func(src netip.AddrPort, payload []byte) {
		loop.Dispatch(func() { recv(src, payload) })
	}
}

func (p ripProc) begin(*Node) error { return p.Start() }

func (p ripProc) close() { p.Stop() }

// stage: timer retunes and redistribution.
func (p ripProc) stage(a *txAgent, c Change) ([]txStep, string, error) {
	if len(c.Path) < 3 {
		return nil, "unsupported RIP change", nil
	}
	if strings.HasPrefix(c.Path[2], "redistribute") {
		return a.stageRedist(c, p.out)
	}
	if c.Verb == ChangeRemove {
		return nil, "removing a RIP timer requires a restart", nil
	}
	dur, err := seconds(c.New.Arg(0))
	if err != nil {
		return nil, "", err
	}
	var delta rip.Config
	switch c.Path[2] {
	case "update-interval":
		delta.UpdateInterval = dur
	case "timeout":
		delta.Timeout = dur
	case "gc-time":
		delta.GCTime = dur
	case "triggered-delay":
		delta.TriggeredDelay = dur
	default:
		return nil, fmt.Sprintf("unsupported RIP change %q", c.Path[2]), nil
	}
	return []txStep{{
		desc:  "retune " + c.Path[2],
		apply: func() error { p.Retune(delta); return nil },
	}}, "", nil
}

// --- OSPF (needs Options.Network and LocalAddr):
//
//	ospf { router-id 10.0.0.1; hello-interval 10; dead-interval 40;
//	       cost 1; export pol-name; redistribute static [pol-name]; }
//
// Connected interface prefixes are originated as stub networks by begin;
// `export` applies a policy to SPF routes entering the RIB;
// `redistribute` splices a RIB redist stage feeding OSPF externals.

type ospfProc struct {
	*ospf.Process
	r   *Router
	out loopRedist // redistribution into OSPF: externals
}

func setupOSPF(r *Router, inst *instance, cfg *Node) (proc, error) {
	if r.opts.Network == nil || !r.opts.LocalAddr.IsValid() {
		return nil, fmt.Errorf("rtrmgr: ospf requires Options.Network and LocalAddr")
	}
	tr := &ospf.FEATransport{
		BindFn: func(group netip.Addr, port uint16, recv func(src netip.AddrPort, payload []byte)) error {
			if err := r.FEA.UDPJoinGroup(group); err != nil {
				return err
			}
			return r.FEA.UDPBind(port, inst.class, onLoop(inst.loop, recv))
		},
		SendFn: r.FEA.UDPSend,
	}
	ocfg := ospf.Config{LocalAddr: r.opts.LocalAddr, IfName: "eth0"}
	var err error
	if v := cfg.Leaf("router-id"); v != "" {
		if ocfg.RouterID, err = netip.ParseAddr(v); err != nil {
			return nil, err
		}
	}
	for key, dst := range map[string]*time.Duration{
		"hello-interval": &ocfg.HelloInterval,
		"dead-interval":  &ocfg.DeadInterval,
	} {
		if v := cfg.Leaf(key); v != "" {
			if *dst, err = seconds(v); err != nil {
				return nil, err
			}
		}
	}
	if v := cfg.Leaf("cost"); v != "" {
		if ocfg.Cost, err = parseCost(v); err != nil {
			return nil, err
		}
	}
	p := ospf.NewProcess(inst.loop, ocfg, tr, ribLoopClient{r.RIB, route.ProtoOSPF, inst})
	if ex := cfg.Child("export"); ex != nil && ex.Arg(0) != "" {
		pol, err := r.compilePolicy(ex, ex.Arg(0))
		if err != nil {
			return nil, err
		}
		r.syncDo(inst.loop, func() { p.SetExportFilter(policy.OSPFExportFilter(pol)) })
	}
	out := loopRedist{inst, p.RedistAdd, p.RedistDelete}
	return ospfProc{p, r, out}, r.spliceRedists(inst, cfg, out)
}

func parseCost(v string) (uint16, error) {
	c, err := strconv.ParseUint(v, 10, 16)
	return uint16(c), err
}

func (p ospfProc) begin(*Node) error {
	if err := p.Start(); err != nil {
		return err
	}
	// Connected networks become stub prefixes.
	for _, ifc := range p.r.FIB.Interfaces() {
		p.OriginatePrefix(ifc.Addr.Masked(), 1)
	}
	return nil
}

func (p ospfProc) close() { p.Stop() }

// stage: timer/cost retunes, export filter swaps and redistribution.
func (p ospfProc) stage(a *txAgent, c Change) ([]txStep, string, error) {
	if len(c.Path) < 3 {
		return nil, "unsupported OSPF change", nil
	}
	unit := c.Path[2]
	if strings.HasPrefix(unit, "redistribute") {
		return a.stageRedist(c, p.out)
	}
	switch unit {
	case "router-id":
		return nil, "changing the OSPF router id requires a restart", nil
	case "export":
		if c.Verb == ChangeRemove {
			return []txStep{{
				desc:  "clear export filter",
				apply: func() error { p.SetExportFilter(nil); return nil },
			}}, "", nil
		}
		polName := c.New.Arg(0)
		pol, err := a.r.compilePolicy(c.New, polName)
		if err != nil {
			return nil, "", err
		}
		filter := policy.OSPFExportFilter(pol)
		return []txStep{{
			desc:  "swap export filter " + polName,
			apply: func() error { p.SetExportFilter(filter); return nil },
		}}, "", nil
	case "hello-interval", "dead-interval", "cost":
		if c.Verb == ChangeRemove {
			return nil, "removing an OSPF timer requires a restart", nil
		}
		var (
			hello, dead time.Duration
			cost        uint16
			err         error
		)
		switch unit {
		case "cost":
			cost, err = parseCost(c.New.Arg(0))
		case "hello-interval":
			hello, err = seconds(c.New.Arg(0))
		case "dead-interval":
			dead, err = seconds(c.New.Arg(0))
		}
		if err != nil {
			return nil, "", err
		}
		return []txStep{{
			desc:  "retune " + unit,
			apply: func() error { p.Retune(hello, dead, cost); return nil },
		}}, "", nil
	}
	return nil, fmt.Sprintf("unsupported OSPF change %q", unit), nil
}

// seconds parses a whole number of seconds.
func seconds(v string) (time.Duration, error) {
	sec, err := strconv.Atoi(v)
	if err != nil {
		return 0, fmt.Errorf("bad duration %q: %v", v, err)
	}
	return time.Duration(sec) * time.Second, nil
}
