package rtrmgr

import (
	"fmt"
	"net/netip"
	"strconv"
	"strings"
	"time"

	"xorp/internal/bgp"
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
	{class: "bgp", setup: setupBGP, identity: []string{"local-as", "id", "damping"}},
	{class: "rip", setup: setupRIP},
	{class: "ospf", setup: setupOSPF, identity: []string{"router-id"}},
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
//	      peer p1 { local-addr ...; peer-addr ...; as 65002; dial host:port; group g; } }

type bgpProc struct{ *bgp.Process }

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
	}, NewXRLRIBClient(inst.router, "rib"), NewXRLMetricSource(inst.router, "rib", inst.class))
	p.RegisterXRLs(inst.target)
	return bgpProc{p}, nil
}

func (p bgpProc) begin(cfg *Node) error {
	if err := p.Listen(); err != nil {
		return err
	}
	for _, pn := range cfg.ChildrenNamed("peer") {
		p.EnablePeer(pn.Arg(0))
	}
	return nil
}

func (p bgpProc) close() { p.Close() }

// parsePeerConfig parses one `peer <name> { ... }` block into a BGP peer
// configuration.
//
// A `group <name>` leaf joins the peer to a named peer group: members
// share one output branch and a single shared encode per outbound UPDATE.
// The group's `peer-group <name> { ... }` block, which the planner embeds
// in the peer's change (embedGroup: the change is the only context the
// agent gets), supplies defaults (local-addr, as, holdtime, dial,
// passive) that the peer block inherits where it is silent.
func parsePeerConfig(p *Node) (bgp.PeerConfig, error) {
	var pc bgp.PeerConfig
	def := p.Child("peer-group")
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
		Name:      p.Arg(0),
		LocalAddr: localAddr,
		PeerAddr:  peerAddr,
		PeerAS:    uint16(peerAS),
		DialAddr:  leaf("dial"),
		HoldTime:  holdTime,
		Passive:   p.Child("passive") != nil || (def != nil && def.Child("passive") != nil),
		Group:     p.Leaf("group"),
	}, nil
}

// stage: per-peer add/remove/rebuild. A peer group's add is no step of
// its own: its members' changes carry the block embedded.
func (p bgpProc) stage(a *txAgent, c Change) ([]txStep, string, error) {
	unit := c.Path[2]
	switch {
	case strings.HasPrefix(unit, "peer "):
		return p.stagePeer(a, c)
	case c.Verb == ChangeAdd && c.New.Key == "peer-group":
		return nil, "", nil
	}
	return nil, fmt.Sprintf("unsupported BGP change %q", unit), nil
}

func (p bgpProc) stagePeer(a *txAgent, c Change) ([]txStep, string, error) {
	var steps []txStep
	if c.Old != nil {
		pc, err := parsePeerConfig(c.Old)
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
		pc, err := parsePeerConfig(c.New)
		if err != nil {
			return nil, "", err
		}
		if c.Old == nil {
			if _, dup := p.Peer(pc.Name); dup {
				return nil, fmt.Sprintf("peer %q already exists", pc.Name), nil
			}
		}
		// An instance not yet live (boot, respawn) leaves its peers to begin.
		enable := a.r.current(a.class) == a.inst && a.r.running
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
//	rip { update-interval 30; timeout 180; gc-time 120; triggered-delay 1; }

type ripProc struct{ *rip.Process }

func setupRIP(r *Router, inst *instance, _ *Node) (proc, error) {
	if r.opts.Network == nil || !r.opts.LocalAddr.IsValid() {
		return nil, fmt.Errorf("rtrmgr: rip requires Options.Network and LocalAddr")
	}
	p := rip.NewProcess(inst.loop, rip.Config{LocalAddr: r.opts.LocalAddr, IfName: "eth0"},
		NewXRLRIPTransport(inst.router, inst.target, "fea"), NewXRLRouteClient(inst.router, "rib", route.ProtoRIP))
	xif.BindRedist4(inst.target, p)
	return ripProc{p}, nil
}

func (p ripProc) begin(*Node) error { return p.Start() }

func (p ripProc) close() { p.Stop() }

// stage: timer retunes.
func (p ripProc) stage(a *txAgent, c Change) ([]txStep, string, error) {
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
//	       cost 1; export pol-name; }
//
// The running config's interface prefixes are originated as stub
// networks by begin; `export` applies a policy to SPF routes entering
// the RIB.

type ospfProc struct {
	*ospf.Process
	r *Router
}

func setupOSPF(r *Router, inst *instance, cfg *Node) (proc, error) {
	if r.opts.Network == nil || !r.opts.LocalAddr.IsValid() {
		return nil, fmt.Errorf("rtrmgr: ospf requires Options.Network and LocalAddr")
	}
	ocfg := ospf.Config{LocalAddr: r.opts.LocalAddr, IfName: "eth0"}
	if v := cfg.Leaf("router-id"); v != "" {
		var err error
		if ocfg.RouterID, err = netip.ParseAddr(v); err != nil {
			return nil, err
		}
	}
	p := ospf.NewProcess(inst.loop, ocfg, NewXRLOSPFTransport(inst.router, inst.target, "fea"),
		NewXRLRouteClient(inst.router, "rib", route.ProtoOSPF))
	xif.BindRedist4(inst.target, p)
	return ospfProc{p, r}, nil
}

// parseCost parses an OSPF link cost, 1 to 65535.
func parseCost(v string) (uint16, error) {
	c, err := strconv.ParseUint(v, 10, 16)
	if err != nil || c < 1 {
		return 0, fmt.Errorf("bad cost %q: want 1 to 65535", v)
	}
	return uint16(c), nil
}

func (p ospfProc) begin(*Node) error {
	if err := p.Start(); err != nil {
		return err
	}
	// Connected networks become stub prefixes.
	for _, ifn := range p.r.runningConfig().ChildrenNamed("interfaces") {
		for _, ifc := range ifn.Children {
			if pfx, _, err := parseInterface(ifc); err == nil {
				p.OriginatePrefix(pfx.Masked(), 1)
			}
		}
	}
	return nil
}

func (p ospfProc) close() { p.Stop() }

// stage: timer/cost retunes and export filter swaps.
func (p ospfProc) stage(a *txAgent, c Change) ([]txStep, string, error) {
	unit := c.Path[2]
	switch unit {
	case "export":
		if c.Verb == ChangeRemove {
			return []txStep{{
				desc:  "clear export filter",
				apply: func() error { p.SetExportFilter(nil); return nil },
			}}, "", nil
		}
		polName := c.New.Arg(0)
		pol, err := compilePolicy(c.New, polName)
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

// seconds parses a whole number of seconds, at least 1.
func seconds(v string) (time.Duration, error) {
	sec, err := strconv.Atoi(v)
	if err != nil || sec < 1 {
		return 0, fmt.Errorf("bad duration %q: want a whole number of seconds, at least 1", v)
	}
	return time.Duration(sec) * time.Second, nil
}
