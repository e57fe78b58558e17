package rtrmgr

import (
	"errors"
	"fmt"
	"net/netip"
	"strconv"
	"strings"
	"time"

	"xorp/internal/bgp"
	"xorp/internal/fea"
	"xorp/internal/kernel"
	"xorp/internal/ospf"
	"xorp/internal/policy"
	"xorp/internal/rib"
	"xorp/internal/rip"
	"xorp/internal/route"
	"xorp/internal/xif"
	"xorp/internal/xipc"
)

// modules is the table of process classes NewRouter assembles, in start
// and commit order. Everything the router manager knows about a process
// is in this file: one descriptor, one row here, and a proc. A setup, a
// stage and a begin see their instance, the deployment and their slice
// of the plan, nothing else: a process is built the same way inside a
// router and alone (StartProcess).
var modules = []*module{
	{class: "bgp", setup: setupBGP, identity: []string{"local-as", "id", "damping"}},
	{class: "rip", setup: setupRIP},
	{class: "ospf", setup: setupOSPF, identity: []string{"router-id"}, sections: []string{"interfaces"}},
}

// The FEA and the RIB are built by the same path as a row of the table,
// but every router has them and nothing supervises them (ROADMAP item
// 22), so they are no rows of it.
var (
	feaModule = &module{class: "fea", setup: setupFEA, sections: []string{"interfaces"}}
	ribModule = &module{class: "rib", setup: setupRIB, sections: []string{"interfaces", "static"}, watch: true}
)

// --- FEA: the kernel FIB and the packet relay.

type feaProc struct{ *fea.Process }

func setupFEA(d *deployment, inst *instance, _ *Node) (proc, error) {
	p := fea.New(inst.loop, kernel.NewFIB(), d.host, inst.router)
	p.RegisterXRLs(inst.target)
	return feaProc{p}, nil
}

func (feaProc) begin(*Node) error { return nil }

func (feaProc) close() {}

// stage: interface additions only.
func (p feaProc) stage(c Change) ([]txStep, string, error) {
	name, pfx, mtu, err := interfaceAdd(c)
	if err != nil {
		return nil, "", err
	}
	return []txStep{{
		desc:  "add interface " + name,
		apply: func() error { p.FIB().AddInterface(name, pfx, mtu); return nil },
	}}, "", nil
}

// interfaceAdd parses an `interfaces` change, which may only add:
// removing or renumbering a live interface strands connected routes and
// bound sockets — restart.
func interfaceAdd(c Change) (name string, pfx netip.Prefix, mtu int, err error) {
	if len(c.Path) < 2 || c.Path[0] != "interfaces" {
		return "", pfx, 0, errors.New("unsupported interfaces change")
	}
	if c.Verb != ChangeAdd {
		return "", pfx, 0, errors.New("interface removal or renumbering requires a restart")
	}
	pfx, mtu, err = parseInterface(c.New)
	return c.New.Key, pfx, mtu, err
}

// parseInterface parses one `<name> { address <addr>/<len>; [mtu <n>;] }`
// block.
func parseInterface(ifn *Node) (pfx netip.Prefix, mtu int, err error) {
	addr := ifn.Leaf("address")
	if addr == "" {
		return pfx, 0, fmt.Errorf("rtrmgr: interface %s has no address", ifn.Key)
	}
	if pfx, err = netip.ParsePrefix(addr); err != nil {
		return pfx, 0, fmt.Errorf("rtrmgr: interface %s: %v", ifn.Key, err)
	}
	mtu = 1500
	if m := ifn.Leaf("mtu"); m != "" {
		mtu, err = strconv.Atoi(m)
	}
	return pfx, mtu, err
}

// --- RIB: connected routes, static routes and redistribution, forwarded
// to the FEA over fti XRLs. It watches every class's lifetime: a
// protocol's death marks its routes stale instead of stranding them
// (rib/graceful.go), and ties a redist stage to its subscriber.

type ribProc struct {
	*rib.Process
	router *xipc.Router // sends the redist stages' redist4/0.1 XRLs
}

func setupRIB(_ *deployment, inst *instance, _ *Node) (proc, error) {
	p := rib.NewProcess(inst.loop, &xrlFIBClient{stub: xif.NewFTIClient(inst.router, "fea")}, inst.router)
	p.RegisterXRLs(inst.target)
	inst.router.SetFinderEvent(p.HandleFinderEvent)
	return ribProc{p, inst.router}, nil
}

func (ribProc) begin(*Node) error { return nil }

func (ribProc) close() {}

func (p ribProc) stage(c Change) ([]txStep, string, error) {
	switch {
	case c.Path[0] == "interfaces":
		name, pfx, _, err := interfaceAdd(c)
		if err != nil {
			return nil, "", err
		}
		e := route.Entry{Net: pfx.Masked(), IfName: name}
		return []txStep{{
			desc:  "add connected " + e.Net.String(),
			apply: func() error { return p.AddRoute(route.ProtoConnected, e) },
		}}, "", nil
	case len(c.Path) == 3 && c.Path[0] == "protocols" && owner(c.Path[2], c.Path[1]) == "rib":
		return p.stageRedist(c)
	case c.Path[0] != "static":
		return nil, "unsupported RIB change", nil
	}
	var steps []txStep
	if c.Old != nil { // remove (or the removal half of a modify)
		e, err := parseStaticRoute(c.Old)
		if err != nil {
			return nil, "", err
		}
		steps = append(steps, txStep{
			desc:  "delete static " + e.Net.String(),
			apply: func() error { return p.DeleteRoute(route.ProtoStatic, e.Net) },
		})
	}
	if c.New != nil { // add
		e, err := parseStaticRoute(c.New)
		if err != nil {
			return nil, "", err
		}
		steps = append(steps, txStep{
			desc:  "add static " + e.Net.String(),
			apply: func() error { return p.AddRoute(route.ProtoStatic, e) },
		})
	}
	return steps, "", nil
}

// stageRedist handles a `protocols <class> { redistribute <proto>
// [policy]; }` statement: add splices a fresh redist stage feeding the
// class over redist4/0.1 XRLs from the RIB's router, tied to the class's
// Finder lifetime; remove unsplices it and withdraws what it fed; and the
// synthetic policy-edit modify swaps the filter in place.
func (p ribProc) stageRedist(c Change) ([]txStep, string, error) {
	class := c.Path[1]
	if c.Verb == ChangeRemove {
		name := redistName(class, c.Old.Arg(0))
		return []txStep{{
			desc:  "remove redist " + name,
			apply: func() error { return p.RemoveRedist(name) },
		}}, "", nil
	}
	if c.New == nil {
		return nil, "unsupported redistribute change", nil
	}
	proto, filter, err := redistFilter(c.New)
	if err != nil {
		return nil, "", err
	}
	name := redistName(class, proto)
	if c.Verb == ChangeModify {
		// Policy body edit: recompile and swap the filter in place.
		return []txStep{{
			desc:  "re-filter " + name,
			apply: func() error { return p.SetRedistFilter(name, filter) },
		}}, "", nil
	}
	out := xif.NewRedist4Client(p.router, class)
	return []txStep{{
		desc: "add redist " + name,
		apply: func() error {
			_, err := p.AddRedist(name, class, filter, out)
			return err
		},
	}}, "", nil
}

// redistName names the RIB stage redistributing proto into class.
func redistName(class, proto string) string { return "to-" + class + "-" + proto }

// parseStaticRoute parses one `route <prefix> [next-hop a] [interface i]
// [metric m]` leaf.
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
func redistFilter(rd *Node) (string, rib.RedistFilter, error) {
	proto := rd.Arg(0)
	if polName := rd.Arg(1); polName != "" {
		pol, err := compilePolicy(rd, polName)
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

// compilePolicy compiles `policy <name> { ... }` for the statement st
// that names it, from the body the planner embedded in st (embedPolicy).
func compilePolicy(st *Node, name string) (*policy.Policy, error) {
	p := findBlock(st, "policy", name)
	if p == nil {
		return nil, fmt.Errorf("rtrmgr: no policy %q", name)
	}
	return policy.Compile(name, Render(p, 0))
}

// --- BGP:
//
//	bgp { local-as 65001; id 10.0.0.1; damping { }
//	      peer-group g { local-addr ...; as ...; }
//	      peer p1 { local-addr ...; peer-addr ...; as 65002; dial host:port; group g; } }

type bgpProc struct {
	*bgp.Process
	begun *bool // set by begin: a peer added later is enabled at once
}

func setupBGP(d *deployment, inst *instance, cfg *Node) (proc, error) {
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
	ribStub := xif.NewRIBClient(inst.router, "rib")
	p := bgp.NewProcess(inst.loop, bgp.Config{
		AS:                uint16(as),
		BGPID:             id,
		ListenAddr:        d.bgpListen,
		EnableDamping:     cfg.Child("damping") != nil,
		ConsistencyChecks: d.consistencyChecks,
	}, ribStub, &xrlMetricSource{stub: ribStub, loop: inst.loop, bgpTarget: inst.class})
	p.RegisterXRLs(inst.target)
	return bgpProc{p, new(bool)}, nil
}

func (p bgpProc) begin(cfg *Node) error {
	if err := p.Listen(); err != nil {
		return err
	}
	*p.begun = true
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
func (p bgpProc) stage(c Change) ([]txStep, string, error) {
	unit := c.Path[2]
	switch {
	case strings.HasPrefix(unit, "peer "):
		return p.stagePeer(c)
	case c.Verb == ChangeAdd && c.New.Key == "peer-group":
		return nil, "", nil
	}
	return nil, fmt.Sprintf("unsupported BGP change %q", unit), nil
}

func (p bgpProc) stagePeer(c Change) ([]txStep, string, error) {
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
		steps = append(steps, txStep{
			desc: "add peer " + pc.Name,
			apply: func() error {
				if _, err := p.AddPeer(pc); err != nil {
					return err
				}
				if *p.begun { // before begin (boot, respawn), begin enables it
					return p.EnablePeer(pc.Name)
				}
				return nil
			},
		})
	}
	return steps, "", nil
}

// --- RIP (needs LocalAddr):
//
//	rip { update-interval 30; timeout 180; gc-time 120; triggered-delay 1; }

type ripProc struct{ *rip.Process }

func setupRIP(d *deployment, inst *instance, _ *Node) (proc, error) {
	if !d.localAddr.IsValid() {
		return nil, fmt.Errorf("rtrmgr: rip requires a local address")
	}
	p := rip.NewProcess(inst.loop, rip.Config{LocalAddr: d.localAddr, IfName: "eth0"},
		newUDPRelay(inst.router, inst.target, "fea", rip.Port, netip.Addr{}),
		xrlRouteClient{xif.NewRIBClient(inst.router, "rib"), route.ProtoRIP.String()})
	xif.BindRedist4(inst.target, p)
	return ripProc{p}, nil
}

func (p ripProc) begin(*Node) error { return p.Start() }

func (p ripProc) close() { p.Stop() }

// stage: timer retunes.
func (p ripProc) stage(c Change) ([]txStep, string, error) {
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

// --- OSPF (needs LocalAddr):
//
//	ospf { router-id 10.0.0.1; hello-interval 10; dead-interval 40;
//	       cost 1; export pol-name; }
//
// Its agent stages the `interfaces` section too: each interface's
// prefix is originated as a stub network. `export` applies a policy to
// SPF routes entering the RIB.

type ospfProc struct{ *ospf.Process }

func setupOSPF(d *deployment, inst *instance, cfg *Node) (proc, error) {
	if !d.localAddr.IsValid() {
		return nil, fmt.Errorf("rtrmgr: ospf requires a local address")
	}
	ocfg := ospf.Config{LocalAddr: d.localAddr, IfName: "eth0"}
	if v := cfg.Leaf("router-id"); v != "" {
		var err error
		if ocfg.RouterID, err = netip.ParseAddr(v); err != nil {
			return nil, err
		}
	}
	p := ospf.NewProcess(inst.loop, ocfg, newUDPRelay(inst.router, inst.target, "fea", ospf.Port, ospf.AllSPFRouters),
		xrlRouteClient{xif.NewRIBClient(inst.router, "rib"), route.ProtoOSPF.String()})
	xif.BindRedist4(inst.target, p)
	return ospfProc{p}, nil
}

// parseCost parses an OSPF link cost, 1 to 65535.
func parseCost(v string) (uint16, error) {
	c, err := strconv.ParseUint(v, 10, 16)
	if err != nil || c < 1 {
		return 0, fmt.Errorf("bad cost %q: want 1 to 65535", v)
	}
	return uint16(c), nil
}

func (p ospfProc) begin(*Node) error { return p.Start() }

func (p ospfProc) close() { p.Stop() }

// stage: connected networks as stub prefixes, timer/cost retunes and
// export filter swaps.
func (p ospfProc) stage(c Change) ([]txStep, string, error) {
	if c.Path[0] == "interfaces" {
		name, pfx, _, err := interfaceAdd(c)
		if err != nil {
			return nil, "", err
		}
		return []txStep{{
			desc:  "originate " + name,
			apply: func() error { p.OriginatePrefix(pfx.Masked(), 1); return nil },
		}}, "", nil
	}
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
