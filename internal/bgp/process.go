package bgp

import (
	"fmt"
	"net"
	"net/netip"

	"xorp/internal/core"
	"xorp/internal/eventloop"
	"xorp/internal/route"
	"xorp/internal/telemetry"
	"xorp/internal/xif"
	"xorp/internal/xipc"
	"xorp/internal/xrl"
)

// RIBClient is where BGP's best routes go (the "Best routes to RIB" arrow
// of Figure 5). The production implementation sends XRLs to the RIB
// process; tests plug in collectors. The routes are valid only for the
// call.
type RIBClient interface {
	AddRoute(r *Route)
	ReplaceRoute(old, new *Route)
	DeleteRoute(r *Route)
}

// Config configures a BGP process.
type Config struct {
	AS    uint16
	BGPID netip.Addr
	// ListenAddr accepts incoming peer connections ("" = none).
	ListenAddr string
	// EnableDamping plumbs a route-flap damping stage into each peering's
	// input branch (§8.3).
	EnableDamping bool
	// ConsistencyChecks plumbs the §5.1 cache stage before the RIB branch
	// ("has helped us discover many subtle bugs").
	ConsistencyChecks bool
}

// Process is the XORP BGP process: peers, the staged pipeline, and the
// XRL interface.
type Process struct {
	cfg  Config
	loop *eventloop.Loop

	decision *Decision
	fanout   *Fanout
	pool     *AttrPool

	peers     map[string]*Peer
	groups    map[string]*peerGroup
	localIn   *PeerIn // locally originated routes (originate_route XRLs)
	localNH   *NexthopResolver
	ribClient RIBClient
	metricSrc MetricSource

	// tracer is the process's probe: the peer-in tables stamp StagePeerIn,
	// the decision StageDecision and the RIB branch StageQueuedRIB and
	// StageSentRIB; profile/0.1 renders it.
	tracer *telemetry.Tracer

	metrics     *telemetry.Registry
	mUpdates    *telemetry.Counter // bgp_updates_total
	mEncodeErrs *telemetry.Counter // bgp_out_encode_errors_total
	mLoopRoutes *telemetry.Counter // bgp_in_as_loop_routes_total

	cache    *CacheStage
	listener net.Listener
}

// NewProcess assembles a BGP process on loop. ribClient and metricSrc may
// be nil (standalone operation: routes go nowhere, nexthops resolve
// statically).
func NewProcess(loop *eventloop.Loop, cfg Config, ribClient RIBClient, metricSrc MetricSource) *Process {
	if metricSrc == nil {
		metricSrc = &StaticMetricSource{}
	}
	p := &Process{
		cfg:       cfg,
		loop:      loop,
		decision:  NewDecision("decision"),
		fanout:    NewFanout("fanout", loop),
		pool:      NewAttrPool(),
		peers:     make(map[string]*Peer),
		groups:    make(map[string]*peerGroup),
		ribClient: ribClient,
		metricSrc: metricSrc,
	}
	Plumb(p.decision, p.fanout)

	// Live metrics. Scrapes arrive through the stats/0.1 XRL handler,
	// which runs on the process loop, so gauge funcs may read
	// loop-confined state (the peers map); queue depth and the IO
	// counters are atomic/mutexed and safe from anywhere.
	p.metrics = telemetry.NewRegistry()
	p.mUpdates = p.metrics.Counter("bgp_updates_total", "UPDATE messages processed")
	p.mEncodeErrs = p.metrics.Counter("bgp_out_encode_errors_total", "outbound UPDATEs dropped because they could not be encoded")
	p.mLoopRoutes = p.metrics.Counter("bgp_in_as_loop_routes_total", "announced prefixes rejected, and withdrawn if held, because their AS_PATH holds the local AS")
	p.metrics.GaugeFunc("bgp_peers", "configured peerings",
		func() float64 { return float64(len(p.peers)) })
	p.metrics.GaugeFunc("bgp_peerin_routes", "routes stored in the RIB-in, deletion stages' not yet withdrawn included",
		func() float64 { return float64(p.localIn.rib.n) })
	p.metrics.GaugeFunc("bgp_queue_depth", "event-loop input backlog",
		func() float64 { return float64(loop.QueueDepth()) })
	p.metrics.CounterFunc("trace_dropped_total", "trace records lost to the tracer's bounds",
		func() float64 { return float64(p.tracer.Dropped()) })
	xipc.RegisterIOMetrics(p.metrics)

	// The RIB branch of the fanout, optionally behind a consistency cache.
	var ribHead Stage = &ribSinkStage{base: base{name: "rib-branch"}, proc: p}
	if cfg.ConsistencyChecks {
		p.cache = NewCacheStage("rib-branch-cache")
		Plumb(p.cache, ribHead)
		ribHead = p.cache
	}
	p.fanout.AddGroupBranch("rib", ribHead)

	// Local origination branch.
	localPeer := &PeerHandle{Name: "local", AS: cfg.AS}
	p.localIn = NewPeerIn(loop, localPeer, p.pool)
	p.localNH = NewNexthopResolver("nexthop(local)", metricSrc)
	Plumb(p.localIn, p.localNH)
	p.decision.AddParent(p.localNH)
	p.SetTracer(telemetry.NewTracer())
	return p
}

// Loop returns the process event loop.
func (p *Process) Loop() *eventloop.Loop { return p.loop }

// SetTracer replaces the process's tracer, e.g. with one shared by the
// RIB and FEA so a route's trace spans the three. Call on the process
// loop, before routes flow.
func (p *Process) SetTracer(tr *telemetry.Tracer) {
	p.tracer = tr
	p.decision.tracer = tr
	p.localIn.tracer = tr
	for _, peer := range p.peers {
		peer.peerin.tracer = tr
	}
}

// Metrics returns the process's live metrics registry.
func (p *Process) Metrics() *telemetry.Registry { return p.metrics }

// Fanout returns the fanout stage (tests, flow control).
func (p *Process) Fanout() *Fanout { return p.fanout }

// AttrPool returns the process attribute pool (tests, benchmarks).
func (p *Process) AttrPool() *AttrPool { return p.pool }

// Group returns a peer group's shared output stage, or nil.
func (p *Process) Group(name string) *GroupOut {
	if g, ok := p.groups[name]; ok {
		return g.out
	}
	return nil
}

// peerGroup is one output branch: a shared export filter bank and GroupOut
// fed by one fanout branch, plus the invariants members must share for the
// shared encode to be valid. name is "" for a solo peer's group of one.
type peerGroup struct {
	name      string
	branch    string // fanout branch name
	ibgp      bool
	localAddr netip.Addr
	out       *GroupOut
	members   int
}

// CacheViolations returns consistency violations recorded on the RIB
// branch (nil without ConsistencyChecks).
func (p *Process) CacheViolations() []*core.ConsistencyError {
	if p.cache == nil {
		return nil
	}
	return p.cache.Violations()
}

// ribSinkStage converts the fanout's RIB branch into RIBClient calls. The
// client is shown run elements in place, and a Replace's or Delete's routes
// in old and new.
type ribSinkStage struct {
	base
	proc     *Process
	old, new Route
}

// stamp records the two stages a route passes on its way to the RIB:
// taken off the fanout queue, handed to the transport.
func (s *ribSinkStage) stamp(net netip.Prefix, del bool) {
	tr := s.proc.tracer
	if tr.On(telemetry.StageQueuedRIB) {
		tr.StampOp(telemetry.StageQueuedRIB, net, del)
	}
	if s.proc.ribClient != nil && tr.On(telemetry.StageSentRIB) {
		tr.StampOp(telemetry.StageSentRIB, net, del)
	}
}

func (s *ribSinkStage) Add(run []Route) {
	for i := range run {
		s.stamp(run[i].Net, false)
		if s.proc.ribClient != nil {
			s.proc.ribClient.AddRoute(&run[i])
		}
	}
}

func (s *ribSinkStage) Replace(old, new Route) {
	s.stamp(new.Net, false)
	if s.proc.ribClient != nil {
		s.old, s.new = old, new
		s.proc.ribClient.ReplaceRoute(&s.old, &s.new)
	}
}

func (s *ribSinkStage) Delete(r Route) {
	s.stamp(r.Net, true)
	if s.proc.ribClient != nil {
		s.old = r
		s.proc.ribClient.DeleteRoute(&s.old)
	}
}

func (s *ribSinkStage) Lookup(net netip.Prefix, r *Route) bool { return s.lookupParent(net, r) }

// AddPeer configures a peering and builds its input/output branches:
//
//	PeerIn → [damping] → in-filter → nexthop-resolver → Decision
//	Fanout → out-filter → GroupOut → each member's session
//
// Every output branch ends in a GroupOut. Peers naming the same cfg.Group
// share one, so outbound UPDATEs are filtered and encoded once per group
// rather than once per peer; they must agree on everything the shared
// encode depends on: IBGP-ness and (for EBGP) the local peering address.
// A peer without cfg.Group is a group of one whose fanout branch carries
// the peer's own name, which is what Peer.updateBusy stalls when the
// transport backs up (§5.1.1).
//
// Peers start disabled; call EnablePeer. Must run on the loop.
func (p *Process) AddPeer(cfg PeerConfig) (*Peer, error) {
	if _, dup := p.peers[cfg.Name]; dup {
		return nil, fmt.Errorf("bgp: peer %q already configured", cfg.Name)
	}
	ibgp := cfg.PeerAS == p.cfg.AS
	peer := &Peer{
		cfg:  cfg,
		loop: p.loop,
		proc: p,
		handle: &PeerHandle{
			Name: cfg.Name, Addr: cfg.PeerAddr, AS: cfg.PeerAS, IBGP: ibgp,
		},
	}
	peer.peerin = NewPeerIn(p.loop, peer.handle, p.pool)
	peer.peerin.tracer = p.tracer
	peer.peerin.loopRoutes = p.mLoopRoutes
	inFilter := NewFilterBank("in-filter(" + cfg.Name + ")")
	resolver := NewNexthopResolver("nexthop("+cfg.Name+")", p.metricSrc)
	if p.cfg.EnableDamping {
		damp := NewDampingStage("damping("+cfg.Name+")", p.loop)
		Plumb(peer.peerin, damp, inFilter, resolver)
	} else {
		Plumb(peer.peerin, inFilter, resolver)
	}

	g, ok := p.groups[cfg.Group] // never holds ""
	if !ok {
		g = &peerGroup{name: cfg.Group, branch: "group:" + cfg.Group, ibgp: ibgp, localAddr: cfg.LocalAddr}
		var sole *PeerHandle
		if cfg.Group == "" {
			g.branch, sole = cfg.Name, peer.handle
		} else {
			p.groups[cfg.Group] = g
		}
		export := FilterIBGPExport()
		if !ibgp {
			export = FilterEBGPExport(p.cfg.AS, cfg.LocalAddr)
		}
		g.out = NewGroupOut(g.branch)
		g.out.EncodeErrors = p.mEncodeErrs
		outBank := NewFilterBank("out-filter("+g.branch+")", export)
		Plumb(outBank, g.out)
		p.fanout.AddPeerBranch(g.branch, sole, outBank)
	}
	if g.ibgp != ibgp {
		return nil, fmt.Errorf("bgp: peer %q: group %q mixes IBGP and EBGP members", cfg.Name, cfg.Group)
	}
	if !ibgp && g.localAddr != cfg.LocalAddr {
		return nil, fmt.Errorf("bgp: peer %q: group %q members must share local-addr (%v != %v)",
			cfg.Name, cfg.Group, cfg.LocalAddr, g.localAddr)
	}
	if err := g.out.AddMember(peer.handle, peer); err != nil {
		return nil, err
	}
	g.members++
	peer.group = g

	// Hook the input branch up only after the output side exists, so the
	// peer's own first routes can already fan out to everyone.
	p.decision.AddParent(resolver)
	peer.resolver = resolver

	p.peers[cfg.Name] = peer
	return peer, nil
}

// RemovePeer deconfigures a peering in place (the rtrmgr's transactional
// reload: remove or rebuild one peer without touching the others). The
// session is torn down, the peer's learned routes are withdrawn through
// the pipeline synchronously — downstream stages and the other peers see
// ordinary withdrawals, so only this peer's prefixes change — and the
// input and output branches are unplumbed. Must run on the loop.
func (p *Process) RemovePeer(name string) error {
	peer, ok := p.peers[name]
	if !ok {
		return fmt.Errorf("bgp: unknown peer %q", name)
	}
	peer.Disable() // tears the session; an established one hands its table to a deletion stage

	// Drain the peer's routes NOW rather than in background slices: a
	// commit must leave no stage of the dead branch still feeding the
	// decision process after the branch is unhooked. This drains both
	// the FSM's deletion stages (splice right after the PeerIn) and any
	// routes injected without an established session.
	peer.peerin.PeerDown()
	for s := peer.peerin.downstream(); s != nil && s != Stage(p.decision); {
		next := s.downstream() // read first: a drained stage unplumbs itself
		if d, isDel := s.(*DeletionStage); isDel {
			for !d.done {
				d.step()
			}
		}
		s = next
	}

	p.decision.RemoveParent(peer.resolver)
	g := peer.group
	g.out.RemoveMember(peer.handle)
	if g.members--; g.members == 0 {
		p.fanout.RemoveBranch(g.branch)
		delete(p.groups, g.name)
	}
	delete(p.peers, name)
	return nil
}

// Peer returns a configured peer by name.
func (p *Process) Peer(name string) (*Peer, bool) {
	peer, ok := p.peers[name]
	return peer, ok
}

// EnablePeer starts a peering's FSM.
func (p *Process) EnablePeer(name string) error {
	peer, ok := p.peers[name]
	if !ok {
		return fmt.Errorf("bgp: unknown peer %q", name)
	}
	peer.Enable()
	return nil
}

// Originate injects a locally originated route (bgp/1.0 originate_route4).
func (p *Process) Originate(net netip.Prefix, nexthop netip.Addr, med uint32) {
	attrs := &PathAttrs{
		Origin:  OriginIGP,
		ASPath:  ASPath{},
		NextHop: nexthop,
		MED:     med,
		HasMED:  med != 0,
	}
	p.localIn.Announce(net, attrs)
}

// WithdrawOriginated removes a locally originated route.
func (p *Process) WithdrawOriginated(net netip.Prefix) {
	p.localIn.Withdraw(net)
}

// RedistAdd implements rib.Redistributor, bound as redist4/0.1: a
// redistributed route is originated with its metric as the MED, and one
// without a next hop gets 0.0.0.0.
func (p *Process) RedistAdd(e route.Entry) {
	nh := e.NextHop
	if !nh.IsValid() {
		nh = netip.IPv4Unspecified()
	}
	p.Originate(e.Net, nh, e.Metric)
}

// RedistDelete implements rib.Redistributor.
func (p *Process) RedistDelete(e route.Entry) { p.WithdrawOriginated(e.Net) }

// InjectUpdate feeds an UPDATE into a peering as if received from the
// session — the workload-injection path used by benchmarks and tests
// (the paper's test peers replayed captured feeds the same way).
func (p *Process) InjectUpdate(peerName string, u *UpdateMsg) error {
	peer, ok := p.peers[peerName]
	if !ok {
		return fmt.Errorf("bgp: unknown peer %q", peerName)
	}
	p.mUpdates.Inc()
	peer.peerin.ReceiveUpdate(u, p.cfg.AS)
	return nil
}

// Listen starts accepting incoming peer connections on cfg.ListenAddr.
func (p *Process) Listen() error {
	if p.cfg.ListenAddr == "" {
		return nil
	}
	ln, err := net.Listen("tcp", p.cfg.ListenAddr)
	if err != nil {
		return err
	}
	p.listener = ln
	go p.acceptLoop(ln)
	return nil
}

// ListenAddr returns the bound listen address ("" if not listening).
func (p *Process) ListenAddr() string {
	if p.listener == nil {
		return ""
	}
	return p.listener.Addr().String()
}

func (p *Process) acceptLoop(ln net.Listener) {
	for {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		p.loop.Dispatch(func() { p.adoptIncoming(c) })
	}
}

// adoptIncoming matches a connection to the peer configured for its
// source address.
func (p *Process) adoptIncoming(c net.Conn) {
	host, _, err := net.SplitHostPort(c.RemoteAddr().String())
	if err != nil {
		c.Close()
		return
	}
	addr, err := netip.ParseAddr(host)
	if err != nil {
		c.Close()
		return
	}
	addr = addr.Unmap()
	for _, peer := range p.peers {
		if peer.cfg.PeerAddr == addr {
			peer.AdoptIncoming(newTCPMsgConn(peer, c))
			return
		}
	}
	c.Close() // no peer configured for this source
}

// Close shuts the process down.
func (p *Process) Close() {
	if p.listener != nil {
		p.listener.Close()
	}
	for _, peer := range p.peers {
		peer.Disable()
	}
}

// bgpServer adapts the Process as a xif.BGPServer (and xif.RIBNotifyServer
// for the RIB's nexthop cache invalidations, §5.2.1).
type bgpServer struct{ p *Process }

func (s bgpServer) GetBGPVersion() (uint32, error) { return Version, nil }

// LocalConfig reports the AS/ID fixed at construction.
func (s bgpServer) LocalConfig() (uint32, netip.Addr, error) {
	return uint32(s.p.cfg.AS), s.p.cfg.BGPID, nil
}

func (s bgpServer) AddPeer(cfg xif.BGPPeerConfig) error {
	_, err := s.p.AddPeer(PeerConfig{
		Name:      cfg.Name,
		LocalAddr: cfg.LocalAddr,
		PeerAddr:  cfg.PeerAddr,
		PeerAS:    cfg.PeerAS,
		DialAddr:  cfg.DialAddr,
		HoldTime:  cfg.HoldTime,
		Group:     cfg.Group,
	})
	return err
}

func (s bgpServer) EnablePeer(name string) error { return s.p.EnablePeer(name) }

func (s bgpServer) DisablePeer(name string) error {
	peer, ok := s.p.peers[name]
	if !ok {
		return xrl.Errorf(xrl.CodeCommandFailed, "unknown peer %q", name)
	}
	peer.Disable()
	return nil
}

func (s bgpServer) PeerState(name string) (string, error) {
	peer, ok := s.p.peers[name]
	if !ok {
		return "", xrl.Errorf(xrl.CodeCommandFailed, "unknown peer %q", name)
	}
	return peer.State().String(), nil
}

func (s bgpServer) OriginateRoute4(nlri netip.Prefix, nexthop netip.Addr, med uint32) error {
	s.p.Originate(nlri, nexthop, med)
	return nil
}

func (s bgpServer) WithdrawRoute4(nlri netip.Prefix) error {
	s.p.WithdrawOriginated(nlri)
	return nil
}

func (s bgpServer) RouteInfoInvalid(net netip.Prefix) error {
	if inv, ok := s.p.metricSrc.(interface{ Invalidate(netip.Prefix) }); ok {
		inv.Invalidate(net)
	}
	return nil
}

// RegisterXRLs exposes the bgp/1.0, redist4/0.1, rib_client/0.1,
// stats/0.1 and profile/0.1 interfaces on target t through their
// spec-checked bindings. Handlers run on the process loop (the router
// shares it).
func (p *Process) RegisterXRLs(t *xipc.Target) {
	srv := bgpServer{p}
	xif.BindBGP(t, srv)
	xif.BindRedist4(t, p)
	xif.BindRIBNotify(t, srv)
	xif.BindStatsRegistry(t, p.metrics.RenderLines, p.metrics.Get)
	xif.BindProfile(t, telemetry.ProfileView(func() *telemetry.Tracer { return p.tracer }))
}
