package ospf

import (
	"net/netip"
	"sort"
	"time"

	"xorp/internal/eventloop"
	"xorp/internal/route"
)

// Transport carries OSPF packets; the production implementation relays
// through the FEA's fea_udp/0.1 XRLs (rtrmgr.NewXRLOSPFTransport),
// keeping OSPF sandboxed (§7). Bind must subscribe the router to the
// AllSPFRouters group as well as install the receive callback.
type Transport interface {
	// Bind joins AllSPFRouters and installs the receive callback
	// (invoked on the OSPF loop).
	Bind(recv func(src netip.AddrPort, payload []byte)) error
	// Send transmits to one neighbor.
	Send(dst netip.AddrPort, payload []byte) error
	// Multicast transmits to the AllSPFRouters group.
	Multicast(payload []byte) error
}

// RIBClient is where OSPF's routes go (the RIB's ospf origin table), a
// run at a time — the same shape RIP uses, per the paper's claim that
// new protocols plug into existing seams. The slices are only valid for
// the duration of the call.
type RIBClient interface {
	AddRoutes(es []route.Entry)
	DeleteRoutes(nets []netip.Prefix)
}

// Filter vets (and may rewrite) a route before it reaches the RIB; nil
// entries are suppressed. The policy framework compiles its export
// policies into this shape (policy.OSPFExportFilter).
type Filter func(e route.Entry) *route.Entry

// Config tunes the protocol timers. Defaults follow RFC 2328 appendix C.
type Config struct {
	RouterID  netip.Addr // defaults to LocalAddr
	LocalAddr netip.Addr
	IfName    string
	Cost      uint16 // outgoing link cost (default 1)

	HelloInterval      time.Duration // neighbor keepalive (10 s)
	DeadInterval       time.Duration // adjacency loss detection (4× hello)
	RetransmitInterval time.Duration // unacked LSA resend (5 s)
	RefreshInterval    time.Duration // self LSA re-origination (30 min)
	MaxAge             time.Duration // received LSA lifetime (60 min)
	SPFDelay           time.Duration // SPF scheduling holddown (200 ms)
}

func (c *Config) fill() {
	if !c.RouterID.IsValid() {
		c.RouterID = c.LocalAddr
	}
	if c.Cost == 0 {
		c.Cost = 1
	}
	if c.HelloInterval <= 0 {
		c.HelloInterval = 10 * time.Second
	}
	if c.DeadInterval <= 0 {
		c.DeadInterval = 4 * c.HelloInterval
	}
	if c.RetransmitInterval <= 0 {
		c.RetransmitInterval = 5 * time.Second
	}
	if c.RefreshInterval <= 0 {
		c.RefreshInterval = 30 * time.Minute
	}
	if c.MaxAge <= 0 {
		c.MaxAge = time.Hour
	}
	if c.SPFDelay <= 0 {
		c.SPFDelay = 200 * time.Millisecond
	}
}

// neighborState is the (reduced) RFC 2328 §10.1 neighbor FSM: Down is
// represented by absence; ExStart/Exchange/Loading collapse into the
// full-database flood performed on reaching Full.
type neighborState int

const (
	// StateInit: hello heard, not yet bidirectional.
	StateInit neighborState = iota
	// StateFull: bidirectional, database synchronized, flooding peer.
	StateFull
)

func (s neighborState) String() string {
	if s == StateFull {
		return "Full"
	}
	return "Init"
}

// neighbor is one adjacency.
type neighbor struct {
	id    netip.Addr
	addr  netip.AddrPort // unicast address (source of its hellos)
	state neighborState

	deadTmr *eventloop.Timer
	// retrans maps LSA origin → last sequence sent and not yet acked.
	retrans   map[netip.Addr]uint32
	rexmitTmr *eventloop.Timer
}

// Stats are the protocol counters.
type Stats struct {
	HellosSent, HellosRecv   int
	UpdatesSent, UpdatesRecv int
	AcksSent, AcksRecv       int
	Retransmits              int
	SPF                      SPFStats
}

// Process is the OSPF routing process.
type Process struct {
	cfg  Config
	loop *eventloop.Loop
	tr   Transport
	rib  RIBClient

	neighbors map[netip.Addr]*neighbor // by router ID
	db        *LSDB
	expiry    map[netip.Addr]*eventloop.Timer // MaxAge timers, received LSAs

	selfSeq      uint32
	selfPrefixes map[netip.Prefix]uint16 // originated stubs → cost

	spf       *SPF
	spfTmr    *eventloop.Timer
	topoDirty bool
	installed map[netip.Prefix]route.Entry // routes currently in the RIB
	filter    Filter

	helloTmr, refreshTmr *eventloop.Timer
	stats                Stats
}

// NewProcess returns an OSPF process; call Start to begin operation.
func NewProcess(loop *eventloop.Loop, cfg Config, tr Transport, rib RIBClient) *Process {
	cfg.fill()
	return &Process{
		cfg:          cfg,
		loop:         loop,
		tr:           tr,
		rib:          rib,
		neighbors:    make(map[netip.Addr]*neighbor),
		db:           NewLSDB(),
		expiry:       make(map[netip.Addr]*eventloop.Timer),
		selfPrefixes: make(map[netip.Prefix]uint16),
		spf:          NewSPF(cfg.RouterID),
		installed:    make(map[netip.Prefix]route.Entry),
	}
}

// RouterID returns the process's router ID.
func (p *Process) RouterID() netip.Addr { return p.cfg.RouterID }

// DB returns the link-state database (tests, diagnostics).
func (p *Process) DB() *LSDB { return p.db }

// Stats returns a snapshot of the protocol counters.
func (p *Process) Stats() Stats {
	s := p.stats
	s.SPF = p.spf.Stats()
	return s
}

// SetExportFilter installs the policy filter applied to routes before
// they are pushed to the RIB. Pass nil to remove. Schedules an SPF run,
// where it takes effect.
func (p *Process) SetExportFilter(f Filter) {
	p.filter = f
	p.scheduleSPF(false)
}

// Retune applies new timer/cost values in place (the rtrmgr's
// transactional reload): zero fields keep their current value. The
// hello timer is re-armed at the new interval; the new dead interval
// governs adjacencies as their dead timers are next armed; a cost
// change re-originates the router LSA, so neighbors reconverge on the
// new metric without any adjacency bouncing. Must run on the loop.
func (p *Process) Retune(hello, dead time.Duration, cost uint16) {
	if hello > 0 && hello != p.cfg.HelloInterval {
		p.cfg.HelloInterval = hello
		if p.helloTmr != nil {
			p.helloTmr.Cancel()
			p.helloTmr = p.loop.Periodic(p.cfg.HelloInterval, p.sendHello)
		}
	}
	if dead > 0 {
		p.cfg.DeadInterval = dead
	}
	if cost > 0 && cost != p.cfg.Cost {
		p.cfg.Cost = cost
		if p.helloTmr != nil { // started: re-announce at the new cost
			p.originateSelf()
		}
	}
}

// Timers reports the live timer configuration (tests, show-config).
func (p *Process) Timers() Config { return p.cfg }

// Start binds the transport (joining AllSPFRouters), originates the
// router LSA, and begins hello and refresh cycles.
func (p *Process) Start() error {
	if err := p.tr.Bind(p.receive); err != nil {
		return err
	}
	p.helloTmr = p.loop.Periodic(p.cfg.HelloInterval, p.sendHello)
	p.refreshTmr = p.loop.Periodic(p.cfg.RefreshInterval, p.originateSelf)
	p.originateSelf()
	p.sendHello()
	return nil
}

// Stop cancels every timer.
func (p *Process) Stop() {
	for _, t := range []*eventloop.Timer{p.helloTmr, p.refreshTmr, p.spfTmr} {
		if t != nil {
			t.Cancel()
		}
	}
	for _, t := range p.expiry {
		t.Cancel()
	}
	for _, n := range p.neighbors {
		n.cancelTimers()
	}
}

func (n *neighbor) cancelTimers() {
	if n.deadTmr != nil {
		n.deadTmr.Cancel()
	}
	if n.rexmitTmr != nil {
		n.rexmitTmr.Cancel()
	}
}

// NeighborCount returns the number of fully adjacent neighbors.
func (p *Process) NeighborCount() int {
	n := 0
	for _, nb := range p.neighbors {
		if nb.state == StateFull {
			n++
		}
	}
	return n
}

// NeighborState reports a neighbor's adjacency state ("" if unknown).
func (p *Process) NeighborState(id netip.Addr) string {
	if nb, ok := p.neighbors[id]; ok {
		return nb.state.String()
	}
	return ""
}

// OriginatePrefix announces a stub prefix (connected networks,
// redistribution) in the router LSA.
func (p *Process) OriginatePrefix(net netip.Prefix, cost uint16) {
	net = net.Masked()
	if c, ok := p.selfPrefixes[net]; ok && c == cost {
		return
	}
	p.selfPrefixes[net] = cost
	p.originateSelf()
}

// WithdrawPrefix stops announcing a stub prefix.
func (p *Process) WithdrawPrefix(net netip.Prefix) {
	net = net.Masked()
	if _, ok := p.selfPrefixes[net]; !ok {
		return
	}
	delete(p.selfPrefixes, net)
	p.originateSelf()
}

// RedistAdd / RedistDelete implement rib.Redistributor, bound as
// redist4/0.1: a redistributed route is an originated prefix, its metric
// the cost, clamped to 1–65535.
func (p *Process) RedistAdd(e route.Entry) {
	cost := e.Metric
	if cost > 0xffff {
		cost = 0xffff
	}
	if cost == 0 {
		cost = 1
	}
	p.OriginatePrefix(e.Net, uint16(cost))
}

// RedistDelete implements rib.Redistributor.
func (p *Process) RedistDelete(e route.Entry) { p.WithdrawPrefix(e.Net) }

// RouteCount returns the number of routes OSPF currently has in the RIB.
func (p *Process) RouteCount() int { return len(p.installed) }

// Lookup returns OSPF's installed route for net (tests).
func (p *Process) Lookup(net netip.Prefix) (route.Entry, bool) {
	e, ok := p.installed[net.Masked()]
	return e, ok
}

// --- hello protocol / adjacency FSM ---

func (p *Process) sendHello() {
	ids := make([]netip.Addr, 0, len(p.neighbors))
	for id := range p.neighbors {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i].Less(ids[j]) })
	pkt := &Packet{
		Type:     TypeHello,
		RouterID: p.cfg.RouterID,
		Hello: &Hello{
			HelloInterval: uint16(p.cfg.HelloInterval / time.Second),
			DeadInterval:  uint16(p.cfg.DeadInterval / time.Second),
			Neighbors:     ids,
		},
	}
	buf, err := pkt.Append(nil)
	if err != nil {
		return
	}
	p.stats.HellosSent++
	p.tr.Multicast(buf)
}

// receive processes one datagram (runs on the loop).
func (p *Process) receive(src netip.AddrPort, payload []byte) {
	pkt, err := Decode(payload)
	if err != nil {
		return // malformed packets are dropped, never fatal
	}
	if pkt.RouterID == p.cfg.RouterID {
		return // our own multicast echoed back
	}
	switch pkt.Type {
	case TypeHello:
		p.stats.HellosRecv++
		p.handleHello(src, pkt)
	case TypeLSUpdate:
		p.stats.UpdatesRecv++
		p.handleUpdate(src, pkt)
	case TypeLSAck:
		p.stats.AcksRecv++
		p.handleAck(pkt)
	}
}

func (p *Process) handleHello(src netip.AddrPort, pkt *Packet) {
	id := pkt.RouterID
	nb, known := p.neighbors[id]
	if !known {
		nb = &neighbor{id: id, addr: src, state: StateInit, retrans: make(map[netip.Addr]uint32)}
		p.neighbors[id] = nb
		// Answer immediately so two-way establishes within one RTT
		// instead of one hello interval (once per new neighbor, so no
		// hello storm).
		p.sendHello()
	}
	nb.addr = src
	p.armDead(nb)

	twoWay := false
	for _, n := range pkt.Hello.Neighbors {
		if n == p.cfg.RouterID {
			twoWay = true
			break
		}
	}
	switch {
	case twoWay && nb.state == StateInit:
		nb.state = StateFull
		// Database synchronization, collapsed from DD/LSR exchange:
		// flood our entire LSDB at the new adjacency, reliably.
		p.syncDatabase(nb)
		p.originateSelf() // adds the new link
	case !twoWay && nb.state == StateFull:
		// One-way regression: the peer restarted or lost us.
		nb.state = StateInit
		nb.retrans = make(map[netip.Addr]uint32)
		if nb.rexmitTmr != nil {
			nb.rexmitTmr.Cancel()
		}
		p.originateSelf() // drops the link
		// Answer at once, as for a new neighbor: a restarted peer goes
		// two-way on hearing itself listed, not a hello interval later.
		p.sendHello()
	}
}

func (p *Process) armDead(nb *neighbor) {
	if nb.deadTmr != nil {
		nb.deadTmr.Cancel()
	}
	nb.deadTmr = p.loop.OneShot(p.cfg.DeadInterval, func() { p.neighborDead(nb) })
}

func (p *Process) neighborDead(nb *neighbor) {
	if cur, ok := p.neighbors[nb.id]; !ok || cur != nb {
		return
	}
	delete(p.neighbors, nb.id)
	nb.cancelTimers()
	p.originateSelf() // drops the link, floods, schedules SPF
}

// --- flooding ---

// originateSelf issues the next instance of our router LSA (full
// neighbors as links, selfPrefixes as stubs) and floods it.
func (p *Process) originateSelf() {
	p.selfSeq++
	lsa := LSA{Origin: p.cfg.RouterID, Seq: p.selfSeq}
	ids := make([]netip.Addr, 0, len(p.neighbors))
	for id, nb := range p.neighbors {
		if nb.state == StateFull {
			ids = append(ids, id)
		}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i].Less(ids[j]) })
	for _, id := range ids {
		lsa.Links = append(lsa.Links, Link{Neighbor: id, Cost: p.cfg.Cost})
	}
	nets := make([]netip.Prefix, 0, len(p.selfPrefixes))
	for net := range p.selfPrefixes {
		nets = append(nets, net)
	}
	sort.Slice(nets, func(i, j int) bool {
		return nets[i].Addr().Less(nets[j].Addr()) ||
			nets[i].Addr() == nets[j].Addr() && nets[i].Bits() < nets[j].Bits()
	})
	for _, net := range nets {
		lsa.Prefixes = append(lsa.Prefixes, StubPrefix{Net: net, Cost: p.selfPrefixes[net]})
	}
	_, topoChanged := p.db.Install(lsa, p.loop.Now())
	p.flood(lsa, netip.Addr{})
	p.scheduleSPF(topoChanged)
}

// flood sends an LSA to every full neighbor except the one it came
// from, recording it for retransmission until acknowledged.
func (p *Process) flood(lsa LSA, except netip.Addr) {
	for id, nb := range p.neighbors {
		if id == except || nb.state != StateFull {
			continue
		}
		p.sendLSAs(nb, []LSA{lsa}, true)
	}
}

// syncDatabase floods the whole LSDB at a newly full neighbor.
func (p *Process) syncDatabase(nb *neighbor) {
	var lsas []LSA
	now := p.loop.Now()
	p.db.Walk(func(lsa LSA) bool {
		aged, _ := p.db.AgeAt(lsa.Origin, now)
		lsas = append(lsas, aged)
		return true
	})
	if len(lsas) > 0 {
		p.sendLSAs(nb, lsas, true)
	}
}

// sendLSAs transmits LSAs to one neighbor in MaxLSAsPerUpdate chunks,
// optionally tracking them for retransmission.
func (p *Process) sendLSAs(nb *neighbor, lsas []LSA, reliable bool) {
	for off := 0; off < len(lsas); off += MaxLSAsPerUpdate {
		end := min(off+MaxLSAsPerUpdate, len(lsas))
		pkt := &Packet{Type: TypeLSUpdate, RouterID: p.cfg.RouterID, LSAs: lsas[off:end]}
		buf, err := pkt.Append(nil)
		if err != nil {
			return
		}
		p.stats.UpdatesSent++
		p.tr.Send(nb.addr, buf)
	}
	if !reliable {
		return
	}
	for _, lsa := range lsas {
		nb.retrans[lsa.Origin] = lsa.Seq
	}
	p.armRexmit(nb)
}

func (p *Process) armRexmit(nb *neighbor) {
	if len(nb.retrans) == 0 || nb.rexmitTmr != nil && nb.rexmitTmr.Scheduled() {
		return
	}
	nb.rexmitTmr = p.loop.OneShot(p.cfg.RetransmitInterval, func() { p.retransmit(nb) })
}

// retransmit resends every unacknowledged LSA to nb, substituting the
// database's current (possibly newer) instance.
func (p *Process) retransmit(nb *neighbor) {
	if cur, ok := p.neighbors[nb.id]; !ok || cur != nb || nb.state != StateFull {
		return
	}
	now := p.loop.Now()
	var lsas []LSA
	for origin := range nb.retrans {
		lsa, ok := p.db.AgeAt(origin, now)
		if !ok {
			delete(nb.retrans, origin)
			continue
		}
		nb.retrans[origin] = lsa.Seq
		lsas = append(lsas, lsa)
	}
	if len(lsas) == 0 {
		return
	}
	sort.Slice(lsas, func(i, j int) bool { return lsas[i].Origin.Less(lsas[j].Origin) })
	p.stats.Retransmits += len(lsas)
	p.sendLSAs(nb, lsas, true)
}

func (p *Process) handleUpdate(src netip.AddrPort, pkt *Packet) {
	nb, known := p.neighbors[pkt.RouterID]
	if !known {
		return // no adjacency: hellos must establish one first
	}
	nb.addr = src
	var acks []Key
	for _, lsa := range pkt.LSAs {
		if lsa.Origin == p.cfg.RouterID {
			// Our own LSA echoed back. The current instance (equal seq,
			// e.g. from a neighbor's database sync) just needs an ack; a
			// strictly newer instance is a previous-incarnation leftover
			// and must be outraced (RFC 2328 §13.4).
			acks = append(acks, Key{Origin: lsa.Origin, Seq: lsa.Seq})
			if lsa.Seq > p.selfSeq {
				p.selfSeq = lsa.Seq
				p.originateSelf()
			}
			continue
		}
		res, topoChanged := p.db.Install(lsa, p.loop.Now())
		switch res {
		case InstallNewer:
			p.armExpiry(lsa)
			acks = append(acks, Key{Origin: lsa.Origin, Seq: lsa.Seq})
			p.flood(lsa, pkt.RouterID)
			p.scheduleSPF(topoChanged)
		case InstallDuplicate:
			acks = append(acks, Key{Origin: lsa.Origin, Seq: lsa.Seq})
		case InstallOlder:
			// We hold something newer: send it back instead of acking.
			if cur, ok := p.db.AgeAt(lsa.Origin, p.loop.Now()); ok {
				p.sendLSAs(nb, []LSA{cur}, false)
			}
		}
	}
	if len(acks) > 0 {
		pkt := &Packet{Type: TypeLSAck, RouterID: p.cfg.RouterID, Acks: acks}
		if buf, err := pkt.Append(nil); err == nil {
			p.stats.AcksSent++
			p.tr.Send(nb.addr, buf)
		}
	}
}

func (p *Process) handleAck(pkt *Packet) {
	nb, known := p.neighbors[pkt.RouterID]
	if !known {
		return
	}
	for _, k := range pkt.Acks {
		if seq, ok := nb.retrans[k.Origin]; ok && seq <= k.Seq {
			delete(nb.retrans, k.Origin)
		}
	}
	if len(nb.retrans) == 0 && nb.rexmitTmr != nil {
		nb.rexmitTmr.Cancel()
	}
}

// armExpiry (re)starts a received LSA's MaxAge timer: without refresh
// from its originator, the LSA ages out of the database.
func (p *Process) armExpiry(lsa LSA) {
	if t, ok := p.expiry[lsa.Origin]; ok {
		t.Cancel()
	}
	remaining := p.cfg.MaxAge - time.Duration(lsa.Age)*time.Second
	if remaining <= 0 {
		remaining = time.Millisecond
	}
	origin := lsa.Origin
	p.expiry[origin] = p.loop.OneShot(remaining, func() {
		delete(p.expiry, origin)
		if p.db.Remove(origin) {
			p.scheduleSPF(true)
		}
	})
}

// --- SPF ---

// scheduleSPF coalesces route recomputation behind SPFDelay.
func (p *Process) scheduleSPF(topoChanged bool) {
	p.topoDirty = p.topoDirty || topoChanged
	if p.spfTmr != nil && p.spfTmr.Scheduled() {
		return
	}
	p.spfTmr = p.loop.OneShot(p.cfg.SPFDelay, p.runSPF)
}

func (p *Process) runSPF() {
	routes := p.spf.Recompute(p.db, p.topoDirty)
	p.topoDirty = false

	want := make(map[netip.Prefix]route.Entry, len(routes))
	for net, r := range routes {
		e := route.Entry{Net: net, Metric: r.Cost, IfName: p.cfg.IfName}
		if r.FirstHop.IsValid() {
			nb, ok := p.neighbors[r.FirstHop]
			if !ok {
				continue // transient: SPF ran ahead of adjacency teardown
			}
			e.NextHop = nb.addr.Addr()
		}
		if p.filter != nil {
			out := p.filter(e)
			if out == nil {
				continue
			}
			e = *out
		}
		want[net] = e
	}

	// Collect the delta and ship it as (at most) two runs — an SPF
	// recompute emits its whole result at once, the textbook churn run.
	var adds []route.Entry
	for net, e := range want {
		if old, ok := p.installed[net]; ok && old.Equal(e) {
			continue
		}
		p.installed[net] = e
		adds = append(adds, e)
	}
	var dels []netip.Prefix
	for net := range p.installed {
		if _, ok := want[net]; !ok {
			delete(p.installed, net)
			dels = append(dels, net)
		}
	}
	if p.rib == nil {
		return
	}
	if len(adds) > 0 {
		p.rib.AddRoutes(adds)
	}
	if len(dels) > 0 {
		p.rib.DeleteRoutes(dels)
	}
}
