package rip

import (
	"net/netip"
	"time"

	"xorp/internal/eventloop"
	"xorp/internal/route"
	"xorp/internal/trie"
)

// Transport carries RIP datagrams; the production implementation relays
// through the FEA's fea_udp/0.1 XRLs (rtrmgr.NewXRLRIPTransport), keeping
// RIP sandboxed (§7).
type Transport interface {
	// Bind installs the receive callback (invoked on the RIP loop).
	Bind(recv func(src netip.AddrPort, payload []byte)) error
	// Send transmits to one neighbour.
	Send(dst netip.AddrPort, payload []byte) error
	// Broadcast transmits to all on-link neighbours.
	Broadcast(payload []byte) error
}

// RIBClient is where RIP's routes go (the RIB's rip origin table), a run
// at a time: one received update's routes are one call, one run through
// the RIB. The slices are only valid for the duration of the call.
type RIBClient interface {
	AddRoutes(es []route.Entry)
	DeleteRoutes(nets []netip.Prefix)
}

// Config tunes the protocol timers. Defaults follow RFC 2453 §3.8.
type Config struct {
	LocalAddr      netip.Addr
	IfName         string
	UpdateInterval time.Duration // periodic full updates (30 s)
	Timeout        time.Duration // route expiry (180 s)
	GCTime         time.Duration // garbage collection after expiry (120 s)
	TriggeredDelay time.Duration // coalescing delay for triggered updates
}

func (c *Config) fill() {
	if c.UpdateInterval <= 0 {
		c.UpdateInterval = 30 * time.Second
	}
	if c.Timeout <= 0 {
		c.Timeout = 180 * time.Second
	}
	if c.GCTime <= 0 {
		c.GCTime = 120 * time.Second
	}
	if c.TriggeredDelay <= 0 {
		c.TriggeredDelay = 1 * time.Second
	}
}

// ripRoute is RIP's view of one destination.
type ripRoute struct {
	net        netip.Prefix
	nexthop    netip.Addr // learned-from neighbour (zero for local routes)
	metric     uint32
	tag        uint16
	local      bool // injected (redistributed/connected), never expires
	deleted    bool // metric 16, in garbage-collection hold-down
	expiry     *eventloop.Timer
	gc         *eventloop.Timer
	changed    bool // pending triggered update
	learnedVia netip.Addr
}

// Process is the RIP routing process.
type Process struct {
	cfg  Config
	loop *eventloop.Loop
	tr   Transport
	rib  RIBClient

	routes    *trie.Trie[*ripRoute]
	updateTmr *eventloop.Timer
	trigTmr   *eventloop.Timer
	// batching collects the RIB adds of one received update so they ship
	// as a single run (one loop hop, one origin load) at end-of-packet.
	batching bool
	pendAdds []route.Entry
	// stats
	updatesSent, updatesRecv, triggered int
}

// NewProcess returns a RIP process; call Start to begin operation.
func NewProcess(loop *eventloop.Loop, cfg Config, tr Transport, rib RIBClient) *Process {
	cfg.fill()
	return &Process{
		cfg:    cfg,
		loop:   loop,
		tr:     tr,
		rib:    rib,
		routes: trie.New[*ripRoute](),
	}
}

// Start binds the transport and begins periodic advertisement.
func (p *Process) Start() error {
	if err := p.tr.Bind(p.receive); err != nil {
		return err
	}
	p.updateTmr = p.loop.Periodic(p.cfg.UpdateInterval, p.sendPeriodic)
	// Announce ourselves immediately (cold-start request/response).
	p.sendPeriodic()
	return nil
}

// Retune applies new timer values in place (the rtrmgr's transactional
// reload): zero fields keep their current value. The periodic update
// timer is re-armed at the new interval; per-route expiry and GC timers
// pick up the new durations as they are next armed, so no route churns.
// Must run on the loop.
func (p *Process) Retune(cfg Config) {
	if cfg.UpdateInterval > 0 && cfg.UpdateInterval != p.cfg.UpdateInterval {
		p.cfg.UpdateInterval = cfg.UpdateInterval
		if p.updateTmr != nil {
			p.updateTmr.Cancel()
			p.updateTmr = p.loop.Periodic(p.cfg.UpdateInterval, p.sendPeriodic)
		}
	}
	if cfg.Timeout > 0 {
		p.cfg.Timeout = cfg.Timeout
	}
	if cfg.GCTime > 0 {
		p.cfg.GCTime = cfg.GCTime
	}
	if cfg.TriggeredDelay > 0 {
		p.cfg.TriggeredDelay = cfg.TriggeredDelay
	}
}

// Timers reports the live timer configuration (tests, show-config).
func (p *Process) Timers() Config { return p.cfg }

// Stop cancels every timer, each route's expiry and garbage-collection
// timers included: on a loop that outlives the process they would go on
// withdrawing routes from the RIB.
func (p *Process) Stop() {
	cancel := func(timers ...*eventloop.Timer) {
		for _, t := range timers {
			if t != nil {
				t.Cancel()
			}
		}
	}
	cancel(p.updateTmr, p.trigTmr)
	p.routes.Walk(func(_ netip.Prefix, r *ripRoute) bool {
		cancel(r.expiry, r.gc)
		return true
	})
}

// RouteCount returns the number of live (non-GC) routes.
func (p *Process) RouteCount() int {
	n := 0
	p.routes.Walk(func(_ netip.Prefix, r *ripRoute) bool {
		if !r.deleted {
			n++
		}
		return true
	})
	return n
}

// InjectLocal originates a route (connected networks, redistribution) at
// its metric, clamped to RIP's reachable range: 0 becomes 1, and anything
// at or past Infinity becomes Infinity-1 — originated means reachable, and
// a metric RIP cannot send would make a neighbour refuse the whole update.
func (p *Process) InjectLocal(net netip.Prefix, metric uint32, tag uint16) {
	net = net.Masked()
	metric = min(max(metric, 1), Infinity-1)
	r := &ripRoute{net: net, metric: metric, tag: tag, local: true, changed: true}
	p.routes.Insert(net, r)
	if p.rib != nil {
		p.ribAdd(route.Entry{Net: net, Metric: metric, IfName: p.cfg.IfName})
	}
	p.scheduleTriggered()
}

// WithdrawLocal withdraws an originated route.
func (p *Process) WithdrawLocal(net netip.Prefix) {
	net = net.Masked()
	if r, ok := p.routes.Get(net); ok && r.local {
		p.expireRoute(r)
	}
}

// RedistAdd / RedistDelete implement rib.Redistributor, bound as
// redist4/0.1: a redistributed route is a local route at its own metric.
func (p *Process) RedistAdd(e route.Entry) { p.InjectLocal(e.Net, e.Metric, 0) }

// RedistDelete implements rib.Redistributor.
func (p *Process) RedistDelete(e route.Entry) { p.WithdrawLocal(e.Net) }

// receive processes one datagram (runs on the loop).
func (p *Process) receive(src netip.AddrPort, payload []byte) {
	pkt, err := Decode(payload)
	if err != nil {
		return // malformed packets are dropped, never fatal
	}
	switch pkt.Command {
	case CmdRequest:
		p.sendFullTo(src)
	case CmdResponse:
		if src.Addr() == p.cfg.LocalAddr {
			return // our own broadcast echoed back
		}
		p.updatesRecv++
		p.batching = true
		for _, rte := range pkt.RTEs {
			p.processRTE(src.Addr(), rte)
		}
		p.batching = false
		p.flushRIBAdds()
	}
}

// ribAdd pushes one route to the RIB: buffered while a received update
// is being applied, so the whole packet ships as one run, and a run of
// one otherwise.
func (p *Process) ribAdd(e route.Entry) {
	if p.rib == nil {
		return
	}
	p.pendAdds = append(p.pendAdds, e)
	if !p.batching {
		p.flushRIBAdds()
	}
}

// ribDelete pushes one withdrawal, flushing buffered adds first so the
// RIB sees the packet's operations in order.
func (p *Process) ribDelete(net netip.Prefix) {
	if p.rib == nil {
		return
	}
	p.flushRIBAdds()
	p.rib.DeleteRoutes([]netip.Prefix{net})
}

func (p *Process) flushRIBAdds() {
	if len(p.pendAdds) == 0 {
		return
	}
	p.rib.AddRoutes(p.pendAdds)
	p.pendAdds = p.pendAdds[:0]
}

// processRTE applies RFC 2453 §3.9.2 input processing, event-driven:
// each route carries its own expiry timer.
func (p *Process) processRTE(from netip.Addr, rte RTE) {
	metric := rte.Metric + 1
	if metric > Infinity {
		metric = Infinity
	}
	nh := from
	if rte.NextHop.IsValid() {
		nh = rte.NextHop
	}
	existing, ok := p.routes.Get(rte.Net)
	switch {
	case !ok || existing.deleted && metric < Infinity:
		if metric >= Infinity {
			return // no route, unreachable: nothing to do
		}
		r := &ripRoute{
			net: rte.Net, nexthop: nh, metric: metric, tag: rte.Tag,
			changed: true, learnedVia: from,
		}
		p.routes.Insert(rte.Net, r)
		p.armExpiry(r)
		p.ribAdd(route.Entry{Net: rte.Net, NextHop: nh, Metric: metric, IfName: p.cfg.IfName})
		p.scheduleTriggered()
	case existing.local:
		return // never accept updates for our own routes
	case existing.learnedVia == from:
		// Same neighbour: always believe it (refresh or change).
		if metric >= Infinity {
			if !existing.deleted {
				p.expireRoute(existing)
			}
			return
		}
		changed := existing.metric != metric || existing.nexthop != nh
		existing.metric = metric
		existing.nexthop = nh
		existing.tag = rte.Tag
		existing.deleted = false
		p.armExpiry(existing)
		if changed {
			existing.changed = true
			p.ribAdd(route.Entry{Net: rte.Net, NextHop: nh, Metric: metric, IfName: p.cfg.IfName})
			p.scheduleTriggered()
		}
	default:
		// Different neighbour: better metric wins.
		if metric < existing.metric && !existing.deleted {
			existing.metric = metric
			existing.nexthop = nh
			existing.learnedVia = from
			existing.tag = rte.Tag
			existing.changed = true
			p.armExpiry(existing)
			p.ribAdd(route.Entry{Net: rte.Net, NextHop: nh, Metric: metric, IfName: p.cfg.IfName})
			p.scheduleTriggered()
		}
	}
}

// armExpiry (re)starts a route's own timeout timer — per-route timers,
// not a scanner.
func (p *Process) armExpiry(r *ripRoute) {
	if r.expiry != nil {
		r.expiry.Cancel()
	}
	r.expiry = p.loop.OneShot(p.cfg.Timeout, func() { p.expireRoute(r) })
}

// expireRoute marks a route unreachable, withdraws it from the RIB,
// triggers an update, and schedules garbage collection.
func (p *Process) expireRoute(r *ripRoute) {
	if r.deleted {
		return
	}
	r.deleted = true
	r.metric = Infinity
	r.changed = true
	if r.expiry != nil {
		r.expiry.Cancel()
	}
	p.ribDelete(r.net)
	p.scheduleTriggered()
	r.gc = p.loop.OneShot(p.cfg.GCTime, func() {
		if cur, ok := p.routes.Get(r.net); ok && cur == r && r.deleted {
			p.routes.Delete(r.net)
		}
	})
}

// scheduleTriggered coalesces triggered updates behind a short delay
// (RFC 2453 §3.10.1).
func (p *Process) scheduleTriggered() {
	if p.trigTmr != nil && p.trigTmr.Scheduled() {
		return
	}
	p.trigTmr = p.loop.OneShot(p.cfg.TriggeredDelay, func() {
		p.triggered++
		p.sendChanged()
	})
}

// buildRTEs assembles output RTEs with split horizon and poisoned
// reverse relative to the broadcast domain (routes learned on this
// interface advertise metric 16 back onto it).
func (p *Process) buildRTEs(changedOnly bool) []RTE {
	var out []RTE
	p.routes.Walk(func(_ netip.Prefix, r *ripRoute) bool {
		if changedOnly && !r.changed {
			return true
		}
		metric := r.metric
		if !r.local && r.learnedVia.IsValid() {
			// Poisoned reverse: one shared broadcast domain in this
			// simulation, so learned routes are poisoned.
			metric = Infinity
		}
		out = append(out, RTE{Tag: r.tag, Net: r.net, Metric: metric})
		if changedOnly {
			r.changed = false
		}
		return true
	})
	return out
}

func (p *Process) sendRTEs(rtes []RTE, to *netip.AddrPort) {
	for off := 0; off < len(rtes); off += maxRTEs {
		end := min(off+maxRTEs, len(rtes))
		pkt := Packet{Command: CmdResponse, RTEs: rtes[off:end]}
		buf, err := pkt.Append(nil)
		if err != nil {
			return
		}
		p.updatesSent++
		if to != nil {
			p.tr.Send(*to, buf)
		} else {
			p.tr.Broadcast(buf)
		}
	}
}

func (p *Process) sendPeriodic() {
	rtes := p.buildRTEs(false)
	if len(rtes) > 0 {
		p.sendRTEs(rtes, nil)
	}
}

func (p *Process) sendChanged() {
	rtes := p.buildRTEs(true)
	if len(rtes) > 0 {
		p.sendRTEs(rtes, nil)
	}
}

func (p *Process) sendFullTo(dst netip.AddrPort) {
	rtes := p.buildRTEs(false)
	if len(rtes) > 0 {
		p.sendRTEs(rtes, &dst)
	}
}

// Lookup returns RIP's route for net (tests).
func (p *Process) Lookup(net netip.Prefix) (metric uint32, ok bool) {
	r, found := p.routes.Get(net.Masked())
	if !found || r.deleted {
		return 0, false
	}
	return r.metric, true
}
