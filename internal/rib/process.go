package rib

import (
	"fmt"
	"net/netip"
	"slices"
	"time"

	"xorp/internal/core"
	"xorp/internal/eventloop"
	"xorp/internal/route"
	"xorp/internal/telemetry"
	"xorp/internal/xif"
	"xorp/internal/xipc"
)

// FIBClient receives the RIB's final forwarding decisions (the "Routes to
// Forwarding Engine" arrow of Figure 7) as batches of writes in arrival
// order, one per run or Replace the fib sink is sent. The FEA applies a
// batch to the kernel FIB in one pass, in order; the XRL client ships it
// as fti XRLs. The batch is only valid for the duration of the call —
// implementations must not retain it.
type FIBClient interface {
	FIBApplyBatch(b *FIBBatch)
}

// Process is the XORP RIB process: the stage network of Figure 7 plus the
// rib/1.0 XRL interface.
type Process struct {
	loop *eventloop.Loop

	origins  map[route.Protocol]*OriginTable
	extint   *ExtIntStage
	register *RegisterStage
	feeds    map[string]*RedistStage // redistribution stages by name
	chain    []Stage                 // what extint feeds: redists ... register, fibSink
	fib      FIBClient

	router *xipc.Router         // for invalidation pushes; may be nil
	notify *xif.RIBNotifyClient // rib_client/0.1 stub over router

	// Graceful restart (graceful.go): retention bound and the armed
	// per-protocol sweep timers.
	gracePeriod time.Duration
	graceTimers map[route.Protocol]*eventloop.Timer

	// tracer is the process's probe: StageRIBIn as routes enter the origin
	// tables, StageQueuedFEA and StageSentFEA as they leave for the FEA;
	// profile/0.1 renders it.
	tracer *telemetry.Tracer

	metrics *telemetry.Registry
	mEvents *telemetry.Counter // rib_route_events_total
}

// NewProcess assembles the RIB's stage network. fib may be nil (routes
// terminate at the register stage); router enables XRL pushes.
func NewProcess(loop *eventloop.Loop, fib FIBClient, router *xipc.Router) *Process {
	p := &Process{
		loop:    loop,
		origins: make(map[route.Protocol]*OriginTable),
		feeds:   make(map[string]*RedistStage),
		fib:     fib,
		router:  router,
		tracer:  telemetry.NewTracer(),
	}
	if router != nil {
		p.notify = xif.NewRIBNotifyClient(router)
	}

	for _, proto := range []route.Protocol{
		route.ProtoConnected, route.ProtoStatic, route.ProtoRIP,
		route.ProtoOSPF, route.ProtoEBGP, route.ProtoIBGP,
	} {
		p.origins[proto] = NewOriginTable(proto)
	}

	// Internal side: connected + static, then the IGPs (Figure 7's
	// pairwise merge stages).
	m1 := NewMergeStage("merge(connected,static)",
		p.origins[route.ProtoConnected], p.origins[route.ProtoStatic])
	m2 := NewMergeStage("merge(igp,rip)", m1, p.origins[route.ProtoRIP])
	m3 := NewMergeStage("merge(igp,ospf)", m2, p.origins[route.ProtoOSPF])

	// External side: EBGP + IBGP.
	mb := NewMergeStage("merge(ebgp,ibgp)",
		p.origins[route.ProtoEBGP], p.origins[route.ProtoIBGP])

	p.extint = NewExtIntStage("extint", mb, m3)
	p.register = NewRegisterStage("register", p.extint.announced, p.notifyInvalid)
	p.chain = []Stage{p.register, &fibSinkStage{Base: newBase("fib"), proc: p}}
	core.Plumb[route.Entry](p.extint, p.chain...)

	// Internal-side origins may only run ahead of their emissions while no
	// external route could observe their table mid-flush (see
	// OriginTable.batchGate).
	internalGate := func() bool { return p.extint.ExternalRouteCount() == 0 }
	for _, proto := range []route.Protocol{
		route.ProtoConnected, route.ProtoStatic, route.ProtoRIP, route.ProtoOSPF,
	} {
		p.origins[proto].batchGate = internalGate
	}

	// Live metrics. Scrapes arrive through the stats/0.1 XRL handler,
	// which runs on the process loop, so gauge funcs may read the origin
	// tables directly.
	p.metrics = telemetry.NewRegistry()
	p.mEvents = p.metrics.Counter("rib_route_events_total", "route adds and deletes the origin tables accepted")
	p.metrics.GaugeFunc("rib_routes", "final routes after the stage network",
		func() float64 { return float64(p.Len()) })
	for proto, o := range p.origins {
		o := o
		p.metrics.GaugeFunc("rib_routes_"+proto.String(), "routes held by the "+proto.String()+" origin table",
			func() float64 { return float64(o.Len()) })
	}
	p.metrics.GaugeFunc("rib_queue_depth", "event-loop input backlog",
		func() float64 { return float64(loop.QueueDepth()) })
	p.metrics.CounterFunc("trace_dropped_total", "trace records lost to the tracer's bounds",
		func() float64 { return float64(p.tracer.Dropped()) })
	xipc.RegisterIOMetrics(p.metrics)
	return p
}

// Loop returns the process event loop.
func (p *Process) Loop() *eventloop.Loop { return p.loop }

// Metrics returns the process's live metrics registry.
func (p *Process) Metrics() *telemetry.Registry { return p.metrics }

// SetTracer replaces the process's tracer, e.g. with one shared by BGP
// and the FEA. Call on the process loop, before routes flow.
func (p *Process) SetTracer(tr *telemetry.Tracer) { p.tracer = tr }

// LookupBest returns the RIB's final longest-prefix match.
func (p *Process) LookupBest(addr netip.Addr) (route.Entry, bool) {
	return p.extint.LookupBest(addr)
}

// Len returns the number of final routes.
func (p *Process) Len() int { return p.extint.AnnouncedLen() }

// AddRoute feeds one protocol route into its origin table (in-process
// feeders such as static routes): a run of one.
func (p *Process) AddRoute(proto route.Protocol, e route.Entry) error {
	return p.AddRoutes(proto, []route.Entry{e})
}

// AddRoutes feeds a run of same-protocol routes into their origin table
// (the add_routes4 XRL path), which flushes the stage network in
// coalesced runs.
func (p *Process) AddRoutes(proto route.Protocol, es []route.Entry) error {
	o, ok := p.origins[proto]
	if !ok {
		return fmt.Errorf("rib: no origin table for %v", proto)
	}
	if p.tracer.On(telemetry.StageRIBIn) {
		p.stampRun(telemetry.StageRIBIn, es, false)
	}
	p.mEvents.Add(uint64(len(es)))
	o.AddRoutes(es)
	return nil
}

// DeleteRoute removes one protocol route; unlike a list, a single
// withdrawal of a prefix the protocol never announced is an error.
func (p *Process) DeleteRoute(proto route.Protocol, net netip.Prefix) error {
	removed, err := p.deleteRoutes(proto, []netip.Prefix{net})
	if err == nil && removed == 0 {
		err = fmt.Errorf("rib: %v has no route %v", proto, net)
	}
	return err
}

// DeleteRoutes removes a run of protocol routes, skipping prefixes the
// protocol never announced (list churn tolerates raced withdrawals).
func (p *Process) DeleteRoutes(proto route.Protocol, nets []netip.Prefix) error {
	_, err := p.deleteRoutes(proto, nets)
	return err
}

func (p *Process) deleteRoutes(proto route.Protocol, nets []netip.Prefix) (int, error) {
	o, ok := p.origins[proto]
	if !ok {
		return 0, fmt.Errorf("rib: no origin table for %v", proto)
	}
	if p.tracer.On(telemetry.StageRIBIn) {
		p.tracer.StampBatch(telemetry.StageRIBIn, func(yield func(netip.Prefix, bool)) {
			for _, net := range nets {
				yield(net, true)
			}
		})
	}
	removed := o.DeleteRoutes(nets)
	p.mEvents.Add(uint64(removed))
	return removed, nil
}

// AddRedist splices a redistribution stage (a dynamic stage, §5.2) into
// the chain ahead of the register stage and primes the subscriber with
// the current table. class is the subscriber's Finder class: the stage
// lives as long as its subscriber does (HandleFinderEvent).
func (p *Process) AddRedist(name, class string, filter RedistFilter, out Redistributor) (*RedistStage, error) {
	if _, dup := p.feeds[name]; dup {
		return nil, fmt.Errorf("rib: redist %q already exists", name)
	}
	rd := NewRedistStage("redist("+name+")", filter, out)
	rd.class = class
	p.feeds[name] = rd
	// Insert before the register stage (chain = ... register fib).
	idx := len(p.chain) - 2
	p.chain = append(p.chain[:idx], append([]Stage{rd}, p.chain[idx:]...)...)
	core.Plumb[route.Entry](p.extint, p.chain...)
	p.prime(rd)
	return rd, nil
}

// prime forgets what rd's subscriber was given and replays the current
// final table into the subscriber only.
func (p *Process) prime(rd *RedistStage) {
	rd.quiet = false
	clear(rd.mirrored)
	p.extint.Walk(func(e route.Entry) bool {
		rd.apply(e)
		return true
	})
}

// RedistMirrored reports how many routes the named redistribution's
// subscriber currently holds (0 if the stage does not exist).
func (p *Process) RedistMirrored(name string) int {
	if rd, ok := p.feeds[name]; ok {
		return len(rd.mirrored)
	}
	return 0
}

// RedistHas reports whether the named redistribution currently mirrors
// net to its subscriber.
func (p *Process) RedistHas(name string, net netip.Prefix) bool {
	rd, ok := p.feeds[name]
	if !ok {
		return false
	}
	_, has := rd.mirrored[net]
	return has
}

// SetRedistFilter swaps a redistribution stage's filter in place and
// reconciles the subscriber against the current table: newly-passing
// routes are announced, newly-failing ones withdrawn, and routes that
// pass under both filters are left untouched (no churn for the
// unaffected subset — the hot-reload invariant). A quiet stage takes the
// filter and sends nothing: its subscriber's birth primes it.
func (p *Process) SetRedistFilter(name string, filter RedistFilter) error {
	rd, ok := p.feeds[name]
	if !ok {
		return fmt.Errorf("rib: no redist %q", name)
	}
	if filter == nil {
		filter = func(e route.Entry) *route.Entry { return &e }
	}
	rd.filter = filter
	// Replay the final table: apply() adds what now passes, drops what
	// no longer does, and is a no-op where the mirrored entry matches.
	// Nothing is mirrored without a table route behind it (every Delete
	// passes through drop), so the replay reaches every mirrored entry.
	p.extint.Walk(func(e route.Entry) bool {
		rd.apply(e)
		return true
	})
	return nil
}

// RemoveRedist removes a redistribution stage, withdrawing the mirrored
// routes from the subscriber.
func (p *Process) RemoveRedist(name string) error {
	rd, ok := p.feeds[name]
	if !ok {
		return fmt.Errorf("rib: no redist %q", name)
	}
	delete(p.feeds, name)
	p.chain = slices.DeleteFunc(p.chain, func(s Stage) bool { return s == rd })
	core.Plumb[route.Entry](p.extint, p.chain...)
	for _, e := range rd.mirrored {
		rd.out.RedistDelete(e)
	}
	return nil
}

// notifyInvalid pushes a cache-invalidation to a registered client.
func (p *Process) notifyInvalid(client string, covering netip.Prefix) {
	if p.notify == nil {
		return
	}
	p.notify.RouteInfoInvalid(client, covering, nil)
}

// fibSinkStage hands final routes to the FIB client past two §8.2
// profile points: every message, run or Replace, ships as one FIBBatch.
type fibSinkStage struct {
	core.Base[route.Entry]
	proc *Process
	// batch is reused across shipments; nil while one is in flight, so a
	// client that re-enters the RIB from FIBApplyBatch cannot reset the
	// batch it is reading.
	batch *FIBBatch
}

func (s *fibSinkStage) Add(run []route.Entry) { s.ship(run, false, (*FIBBatch).Add) }

func (s *fibSinkStage) Replace(old, new route.Entry) {
	s.ship([]route.Entry{new}, false, func(b *FIBBatch, new route.Entry) { b.Replace(old, new) })
}

func (s *fibSinkStage) Delete(run []route.Entry) { s.ship(run, true, (*FIBBatch).Delete) }

// ship sends run to the FIB client as one batch, rec appending each
// route; del marks a run of deletes for the trace stamps.
func (s *fibSinkStage) ship(run []route.Entry, del bool, rec func(*FIBBatch, route.Entry)) {
	p := s.proc
	if p.tracer.On(telemetry.StageQueuedFEA) {
		p.stampRun(telemetry.StageQueuedFEA, run, del)
	}
	if p.fib == nil {
		return
	}
	if p.tracer.On(telemetry.StageSentFEA) {
		p.stampRun(telemetry.StageSentFEA, run, del)
	}
	b := s.batch
	s.batch = nil
	if b == nil {
		b = NewFIBBatch()
	}
	for i := range run {
		rec(b, run[i])
	}
	p.fib.FIBApplyBatch(b)
	b.Reset()
	s.batch = b
}

// stampRun stamps a run of adds, or deletes, at stage s. Callers guard
// with On(s).
func (p *Process) stampRun(s telemetry.Stage, run []route.Entry, del bool) {
	p.tracer.StampBatch(s, func(yield func(netip.Prefix, bool)) {
		for i := range run {
			yield(run[i].Net, del)
		}
	})
}

// ribServer adapts the Process as a xif.RIBServer: the typed handler
// surface behind the rib/1.0 binding.
type ribServer struct{ p *Process }

func (s ribServer) AddRoutes4(proto route.Protocol, es []route.Entry) error {
	return s.p.AddRoutes(proto, es)
}

func (s ribServer) DeleteRoutes4(proto route.Protocol, nets []netip.Prefix) error {
	return s.p.DeleteRoutes(proto, nets)
}

func (s ribServer) RegisterInterest4(client string, addr netip.Addr) (xif.RIBInterest, error) {
	ans := s.p.register.RegisterInterest(client, addr)
	return xif.RIBInterest{Resolves: ans.Resolves, Covering: ans.Covering, Route: ans.Route}, nil
}

func (s ribServer) DeregisterInterest4(client string, covering netip.Prefix) error {
	s.p.register.DeregisterInterest(client, covering)
	return nil
}

func (s ribServer) LookupRouteByDest4(addr netip.Addr) (xif.RIBLookup, error) {
	e, ok := s.p.LookupBest(addr)
	return xif.RIBLookup{Found: ok, Entry: e}, nil
}

func (s ribServer) ResyncComplete4(proto route.Protocol) (uint32, error) {
	return uint32(s.p.ResyncComplete(proto)), nil
}

// RegisterXRLs exposes the rib/1.0, stats/0.1 and profile/0.1 interfaces
// on target t through their spec-checked bindings.
func (p *Process) RegisterXRLs(t *xipc.Target) {
	xif.BindRIB(t, ribServer{p})
	xif.BindStatsRegistry(t, p.metrics.RenderLines, p.metrics.Get)
	xif.BindProfile(t, telemetry.ProfileView(func() *telemetry.Tracer { return p.tracer }))
}
