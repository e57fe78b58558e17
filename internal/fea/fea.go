// Package fea implements the Forwarding Engine Abstraction (paper §3):
// the stable API between the control plane and the forwarding plane. The
// FEA installs routes into the (simulated) kernel FIB, exposes interface
// information, and — as the security framework's network-access relay
// (§7) — sends and receives routing protocol packets on behalf of
// sandboxed processes like RIP and OSPF (including multicast group
// membership), so they never need raw network access.
package fea

import (
	"fmt"
	"net/netip"

	"xorp/internal/eventloop"
	"xorp/internal/fwd"
	"xorp/internal/kernel"
	"xorp/internal/rib"
	"xorp/internal/route"
	"xorp/internal/telemetry"
	"xorp/internal/xif"
	"xorp/internal/xipc"
)

// Process is the FEA process.
type Process struct {
	loop    *eventloop.Loop
	fib     *kernel.FIB
	backend fwd.Backend  // forwarding-plane sink + snapshot publisher
	host    *kernel.Host // attachment to the simulated datagram network

	// udpClients maps bound port -> client target to push received
	// datagrams to (the RIP and OSPF relay path). Loop-owned: binds
	// arrive as fea_udp XRLs.
	udpClients map[uint16]string
	recvPush   *xif.FEAUDPRecvClient // fea_udp_client/0.1 stub, nil without a router

	// listBatch carries the run of an fti/0.2 add or delete XRL into
	// ApplyBatch; reused across XRLs (handlers run on the loop).
	listBatch *rib.FIBBatch

	// tracer is the process's probe: StageArriveFEA and StageFIBApply as
	// a batch arrives and enters the backend, StageSnapPub (stamped by the
	// backend's publisher) as it is published; profile/0.1 renders it.
	tracer *telemetry.Tracer

	metrics  *telemetry.Registry
	mApplies *telemetry.Counter // fea_fib_writes_total
}

// New returns an FEA bound to fib. host may be nil (no packet relay);
// router enables pushes to UDP clients.
func New(loop *eventloop.Loop, fib *kernel.FIB, host *kernel.Host, router *xipc.Router) *Process {
	p := &Process{
		loop:       loop,
		fib:        fib,
		host:       host,
		udpClients: make(map[uint16]string),
		listBatch:  rib.NewFIBBatch(),
		backend:    fwd.NewSimBackend(fib),
	}
	p.SetTracer(telemetry.NewTracer())
	if router != nil {
		p.recvPush = xif.NewFEAUDPRecvClient(router)
	}

	// Live metrics. The kernel FIB counts its table under its mutex, and the
	// live snapshot's generation, which each publish advances in place, is
	// an atomic load, so every gauge here is safe from any scrape goroutine,
	// not just the process loop, and none pins; after a publish
	// fea_fib_entries and the snapshot's length agree, because they count
	// one table.
	p.metrics = telemetry.NewRegistry()
	p.mApplies = p.metrics.Counter("fea_fib_writes_total", "forwarding ops (adds, replaces, deletes) handed to the backend")
	p.metrics.GaugeFunc("fea_fib_entries", "entries installed in the kernel FIB",
		func() float64 { return float64(p.fib.Len()) })
	p.metrics.GaugeFunc("fea_snapshot_gen", "published forwarding snapshot generation",
		func() float64 { return float64(p.backend.Current().Gen()) })
	p.metrics.GaugeFunc("fea_queue_depth", "event-loop input backlog",
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

// SetTracer replaces the process's tracer, in the FEA and in its backend
// (which stamps StageSnapPub at snapshot publication), e.g. with one
// shared by BGP and the RIB. Call on the process loop, before routes
// flow.
func (p *Process) SetTracer(tr *telemetry.Tracer) {
	p.tracer = tr
	if bt, ok := p.backend.(interface{ SetTracer(*telemetry.Tracer) }); ok {
		bt.SetTracer(tr)
	}
}

// FIB returns the underlying forwarding table.
func (p *Process) FIB() *kernel.FIB { return p.fib }

// Backend returns the forwarding-plane backend every entry write goes
// through (a fwd.SimBackend over FIB() by default).
func (p *Process) Backend() fwd.Backend { return p.backend }

// SetBackend swaps the forwarding-plane backend (e.g. for one that
// wraps the default to time its writes). Call before any routes are
// installed.
func (p *Process) SetBackend(b fwd.Backend) { p.backend = b }

// Snapshots returns the published-snapshot source forwarding workers
// (and any other data-plane reader) should chase: Current on the process
// loop, Pin anywhere else.
func (p *Process) Snapshots() fwd.Source { return p.backend }

// ApplyBatch installs a batch of forwarding writes in one pass, in
// arrival order — the receiving end of the RIB's fib sink and of an fti
// list XRL, and the one way into the forwarding plane ("the FEA will
// unconditionally install the route in the kernel", §8.2). The batch lands
// in the backend as one transaction and publishes as one snapshot
// generation, so a forwarding worker sees either the table before the
// batch or after it, never between. StageFIBApply (route_enter_kernel) is
// stamped before the write, because the publish inside it closes the
// trace. Individual entry failures don't abort the rest; the first error
// is returned.
func (p *Process) ApplyBatch(b *rib.FIBBatch) error {
	if p.tracer.On(telemetry.StageArriveFEA) {
		p.tracer.StampBatch(telemetry.StageArriveFEA, b.Nets)
	}
	if p.tracer.On(telemetry.StageFIBApply) {
		p.tracer.StampBatch(telemetry.StageFIBApply, b.Nets)
	}
	p.mApplies.Add(uint64(b.Len()))
	return p.backend.Apply(b)
}

// RIBClient adapts the FEA as the RIB's FIBClient for in-process
// assemblies.
type RIBClient struct{ P *Process }

// FIBApplyBatch implements rib.FIBClient.
func (c RIBClient) FIBApplyBatch(b *rib.FIBBatch) { c.P.ApplyBatch(b) }

// UDPBind binds a relay port on behalf of client; received datagrams are
// pushed to the client target's fea_udp_client/0.1/recv method. A port
// is the client's, not its incarnation's: the push goes to whatever
// process holds the target name, so a respawn's re-bind of its port keeps
// the binding, and a dead client's datagrams fail to resolve.
func (p *Process) UDPBind(port uint16, client string) error {
	if p.host == nil {
		return fmt.Errorf("fea: no network attachment")
	}
	if owner, ok := p.udpClients[port]; ok && owner == client {
		return nil
	}
	err := p.host.Bind(port, func(src netip.AddrPort, payload []byte) {
		// Handler runs on the sender's goroutine; hop onto our loop.
		p.loop.Dispatch(func() {
			if p.recvPush != nil {
				p.recvPush.Recv(client, src, payload, nil)
			}
		})
	})
	if err == nil {
		p.udpClients[port] = client
	}
	return err
}

// UDPJoinGroup subscribes the router to a multicast group on behalf of
// a sandboxed protocol (OSPF's AllSPFRouters hellos); datagrams for the
// group arrive on whatever port the client bound with UDPBind.
func (p *Process) UDPJoinGroup(group netip.Addr) error {
	if p.host == nil {
		return fmt.Errorf("fea: no network attachment")
	}
	return p.host.JoinGroup(group)
}

// UDPLeaveGroup unsubscribes from a multicast group.
func (p *Process) UDPLeaveGroup(group netip.Addr) error {
	if p.host == nil {
		return fmt.Errorf("fea: no network attachment")
	}
	p.host.LeaveGroup(group)
	return nil
}

// UDPSend relays one datagram from srcPort to dst (multicast
// destinations fan out to the group's members).
func (p *Process) UDPSend(srcPort uint16, dst netip.AddrPort, payload []byte) error {
	if p.host == nil {
		return fmt.Errorf("fea: no network attachment")
	}
	p.host.SendTo(srcPort, dst, payload)
	return nil
}

// UDPBroadcast relays a datagram to all on-link neighbours (RIP's
// multicast updates).
func (p *Process) UDPBroadcast(srcPort, dstPort uint16, payload []byte) error {
	if p.host == nil {
		return fmt.Errorf("fea: no network attachment")
	}
	p.host.Broadcast(srcPort, dstPort, payload)
	return nil
}

// feaServer adapts the Process as the typed xif server for fti/0.2 and
// ifmgr/0.1.
type feaServer struct{ p *Process }

// AddEntries4 installs an add_entries4 list as one ApplyBatch: one
// backend transaction and one snapshot generation however long the run.
func (s feaServer) AddEntries4(es []route.Entry) error {
	if len(es) == 0 {
		return nil
	}
	b := s.p.listBatch
	b.Reset()
	for i := range es {
		b.Add(es[i])
	}
	return s.p.ApplyBatch(b)
}

// DeleteEntries4 removes a run as one ApplyBatch. A prefix with no entry
// is skipped and reported (the first such error is returned); the others
// are still removed.
func (s feaServer) DeleteEntries4(nets []netip.Prefix) error {
	var firstErr error
	snap := s.p.backend.Current()
	b := s.p.listBatch
	b.Reset()
	for _, net := range nets {
		if _, ok := snap.Get(net); !ok {
			if firstErr == nil {
				firstErr = fmt.Errorf("fea: no FIB entry %v", net)
			}
			continue
		}
		b.Delete(route.Entry{Net: net})
	}
	if b.Len() == 0 {
		return firstErr
	}
	if err := s.p.ApplyBatch(b); firstErr == nil {
		firstErr = err
	}
	return firstErr
}

// LookupEntry4 answers from the published snapshot — the table the
// forwarding plane reads — so an XRL lookup and a data-plane lookup can
// never disagree. It runs on the loop that makes every commit, so the
// snapshot is valid without a pin, and a lookup costs the next commit no
// copy.
func (s feaServer) LookupEntry4(addr netip.Addr) (xif.FTILookup, error) {
	e, ok := s.p.backend.Current().Lookup(addr)
	if !ok {
		return xif.FTILookup{}, nil
	}
	return xif.FTILookup{Found: true, Entry: e}, nil
}

func (s feaServer) GetInterfaces() ([]string, error) {
	var out []string
	for _, i := range s.p.fib.Interfaces() {
		out = append(out, fmt.Sprintf("%s %v %d %v", i.Name, i.Addr, i.MTU, i.Up))
	}
	return out, nil
}

// RegisterXRLs exposes fti/0.2 (forwarding table), ifmgr/0.1 (interfaces),
// fea_udp/0.1 (packet relay, the Process's own UDP methods), stats/0.1 and
// profile/0.1 on target t through their spec-checked bindings.
func (p *Process) RegisterXRLs(t *xipc.Target) {
	srv := feaServer{p}
	xif.BindFTI(t, srv)
	xif.BindIfMgr(t, srv)
	xif.BindFEAUDP(t, p)
	xif.BindStatsRegistry(t, p.metrics.RenderLines, p.metrics.Get)
	xif.BindProfile(t, telemetry.ProfileView(func() *telemetry.Tracer { return p.tracer }))
}
