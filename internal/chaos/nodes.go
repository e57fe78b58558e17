package chaos

import (
	"fmt"
	"net/netip"

	"xorp/internal/eventloop"
	"xorp/internal/fea"
	"xorp/internal/fwd"
	"xorp/internal/kernel"
	"xorp/internal/ospf"
	"xorp/internal/rib"
	"xorp/internal/rip"
	"xorp/internal/route"
	"xorp/internal/telemetry"
)

// ribRec stands in for a node's RIB+FIB: it publishes the protocol's
// runs (both rip.RIBClient and ospf.RIBClient have this shape) as
// immutable fwd snapshots, one generation per run — the same data-plane
// read path the forwarding workers use, so the chaos matrix's hop-by-hop
// walk probes what a packet would actually see, not the control plane's
// map. The publisher deliberately survives a process kill: the
// forwarding table keeps forwarding while the control process is down,
// which is exactly the graceful-restart property the process-kill
// scenario measures.
type ribRec struct {
	pub   *fwd.Publisher
	batch *rib.FIBBatch // reused: the protocols call from the one sim loop
	// tracer, when wired, opens an apply→publish tail trace for every
	// route pushed (origin StageFIBApply); the publisher completes it at
	// StageSnapPub. Wall-clock, not sim-clock: it measures the real cost
	// of making a route visible to the data plane.
	tracer *telemetry.Tracer
}

func (r *ribRec) AddRoutes(es []route.Entry) {
	if r.tracer.Enabled() {
		r.tracer.StampBatch(telemetry.StageFIBApply, func(yield func(netip.Prefix)) {
			for i := range es {
				yield(es[i].Net)
			}
		})
	}
	r.batch.Reset()
	for i := range es {
		r.batch.Add(es[i])
	}
	r.pub.Apply(r.batch)
}

func (r *ribRec) DeleteRoutes(nets []netip.Prefix) {
	r.batch.Reset()
	for _, net := range nets {
		r.batch.Delete(route.Entry{Net: net})
	}
	r.pub.Apply(r.batch)
}

// Snapshot returns the node's current published forwarding table.
func (r *ribRec) Snapshot() *fwd.Snapshot { return r.pub.Current() }

// node is one light router: an FEA attached to the simulated subnet, a
// recording RIB, and a single IGP process that can be killed and
// respawned.
type node struct {
	idx  int
	addr netip.Addr
	fea  *fea.Process
	rec  *ribRec
	rip  *rip.Process
	ospf *ospf.Process
}

// newNode attaches a light router to the network. The FEA keeps the
// node's network attachment and FIB across protocol restarts, like the
// real assembly.
func newNode(loop *eventloop.Loop, netw *kernel.Network, idx int, addr netip.Addr) (*node, error) {
	host, err := netw.Attach(addr)
	if err != nil {
		return nil, err
	}
	return &node{
		idx:  idx,
		addr: addr,
		fea:  fea.New(loop, kernel.NewFIB(), host, nil),
		rec:  &ribRec{pub: fwd.NewPublisher(), batch: rib.NewFIBBatch()},
	}, nil
}

// startProto (re)creates the node's protocol process and starts it,
// re-announcing its originated prefixes — the respawn path re-runs it
// from scratch, as the supervisor re-applies a config slice.
func (n *node) startProto(loop *eventloop.Loop, proto string, originate map[netip.Prefix]uint32) error {
	switch proto {
	case "rip":
		tr := &rip.FEATransport{
			BindFn: func(port uint16, recv func(src netip.AddrPort, payload []byte)) error {
				return n.fea.UDPBind(port, "rip", recv)
			},
			SendFn:      n.fea.UDPSend,
			BroadcastFn: n.fea.UDPBroadcast,
		}
		p := rip.NewProcess(loop, rip.Config{LocalAddr: n.addr, IfName: "eth0"}, tr, n.rec)
		if err := p.Start(); err != nil {
			return err
		}
		for pfx, metric := range originate {
			p.InjectLocal(pfx, metric, 0)
		}
		n.rip = p
	case "ospf":
		tr := &ospf.FEATransport{
			BindFn: func(group netip.Addr, port uint16, recv func(src netip.AddrPort, payload []byte)) error {
				if err := n.fea.UDPJoinGroup(group); err != nil {
					return err
				}
				return n.fea.UDPBind(port, "ospf", recv)
			},
			SendFn: n.fea.UDPSend,
		}
		p := ospf.NewProcess(loop, ospf.Config{LocalAddr: n.addr, IfName: "eth0"}, tr, n.rec)
		if err := p.Start(); err != nil {
			return err
		}
		for pfx, metric := range originate {
			p.OriginatePrefix(pfx, uint16(metric))
		}
		n.ospf = p
	default:
		return fmt.Errorf("chaos: unknown protocol %q", proto)
	}
	return nil
}

// killProto models a process crash: timers stop, the FEA releases the
// dead incarnation's port bindings (so a respawn can re-bind), and the
// process pointer is dropped. The node's rec — its FIB — is retained.
func (n *node) killProto() {
	if n.rip != nil {
		n.rip.Stop()
		n.fea.UDPUnbind("rip")
		n.rip = nil
	}
	if n.ospf != nil {
		n.ospf.Stop()
		n.fea.UDPUnbind("ospf")
		n.ospf = nil
	}
}
