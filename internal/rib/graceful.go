package rib

import (
	"time"

	"xorp/internal/eventloop"
	"xorp/internal/route"
)

// Graceful restart (paper §3: a protocol process "can crash without
// taking the router down"). The RIB subscribes to Finder death events;
// when a protocol process dies, its origin routes are marked stale —
// still resolvable, still in the FIB — instead of deleted. They are
// swept only when the grace timer expires or the respawned process
// signals end-of-resync (the rib/1.0 resync_complete XRL). Re-learned
// identical routes atomically un-stale with zero FIB churn.

// DefaultGracePeriod bounds how long a dead protocol's routes are
// retained without a resync signal (BGP graceful restart's "restart
// time"; RFC 4724 defaults in the low minutes).
const DefaultGracePeriod = 2 * time.Minute

// classProtocols maps a Finder component class to the origin tables it
// owns: the protocols whose routes a death of that class strands.
var classProtocols = map[string][]route.Protocol{
	"bgp":  {route.ProtoEBGP, route.ProtoIBGP},
	"ospf": {route.ProtoOSPF},
	"rip":  {route.ProtoRIP},
}

// HandleFinderEvent reacts to component lifetime events. A death of a
// protocol class marks that protocol's routes stale and arms the grace
// timer; the respawned process re-announces, and either resync_complete
// or the timer closes the window. A redistribution stage lives as long
// as its subscriber: a death of its class quiets it (it forgets its
// mirror and sends nothing, so a crash withdraws nothing), and a birth
// primes it afresh from the table — a stage spliced before its
// subscriber registered, and a respawned subscriber, are fed alike. Wire
// it with Router.SetFinderEvent plus a Finder watch; runs on the RIB loop.
func (p *Process) HandleFinderEvent(event, class, instance string) {
	for _, s := range p.chain {
		rd, ok := s.(*RedistStage)
		switch {
		case !ok || rd.class != class:
		case event == "death":
			rd.quiet = true
			clear(rd.mirrored)
		case event == "birth":
			p.prime(rd)
		}
	}
	if event == "death" {
		p.HandleDeath(class)
	}
}

// HandleDeath marks every route owned by the dead class stale and arms
// (or re-arms) the per-protocol grace timer. Classes owning no origin
// table (fea, rib itself, ...) are ignored. Runs on the RIB loop.
func (p *Process) HandleDeath(class string) {
	for _, proto := range classProtocols[class] {
		o, ok := p.origins[proto]
		if !ok || o.Len() == 0 {
			continue
		}
		o.MarkAllStale()
		proto := proto
		if t := p.graceTimers[proto]; t != nil {
			t.Cancel()
		}
		d := p.gracePeriod
		if d <= 0 {
			d = DefaultGracePeriod
		}
		if p.graceTimers == nil {
			p.graceTimers = make(map[route.Protocol]*eventloop.Timer)
		}
		p.graceTimers[proto] = p.loop.OneShot(d, func() {
			delete(p.graceTimers, proto)
			p.sweepProto(proto)
		})
	}
}

// ResyncComplete ends the grace window for proto: the respawned process
// has re-announced everything it still knows, so remaining stale routes
// are swept and the grace timer cancelled. Returns the number swept.
// Runs on the RIB loop.
func (p *Process) ResyncComplete(proto route.Protocol) int {
	if t := p.graceTimers[proto]; t != nil {
		t.Cancel()
		delete(p.graceTimers, proto)
	}
	return p.sweepProto(proto)
}

func (p *Process) sweepProto(proto route.Protocol) int {
	o, ok := p.origins[proto]
	if !ok {
		return 0
	}
	return o.SweepStale()
}

// StaleCount reports how many of proto's routes are currently retained
// stale (0 for unknown protocols).
func (p *Process) StaleCount(proto route.Protocol) int {
	if o, ok := p.origins[proto]; ok {
		return o.StaleCount()
	}
	return 0
}
