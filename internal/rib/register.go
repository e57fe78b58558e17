package rib

import (
	"net/netip"
	"slices"

	"xorp/internal/route"
)

// RegistrationAnswer is what a client learns when registering interest in
// an address (§5.2.1): whether a route covers it, that route's data, and
// the covering subnet the answer is valid for — the largest enclosing
// subnet not overlaid by a more specific route (Figure 8). Because no
// covering subnet ever overlaps another in the client's cache, clients
// can use balanced trees for fast lookup.
type RegistrationAnswer struct {
	Resolves bool
	Covering netip.Prefix
	Route    route.Entry // valid when Resolves
}

// registration is one client's interest in one covering subnet.
type registration struct {
	client   string
	covering netip.Prefix
}

// finalTable is the register stage's read-only view of the RIB's final
// table, which the ExtInt stage maintains.
type finalTable interface {
	LongestMatch(addr netip.Addr) (netip.Prefix, route.Stored, bool)
	HasEntryInside(p netip.Prefix) bool
}

// RegisterStage implements interest registration. It is a pass-through
// stage that keeps registrations, not routes: on any route change
// overlapping a registration's covering subnet, the client is sent a
// "cache invalidated" message and the registration dropped (the client
// re-queries). Answers are read from the final table upstream, which is
// updated before the run carrying a change is flushed: mid-flush it may
// run ahead of what this stage has been told, never behind. Answers are
// computed on the RIB loop between stage calls, where the two agree; one
// made against the table ahead is at worst invalidated once more.
type RegisterStage struct {
	base
	final finalTable
	regs  []registration
	// notify delivers an invalidation to a client (XRL in production).
	notify func(client string, covering netip.Prefix)
}

// NewRegisterStage returns a register stage answering from final; notify
// delivers cache invalidations.
func NewRegisterStage(name string, final finalTable, notify func(client string, covering netip.Prefix)) *RegisterStage {
	if notify == nil {
		notify = func(string, netip.Prefix) {}
	}
	return &RegisterStage{base: base{name: name}, final: final, notify: notify}
}

// RegisterInterest answers a client's query about addr and records the
// registration, once per client and covering subnet however many of its
// addresses the client asks about.
func (rs *RegisterStage) RegisterInterest(client string, addr netip.Addr) RegistrationAnswer {
	ans := rs.answer(addr)
	if reg := (registration{client: client, covering: ans.Covering}); !slices.Contains(rs.regs, reg) {
		rs.regs = append(rs.regs, reg)
	}
	return ans
}

// DeregisterInterest removes a client's registration for covering.
func (rs *RegisterStage) DeregisterInterest(client string, covering netip.Prefix) {
	for i, r := range rs.regs {
		if r.client == client && r.covering == covering {
			rs.regs = append(rs.regs[:i], rs.regs[i+1:]...)
			return
		}
	}
}

// Registrations reports the live registration count (tests).
func (rs *RegisterStage) Registrations() int { return len(rs.regs) }

// answer computes the Figure 8 answer for addr.
func (rs *RegisterStage) answer(addr netip.Addr) RegistrationAnswer {
	maxBits := addr.BitLen()
	matchNet, e, found := rs.final.LongestMatch(addr)

	// Start from the matching route's subnet (or the whole space when
	// nothing matches) and narrow toward addr until no more-specific
	// route overlays the candidate.
	var s netip.Prefix
	if found {
		s = matchNet
	} else {
		s, _ = addr.Prefix(0)
	}
	for s.Bits() < maxBits && rs.final.HasEntryInside(s) {
		narrowed, err := addr.Prefix(s.Bits() + 1)
		if err != nil {
			break
		}
		s = narrowed
	}
	if found {
		return RegistrationAnswer{Resolves: true, Covering: s, Route: e.Entry(matchNet)}
	}
	return RegistrationAnswer{Resolves: false, Covering: s}
}

// routeChanged invalidates registrations overlapping net.
func (rs *RegisterStage) routeChanged(net netip.Prefix) {
	if len(rs.regs) == 0 {
		return
	}
	kept := rs.regs[:0]
	for _, r := range rs.regs {
		if r.covering.Overlaps(net) {
			rs.notify(r.client, r.covering)
			continue
		}
		kept = append(kept, r)
	}
	rs.regs = kept
}

// Add implements Stage: invalidate per entry, then pass the whole run
// downstream in one call.
func (rs *RegisterStage) Add(run []route.Entry) {
	for i := range run {
		rs.routeChanged(run[i].Net)
	}
	if rs.next != nil {
		rs.next.Add(run)
	}
}

// Replace implements Stage.
func (rs *RegisterStage) Replace(old, new route.Entry) {
	rs.routeChanged(new.Net)
	if rs.next != nil {
		rs.next.Replace(old, new)
	}
}

// Delete implements Stage.
func (rs *RegisterStage) Delete(run []route.Entry) {
	for i := range run {
		rs.routeChanged(run[i].Net)
	}
	if rs.next != nil {
		rs.next.Delete(run)
	}
}

// RedistFilter decides whether (and how) a route is redistributed; nil
// return drops it. The policy framework compiles to one of these.
type RedistFilter func(route.Entry) *route.Entry

// Redistributor receives redistributed routes (e.g. BGP's originate XRLs,
// RIP's route injection).
type Redistributor interface {
	RedistAdd(e route.Entry)
	RedistDelete(e route.Entry)
}

// RedistStage is a dynamic stage inserted when a protocol asks for route
// redistribution (§5.2): a pass-through that mirrors the filtered route
// subset into the subscriber.
type RedistStage struct {
	base
	filter RedistFilter
	out    Redistributor
	class  string // the subscriber's Finder class
	// quiet is set while the subscriber is dead: the stage mirrors and
	// sends nothing, and passes runs on.
	quiet bool
	// mirrored tracks what the subscriber was given, so filter changes
	// and deletes stay consistent.
	mirrored map[netip.Prefix]route.Entry
}

// NewRedistStage returns a redist stage with the given filter (nil =
// everything) feeding out.
func NewRedistStage(name string, filter RedistFilter, out Redistributor) *RedistStage {
	if filter == nil {
		filter = func(e route.Entry) *route.Entry { return &e }
	}
	return &RedistStage{
		base:     base{name: name},
		filter:   filter,
		out:      out,
		mirrored: make(map[netip.Prefix]route.Entry),
	}
}

func (rd *RedistStage) apply(e route.Entry) {
	if rd.quiet {
		return
	}
	want := rd.filter(e)
	have, had := rd.mirrored[e.Net]
	switch {
	case want != nil && !had:
		rd.mirrored[e.Net] = *want
		rd.out.RedistAdd(*want)
	case want == nil && had:
		delete(rd.mirrored, e.Net)
		rd.out.RedistDelete(have)
	case want != nil && had && !want.Equal(have):
		rd.mirrored[e.Net] = *want
		rd.out.RedistDelete(have)
		rd.out.RedistAdd(*want)
	}
}

func (rd *RedistStage) drop(e route.Entry) {
	if have, had := rd.mirrored[e.Net]; had {
		delete(rd.mirrored, e.Net)
		rd.out.RedistDelete(have)
	}
}

// Add implements Stage: mirror per entry, pass the run through.
func (rd *RedistStage) Add(run []route.Entry) {
	for i := range run {
		rd.apply(run[i])
	}
	if rd.next != nil {
		rd.next.Add(run)
	}
}

// Replace implements Stage.
func (rd *RedistStage) Replace(old, new route.Entry) {
	rd.apply(new)
	if rd.next != nil {
		rd.next.Replace(old, new)
	}
}

// Delete implements Stage.
func (rd *RedistStage) Delete(run []route.Entry) {
	for i := range run {
		rd.drop(run[i])
	}
	if rd.next != nil {
		rd.next.Delete(run)
	}
}

// MirroredLen reports how many routes the subscriber currently has.
func (rd *RedistStage) MirroredLen() int { return len(rd.mirrored) }
