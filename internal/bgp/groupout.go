package bgp

import (
	"fmt"
	"net/netip"
	"slices"

	"xorp/internal/telemetry"
	"xorp/internal/trie"
)

// GroupSender consumes pre-encoded UPDATE bytes for one peer-group member.
// buf may hold several concatenated wire messages and is only valid for
// the duration of the call (the group reuses its encode buffer), so
// implementations must copy or write synchronously.
type GroupSender interface {
	SendEncodedUpdate(buf []byte)
}

// GroupSenderFunc adapts a function to GroupSender.
type GroupSenderFunc func(buf []byte)

// SendEncodedUpdate implements GroupSender.
func (f GroupSenderFunc) SendEncodedUpdate(buf []byte) { f(buf) }

// GroupOut is the terminal stage of every output branch. A peer group's
// members share export policy (the filter bank upstream of this stage runs
// once for the whole group), so each outbound UPDATE is encoded once per
// (group, attr-set) and the bytes fanned out to every member; a peer
// outside any group is a group of one.
//
// Split horizon and the IBGP non-reflection rule still differ per member;
// they are applied here, per member, against the route's Src. The group
// keeps one announced map (the shared adj-RIB-out) and nothing per member:
// whether a member was told a prefix is sendable(announced[net].src,
// member), a function of what is already held. The map holds what a replay
// needs beyond its key — the set sent and the source it is screened by — and
// no Route.
//
// A message that cannot be encoded (an attribute set that outgrows the
// 4096-byte limit on export, say) is dropped whole and counted, and the
// adj-RIB-out records only what was sent: the later Delete of a dropped
// prefix sends nothing, and a Replace whose new side is dropped withdraws
// the old.
type GroupOut struct {
	base
	members []*groupMember

	// announced is the group-level adj-RIB-out: what the shared pipeline
	// has emitted, before per-member suppression.
	announced map[netip.Prefix]sentRoute
	// bySrc counts announced routes per Src, so a member's share of the
	// table is a sum over sources, not a walk over prefixes.
	bySrc map[*PeerHandle]int

	encBuf []byte
	netBuf []netip.Prefix

	// Encode/send statistics.
	EncodeCalls int
	SentBytes   int64
	SentMsgs    int64
	// EncodeErrors counts dropped messages. A Process points all of its
	// groups at its bgp_out_encode_errors_total.
	EncodeErrors *telemetry.Counter
}

// sentRoute is the adj-RIB-out's record of one announced prefix.
type sentRoute struct {
	attrs *PathAttrs
	src   *PeerHandle
}

// route builds the Route a lookup or a walk answers with.
func (e sentRoute) route(net netip.Prefix) Route {
	return Route{Net: net, Attrs: e.attrs, Src: e.src}
}

type groupMember struct {
	handle *PeerHandle
	sender GroupSender
}

// NewGroupOut returns an empty group output stage.
func NewGroupOut(name string) *GroupOut {
	return &GroupOut{
		base:         base{name: "groupout(" + name + ")"},
		announced:    make(map[netip.Prefix]sentRoute),
		bySrc:        make(map[*PeerHandle]int),
		EncodeErrors: new(telemetry.Counter),
	}
}

// Members returns the current member count.
func (g *GroupOut) Members() int { return len(g.members) }

// AnnouncedCount returns the group adj-RIB-out size.
func (g *GroupOut) AnnouncedCount() int { return len(g.announced) }

// AddMember joins a peer to the group and returns an error if the handle
// is already a member. The caller resyncs the member (ResyncMember) once
// its session is established.
func (g *GroupOut) AddMember(handle *PeerHandle, sender GroupSender) error {
	for _, m := range g.members {
		if m.handle == handle {
			return fmt.Errorf("bgp: %s already in %s", handle.Name, g.name)
		}
	}
	g.members = append(g.members, &groupMember{handle: handle, sender: sender})
	return nil
}

// RemoveMember detaches a peer from the group.
func (g *GroupOut) RemoveMember(handle *PeerHandle) {
	for i, m := range g.members {
		if m.handle == handle {
			g.members = append(g.members[:i], g.members[i+1:]...)
			return
		}
	}
}

func (g *GroupOut) member(handle *PeerHandle) *groupMember {
	for _, m := range g.members {
		if m.handle == handle {
			return m
		}
	}
	return nil
}

// send delivers the encode buffer to one member, counting msgs messages.
func (g *GroupOut) send(m *groupMember, msgs int) {
	if m.sender == nil {
		return
	}
	m.sender.SendEncodedUpdate(g.encBuf)
	g.SentBytes += int64(len(g.encBuf))
	g.SentMsgs += int64(msgs)
}

// encodeAnnounce fills encBuf with the announcement of nets sharing attrs
// and returns how many messages that took: 0 when the encode failed, which
// is counted.
func (g *GroupOut) encodeAnnounce(attrs *PathAttrs, nets []netip.Prefix) (msgs int) {
	var err error
	g.encBuf, err = AppendUpdateRun(g.encBuf[:0], attrs, nets)
	for off := 0; err == nil && off < len(g.encBuf); msgs++ {
		var n int
		n, _, err = HeaderInfo(g.encBuf[off:])
		off += n
	}
	if err != nil {
		g.EncodeErrors.Inc()
		return 0
	}
	g.EncodeCalls++
	return msgs
}

// encodeWithdraw fills encBuf with the withdrawal of net and reports
// whether that worked; a failure is counted.
func (g *GroupOut) encodeWithdraw(net netip.Prefix) bool {
	var err error
	g.netBuf = append(g.netBuf[:0], net)
	if g.encBuf, err = AppendUpdate(g.encBuf[:0], &UpdateMsg{Withdrawn: g.netBuf}); err != nil {
		g.EncodeErrors.Inc()
		return false
	}
	g.EncodeCalls++
	return true
}

// forget drops one announced route from the per-source count.
func (g *GroupOut) forget(src *PeerHandle) {
	if g.bySrc[src]--; g.bySrc[src] == 0 {
		delete(g.bySrc, src)
	}
}

// Add implements Stage — the shared encode: one wire encode for the whole
// run, one sendable check per member (runs share Src), and the same bytes
// fanned out to every member the run is sendable to.
func (g *GroupOut) Add(run []Route) {
	g.netBuf = g.netBuf[:0]
	for _, r := range run {
		g.netBuf = append(g.netBuf, r.Net)
	}
	msgs := g.encodeAnnounce(run[0].Attrs, g.netBuf)
	if msgs == 0 {
		return
	}
	for _, r := range run {
		g.announced[r.Net] = sentRoute{r.Attrs, r.Src}
	}
	g.bySrc[run[0].Src] += len(run)
	for _, m := range g.members {
		if sendable(run[0].Src, m.handle) {
			g.send(m, msgs)
		}
	}
}

// Replace implements Stage. Encoded once; per member this is an implicit
// withdraw (announce), a plain announce (the member never saw the old
// route), an explicit withdraw (the member must not see the new one), or
// nothing.
func (g *GroupOut) Replace(old, new Route) {
	g.netBuf = append(g.netBuf[:0], new.Net)
	msgs := g.encodeAnnounce(new.Attrs, g.netBuf)
	if msgs == 0 {
		g.Delete(old)
		return
	}
	prev, was := g.announced[new.Net]
	if was {
		g.forget(prev.src)
	}
	g.announced[new.Net] = sentRoute{new.Attrs, new.Src}
	g.bySrc[new.Src]++
	var withdraw []*groupMember
	for _, m := range g.members {
		if sendable(new.Src, m.handle) {
			g.send(m, msgs)
		} else if was && sendable(prev.src, m.handle) {
			withdraw = append(withdraw, m)
		}
	}
	if len(withdraw) > 0 && g.encodeWithdraw(new.Net) {
		for _, m := range withdraw {
			g.send(m, 1)
		}
	}
}

// Delete implements Stage: withdraw from every member that saw the route.
func (g *GroupOut) Delete(r Route) {
	prev, was := g.announced[r.Net]
	if !was {
		return // its announcement was dropped
	}
	delete(g.announced, r.Net)
	g.forget(prev.src)
	if !g.encodeWithdraw(r.Net) {
		return
	}
	for _, m := range g.members {
		if sendable(prev.src, m.handle) {
			g.send(m, 1)
		}
	}
}

// Lookup implements Stage: the group adj-RIB-out.
func (g *GroupOut) Lookup(net netip.Prefix, r *Route) bool {
	e, ok := g.announced[net]
	*r = e.route(net)
	return ok
}

// MemberAnnouncedCount returns how many prefixes one member has been told
// (tests and stats): the announced routes of every source sendable to it.
func (g *GroupOut) MemberAnnouncedCount(handle *PeerHandle) int {
	if g.member(handle) == nil {
		return 0
	}
	n := 0
	for src, routes := range g.bySrc {
		if sendable(src, handle) {
			n += routes
		}
	}
	return n
}

// ResyncMember replays the full member-visible table to one member's
// sender (session re-established), in prefix order. Prefixes are grouped
// by attr set — by content: an exported set is a fresh object per run,
// however few distinct sets the table holds — and sets go in the order of
// their first prefix, so the dump packs NLRI like the live path does and
// two replays of one table are the same bytes.
func (g *GroupOut) ResyncMember(handle *PeerHandle) {
	m := g.member(handle)
	if m == nil {
		return
	}
	nets := make([]netip.Prefix, 0, g.MemberAnnouncedCount(handle))
	for net, e := range g.announced {
		if sendable(e.src, handle) {
			nets = append(nets, net)
		}
	}
	slices.SortFunc(nets, trie.ComparePrefix)
	type set struct {
		attrs *PathAttrs
		nets  []netip.Prefix
	}
	byKey := make(map[string]*set)
	var order []*set
	var key []byte
	for _, net := range nets {
		attrs := g.announced[net].attrs
		key = appendAttrKey(key[:0], attrs)
		s, ok := byKey[string(key)]
		if !ok {
			s = &set{attrs: attrs}
			byKey[string(key)] = s
			order = append(order, s)
		}
		s.nets = append(s.nets, net)
	}
	for _, s := range order {
		if msgs := g.encodeAnnounce(s.attrs, s.nets); msgs > 0 {
			g.send(m, msgs)
		}
	}
}

// WalkAnnounced visits every route one member knows (tests).
func (g *GroupOut) WalkAnnounced(handle *PeerHandle, fn func(Route) bool) {
	if g.member(handle) == nil {
		return
	}
	for net, e := range g.announced {
		if sendable(e.src, handle) && !fn(e.route(net)) {
			return
		}
	}
}
