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
// keeps one announced map (the shared adj-RIB-out) plus a sparse
// per-member suppressed set holding only the prefixes a member must NOT
// see — for a route server that is each member's own contribution, so
// total bookkeeping stays proportional to the table, not members × table.
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
	announced map[netip.Prefix]*Route

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

type groupMember struct {
	handle *PeerHandle
	sender GroupSender
	// suppressed marks announced prefixes this member must not see.
	suppressed map[netip.Prefix]bool
}

// NewGroupOut returns an empty group output stage.
func NewGroupOut(name string) *GroupOut {
	return &GroupOut{
		base:         base{name: "groupout(" + name + ")"},
		announced:    make(map[netip.Prefix]*Route),
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
	m := &groupMember{handle: handle, sender: sender, suppressed: make(map[netip.Prefix]bool)}
	// Routes already announced by the group predate the member; mark the
	// ones it must never see so later replaces/deletes stay consistent.
	for net, r := range g.announced {
		if !sendable(r, handle) {
			m.suppressed[net] = true
		}
	}
	g.members = append(g.members, m)
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

// SetSender swaps a member's byte consumer (session established).
func (g *GroupOut) SetSender(handle *PeerHandle, sender GroupSender) {
	if m := g.member(handle); m != nil {
		m.sender = sender
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

// Add implements Stage — the shared encode: one wire encode for the whole
// run, one sendable check per member (runs share Src), and the same bytes
// fanned out to every member the run is sendable to; the rest record a
// suppression.
func (g *GroupOut) Add(run []*Route) {
	g.netBuf = g.netBuf[:0]
	for _, r := range run {
		g.netBuf = append(g.netBuf, r.Net)
	}
	msgs := g.encodeAnnounce(run[0].Attrs, g.netBuf)
	if msgs == 0 {
		return
	}
	for _, r := range run {
		g.announced[r.Net] = r
	}
	for _, m := range g.members {
		if sendable(run[0], m.handle) {
			for _, r := range run {
				delete(m.suppressed, r.Net)
			}
			g.send(m, msgs)
		} else {
			for _, r := range run {
				m.suppressed[r.Net] = true
			}
		}
	}
}

// Replace implements Stage. Encoded once; per member this is an implicit
// withdraw (announce), a plain announce (the member never saw the old
// route), an explicit withdraw (the member must not see the new one), or
// nothing.
func (g *GroupOut) Replace(old, new *Route) {
	g.netBuf = append(g.netBuf[:0], new.Net)
	msgs := g.encodeAnnounce(new.Attrs, g.netBuf)
	if msgs == 0 {
		g.Delete(old)
		return
	}
	_, was := g.announced[new.Net]
	g.announced[new.Net] = new
	var withdraw []*groupMember
	for _, m := range g.members {
		had := was && !m.suppressed[new.Net]
		if sendable(new, m.handle) {
			delete(m.suppressed, new.Net)
			g.send(m, msgs)
		} else {
			m.suppressed[new.Net] = true
			if had {
				withdraw = append(withdraw, m)
			}
		}
	}
	if len(withdraw) > 0 && g.encodeWithdraw(new.Net) {
		for _, m := range withdraw {
			g.send(m, 1)
		}
	}
}

// Delete implements Stage: withdraw from every member that saw the route.
func (g *GroupOut) Delete(r *Route) {
	if _, was := g.announced[r.Net]; !was {
		return // its announcement was dropped
	}
	delete(g.announced, r.Net)
	ok := g.encodeWithdraw(r.Net)
	for _, m := range g.members {
		if m.suppressed[r.Net] {
			delete(m.suppressed, r.Net)
		} else if ok {
			g.send(m, 1)
		}
	}
}

// Lookup implements Stage: the group adj-RIB-out.
func (g *GroupOut) Lookup(net netip.Prefix) *Route { return g.announced[net] }

// MemberAnnouncedCount returns how many prefixes one member has been told
// (tests and stats).
func (g *GroupOut) MemberAnnouncedCount(handle *PeerHandle) int {
	m := g.member(handle)
	if m == nil {
		return 0
	}
	return len(g.announced) - len(m.suppressed)
}

// ResyncMember replays the full member-visible table to one member's
// sender (session re-established), in prefix order. Prefixes are grouped
// by attr set, sets in the order of their first prefix, so the dump packs
// NLRI like the live path does and two replays of one table are the same
// bytes.
func (g *GroupOut) ResyncMember(handle *PeerHandle) {
	m := g.member(handle)
	if m == nil {
		return
	}
	nets := make([]netip.Prefix, 0, len(g.announced)-len(m.suppressed))
	for net := range g.announced {
		if !m.suppressed[net] {
			nets = append(nets, net)
		}
	}
	slices.SortFunc(nets, trie.ComparePrefix)
	byAttrs := make(map[*PathAttrs][]netip.Prefix)
	var order []*PathAttrs
	for _, net := range nets {
		attrs := g.announced[net].Attrs
		if _, ok := byAttrs[attrs]; !ok {
			order = append(order, attrs)
		}
		byAttrs[attrs] = append(byAttrs[attrs], net)
	}
	for _, attrs := range order {
		if msgs := g.encodeAnnounce(attrs, byAttrs[attrs]); msgs > 0 {
			g.send(m, msgs)
		}
	}
}

// WalkAnnounced visits every route one member knows (tests).
func (g *GroupOut) WalkAnnounced(handle *PeerHandle, fn func(*Route) bool) {
	m := g.member(handle)
	if m == nil {
		return
	}
	for net, r := range g.announced {
		if m.suppressed[net] {
			continue
		}
		if !fn(r) {
			return
		}
	}
}
