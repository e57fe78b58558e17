package bgp

import (
	"fmt"
	"net/netip"
	"slices"

	"xorp/internal/core"
	"xorp/internal/telemetry"
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
// keeps no adj-RIB-out (§5.1: only the PeerIn stores routes; RFC 4271 §3.2:
// the Adj-RIBs-Out need no copy of their own). What it sends is encoded
// from the route it is handed, whose Src says which members may have it; a
// replay to a (re)established member is the decision table brought down
// through the branch's filter, and Lookup asks upstream. Beyond the members
// it keeps only what the stream does not say: a route count per source, and
// the prefixes whose announcement could not be encoded.
//
// Only a live member, one whose session is up, is sent anything. A group
// with no live member is parked: it is handed nothing, and keeps no counts.
// The first member to go live wakes it with one replay of the table, which
// tells that member and rebuilds the counts (§5.3's background dump).
//
// A message that cannot be encoded (an attribute set that outgrows the
// 4096-byte limit on export, say) is dropped whole and counted, and its
// prefixes are remembered until upstream withdraws or replaces them: the
// later Delete of a dropped prefix sends nothing, a Replace whose new side
// is dropped withdraws the old, and a replay leaves dropped prefixes out.
type GroupOut struct {
	core.Base[Route]
	members []*groupMember
	// parked is set while no member is live. release frees the fanout
	// branch feeding the group from flow control; the Fanout sets it.
	parked  bool
	release func()

	// bySrc counts the routes sent per Src, so a member's share of the
	// table is a sum over sources, not a walk over prefixes.
	bySrc map[*PeerHandle]int
	// dropped holds the prefixes upstream announced whose announcement
	// could not be encoded; empty in normal operation.
	dropped map[netip.Prefix]struct{}

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
	// live is set while the member's session is up.
	live bool
	// muted is set while the member is being replayed to: the replay
	// carries whatever the branch's backlog says, so it is not sent twice.
	muted bool
}

// NewGroupOut returns an empty group output stage.
func NewGroupOut(name string) *GroupOut {
	return &GroupOut{
		Base:         newBase("groupout(" + name + ")"),
		parked:       true,
		release:      func() {},
		bySrc:        make(map[*PeerHandle]int),
		dropped:      make(map[netip.Prefix]struct{}),
		EncodeErrors: new(telemetry.Counter),
	}
}

// Members returns the current member count.
func (g *GroupOut) Members() int { return len(g.members) }

// AnnouncedCount returns how many routes the group has sent, before
// per-member screening.
func (g *GroupOut) AnnouncedCount() int {
	n := 0
	for _, routes := range g.bySrc {
		n += routes
	}
	return n
}

// AddMember joins a peer to the group, live: it is sent every change from
// now on, and the caller resyncs it (ResyncMember) with what came before.
// It returns an error if the handle is already a member.
func (g *GroupOut) AddMember(handle *PeerHandle, sender GroupSender) error {
	if err := g.join(handle, sender); err != nil {
		return err
	}
	g.resync(handle, false)
	return nil
}

// join adds a member not live: a Process peer, until its session is up.
func (g *GroupOut) join(handle *PeerHandle, sender GroupSender) error {
	if g.member(handle) != nil {
		return fmt.Errorf("bgp: %s already in %s", handle.Name, g.Name())
	}
	g.members = append(g.members, &groupMember{handle: handle, sender: sender})
	return nil
}

// RemoveMember detaches a peer from the group.
func (g *GroupOut) RemoveMember(handle *PeerHandle) {
	g.down(handle)
	g.members = slices.DeleteFunc(g.members, func(m *groupMember) bool { return m.handle == handle })
}

// down takes a member's session down. The last live member parks the group:
// it forgets what it sent, and its branch is released from flow control.
func (g *GroupOut) down(handle *PeerHandle) {
	if m := g.member(handle); m != nil {
		m.live = false
	}
	if !g.parked && !slices.ContainsFunc(g.members, func(m *groupMember) bool { return m.live }) {
		g.parked = true
		clear(g.bySrc)
		clear(g.dropped)
		g.release()
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
	if m.sender == nil || m.muted || !m.live {
		return
	}
	m.sender.SendEncodedUpdate(g.encBuf)
	g.SentBytes += int64(len(g.encBuf))
	g.SentMsgs += int64(msgs)
}

// encode fills encBuf with the announcement of nets sharing attrs, or with
// attrs nil their withdrawal, and returns how many messages that took: 0
// when the encode failed, which is counted.
func (g *GroupOut) encode(attrs *PathAttrs, nets []netip.Prefix) (msgs int) {
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

// forget drops n sent routes from src's count.
func (g *GroupOut) forget(src *PeerHandle, n int) {
	if g.bySrc[src] -= n; g.bySrc[src] == 0 {
		delete(g.bySrc, src)
	}
}

// undrop reports whether net's announcement was dropped, and forgets it.
func (g *GroupOut) undrop(net netip.Prefix) bool {
	if len(g.dropped) == 0 {
		return false
	}
	_, was := g.dropped[net]
	delete(g.dropped, net)
	return was
}

// Add implements Stage — the shared encode: one wire encode for the whole
// run, one sendable check per member (runs share Src), and the same bytes
// fanned out to every member the run is sendable to.
func (g *GroupOut) Add(run []Route) {
	g.netBuf = g.netBuf[:0]
	for _, r := range run {
		g.netBuf = append(g.netBuf, r.Net)
	}
	msgs := g.encode(run[0].Attrs, g.netBuf)
	if msgs == 0 {
		for _, r := range run {
			g.dropped[r.Net] = struct{}{}
		}
		return
	}
	g.bySrc[run[0].Src] += len(run)
	g.sendAll(run[0].Src, msgs)
}

// sendAll delivers the encode buffer, msgs messages, to every member a
// route from src may reach.
func (g *GroupOut) sendAll(src *PeerHandle, msgs int) {
	for _, m := range g.members {
		if sendable(src, m.handle) {
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
	msgs := g.encode(new.Attrs, g.netBuf)
	if msgs == 0 {
		g.Delete([]Route{old})
		g.dropped[new.Net] = struct{}{}
		return
	}
	was := !g.undrop(old.Net)
	if was {
		g.forget(old.Src, 1)
	}
	g.bySrc[new.Src]++
	var withdraw []*groupMember
	for _, m := range g.members {
		if sendable(new.Src, m.handle) {
			g.send(m, msgs)
		} else if was && sendable(old.Src, m.handle) {
			withdraw = append(withdraw, m)
		}
	}
	if len(withdraw) > 0 {
		if msgs = g.encode(nil, g.netBuf); msgs > 0 {
			for _, m := range withdraw {
				g.send(m, msgs)
			}
		}
	}
}

// Delete implements Stage — the shared encode of a withdrawal: the run's
// prefixes whose announcement went out are packed into as few UPDATEs as
// the message limit allows, encoded once and sent to every member the run
// is sendable to (one check per member: runs share Src).
func (g *GroupOut) Delete(run []Route) {
	g.netBuf = g.netBuf[:0]
	for _, r := range run {
		if !g.undrop(r.Net) { // else its announcement was dropped
			g.netBuf = append(g.netBuf, r.Net)
		}
	}
	if len(g.netBuf) == 0 {
		return
	}
	src := run[0].Src
	g.forget(src, len(g.netBuf))
	if msgs := g.encode(nil, g.netBuf); msgs > 0 {
		g.sendAll(src, msgs)
	}
}

// Lookup implements core.Table: upstream's answer through the branch, unless
// its announcement was dropped. It is the group's view, before per-member
// screening, and may run ahead of a stalled branch, as Fanout.Lookup does.
func (g *GroupOut) Lookup(net netip.Prefix, r *Route) bool {
	if _, drop := g.dropped[net]; drop {
		return false
	}
	return g.LookupParent(net, r)
}

// MemberAnnouncedCount returns how many prefixes one live member has been
// told (tests and stats): the routes sent from every source sendable to it.
func (g *GroupOut) MemberAnnouncedCount(handle *PeerHandle) int {
	if m := g.member(handle); m == nil || !m.live {
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

// replay visits, in prefix order, every route the group has sent: it asks
// upstream to walk its table down the branch, which first delivers the
// branch's backlog with m muted, so the walk is what the group has emitted;
// dropped prefixes are left out.
func (g *GroupOut) replay(m *groupMember, fn func(Route) bool) {
	w, ok := g.Parent().(walker)
	if !ok {
		return
	}
	m.muted = true
	defer func() { m.muted = false }()
	w.walk(g, func(r Route) bool {
		_, drop := g.dropped[r.Net]
		return drop || fn(r)
	})
}

// ResyncMember makes a member live, its session (re)established, and
// replays the full member-visible table to its sender, in prefix order.
func (g *GroupOut) ResyncMember(handle *PeerHandle) { g.resync(handle, true) }

// resync makes a member live and replays the table, telling the member what
// it may have when tell (AddMember's wake tells no one). Prefixes are
// grouped by attr set — by content: an exported set is a fresh object per
// run, however few distinct sets the table holds — and sets go in the order
// of their first prefix, so the dump packs NLRI like the live path does and
// two replays of one table are the same bytes.
//
// A parked group's replay is its wake: the walk consumes the branch's
// backlog unread, and rebuilds what the group would have sent, each route
// counted by source or, when its announcement does not encode, dropped.
func (g *GroupOut) resync(handle *PeerHandle, tell bool) {
	m := g.member(handle)
	if m == nil {
		return
	}
	if m.live = true; !g.parked && !tell {
		return
	}
	type set struct {
		attrs *PathAttrs
		nets  []netip.Prefix
	}
	byKey := make(map[string]*set)
	var order []*set
	var key []byte
	var last *set
	wake, drop := g.parked, false
	var prev Route // a wake's last route checked for encoding
	g.replay(m, func(r Route) bool {
		if wake {
			if r.Attrs != prev.Attrs || r.Net.Addr().Is4() != prev.Net.Addr().Is4() {
				g.netBuf = append(g.netBuf[:0], r.Net)
				prev, drop = r, g.encode(r.Attrs, g.netBuf) == 0
			}
			if drop {
				g.dropped[r.Net] = struct{}{}
				return true
			}
			g.bySrc[r.Src]++
		}
		if !tell || !sendable(r.Src, m.handle) {
			return true
		}
		if last == nil || r.Attrs != last.attrs { // a run shares its exported set
			key = appendAttrKey(key[:0], r.Attrs)
			if last = byKey[string(key)]; last == nil {
				last = &set{attrs: r.Attrs}
				byKey[string(key)] = last
				order = append(order, last)
			}
		}
		last.nets = append(last.nets, r.Net)
		return true
	})
	g.parked = false
	for _, s := range order {
		if msgs := g.encode(s.attrs, s.nets); msgs > 0 {
			g.send(m, msgs)
		}
	}
}
