package bgp

// WalkAnnounced visits, in prefix order, every route one member has been
// sent: the tests' view of the replay ResyncMember sends, asked of the
// stages upstream as the replay is. A member that is not live has been
// sent nothing.
func (g *GroupOut) WalkAnnounced(handle *PeerHandle, fn func(Route) bool) {
	if m := g.member(handle); m != nil && m.live {
		g.replay(m, func(r Route) bool { return !sendable(r.Src, handle) || fn(r) })
	}
}
