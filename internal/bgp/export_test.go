package bgp

// WalkAnnounced visits, in prefix order, every route one member has been
// sent: the tests' view of the replay ResyncMember sends, asked of the
// stages upstream as the replay is.
func (g *GroupOut) WalkAnnounced(handle *PeerHandle, fn func(Route) bool) {
	if m := g.member(handle); m != nil {
		g.replay(m, fn)
	}
}
