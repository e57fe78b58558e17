package ospf

import "net/netip"

// Stats returns a snapshot of the protocol counters.
func (p *Process) Stats() Stats {
	s := p.stats
	s.SPF = p.spf.Stats()
	return s
}

// NeighborCount returns the number of fully adjacent neighbors.
func (p *Process) NeighborCount() int {
	n := 0
	for _, nb := range p.neighbors {
		if nb.state == StateFull {
			n++
		}
	}
	return n
}

// NeighborState reports a neighbor's adjacency state ("" if unknown).
func (p *Process) NeighborState(id netip.Addr) string {
	if nb, ok := p.neighbors[id]; ok {
		return nb.state.String()
	}
	return ""
}

// Stats returns the recompute counters.
func (s *SPF) Stats() SPFStats { return s.stats }
