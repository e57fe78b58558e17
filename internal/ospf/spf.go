package ospf

import (
	"container/heap"
	"net/netip"
	"time"
)

// PrefixRoute is SPF's answer for one destination prefix.
type PrefixRoute struct {
	Net  netip.Prefix
	Cost uint32
	// FirstHop is the router ID of the first router on the shortest
	// path (zero when the prefix is the root's own).
	FirstHop netip.Addr
	// Origin is the router advertising the prefix.
	Origin netip.Addr
}

// SPFStats counts recomputations by kind.
type SPFStats struct {
	Full        int // Dijkstra re-runs (topology changed)
	Incremental int // prefix-table-only recomputes (distances reused)
}

// SPF computes shortest paths over an LSDB from a fixed root. It keeps
// the previous run's distance/first-hop maps so that LSA changes which
// leave the link topology intact (stub prefix announcements and
// withdrawals — the common case under route redistribution) skip
// Dijkstra entirely and only rebuild the prefix table.
type SPF struct {
	root     netip.Addr
	dist     map[netip.Addr]uint32
	firstHop map[netip.Addr]netip.Addr
	stats    SPFStats
}

// NewSPF returns an SPF engine rooted at the given router ID.
func NewSPF(root netip.Addr) *SPF {
	return &SPF{root: root}
}

// Recompute returns the best route per prefix. topoChanged must be true
// if any change since the previous call touched the link topology
// (installations with changed link sets, LSA removals); prefix-only
// churn may pass false and reuses the previous shortest-path tree.
func (s *SPF) Recompute(db *LSDB, topoChanged bool) map[netip.Prefix]PrefixRoute {
	if topoChanged || s.dist == nil {
		s.runDijkstra(db)
		s.stats.Full++
	} else {
		s.stats.Incremental++
	}
	return s.prefixTable(db)
}

// spfItem is one priority-queue entry.
type spfItem struct {
	node netip.Addr
	dist uint32
}

type spfHeap []spfItem

func (h spfHeap) Len() int { return len(h) }
func (h spfHeap) Less(i, j int) bool {
	if h[i].dist != h[j].dist {
		return h[i].dist < h[j].dist
	}
	return h[i].node.Less(h[j].node) // deterministic pop order on ties
}
func (h spfHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *spfHeap) Push(x any)   { *h = append(*h, x.(spfItem)) }
func (h *spfHeap) Pop() any {
	old := *h
	it := old[len(old)-1]
	*h = old[:len(old)-1]
	return it
}

// runDijkstra rebuilds the shortest-path tree. An edge u→v is usable
// only if v's LSA lists a link back to u (RFC 2328 §16.1's
// bidirectional check), which keeps half-dead adjacencies and stale
// LSAs of unreachable routers out of the tree.
func (s *SPF) runDijkstra(db *LSDB) {
	s.dist = make(map[netip.Addr]uint32, db.Len())
	s.firstHop = make(map[netip.Addr]netip.Addr, db.Len())
	if _, ok := db.Get(s.root); !ok {
		return
	}
	s.dist[s.root] = 0
	pq := &spfHeap{{node: s.root, dist: 0}}
	done := make(map[netip.Addr]bool, db.Len())
	for pq.Len() > 0 {
		it := heap.Pop(pq).(spfItem)
		if done[it.node] {
			continue
		}
		done[it.node] = true
		lsa, ok := db.Get(it.node)
		if !ok {
			continue
		}
		for _, ln := range lsa.Links {
			peer, ok := db.Get(ln.Neighbor)
			if !ok || !hasLinkTo(peer, it.node) {
				continue
			}
			nd := it.dist + uint32(ln.Cost)
			if cur, seen := s.dist[ln.Neighbor]; seen && cur <= nd {
				continue
			}
			s.dist[ln.Neighbor] = nd
			if it.node == s.root {
				s.firstHop[ln.Neighbor] = ln.Neighbor
			} else {
				s.firstHop[ln.Neighbor] = s.firstHop[it.node]
			}
			heap.Push(pq, spfItem{node: ln.Neighbor, dist: nd})
		}
	}
}

func hasLinkTo(lsa LSA, target netip.Addr) bool {
	for _, ln := range lsa.Links {
		if ln.Neighbor == target {
			return true
		}
	}
	return false
}

// GridLSDB builds a synthetic n-router LSDB — a near-square grid with
// unit link costs, one stub /24 per router — for SPF benchmarking
// (cmd/xorp_bench -experiment spf) and tests. It returns the database
// and the root router's ID (grid corner).
func GridLSDB(n int) (*LSDB, netip.Addr) {
	w := 1
	for w*w < n {
		w++
	}
	id := func(i int) netip.Addr {
		return netip.AddrFrom4([4]byte{10, byte(i >> 16), byte(i >> 8), byte(i)})
	}
	db := NewLSDB()
	for i := 0; i < n; i++ {
		x, y := i%w, i/w
		lsa := LSA{Origin: id(i), Seq: 1}
		for _, d := range [][2]int{{-1, 0}, {1, 0}, {0, -1}, {0, 1}} {
			nx, ny := x+d[0], y+d[1]
			j := ny*w + nx
			if nx < 0 || nx >= w || ny < 0 || j >= n {
				continue
			}
			lsa.Links = append(lsa.Links, Link{Neighbor: id(j), Cost: 1})
		}
		lsa.Prefixes = []StubPrefix{{
			Net:  netip.PrefixFrom(netip.AddrFrom4([4]byte{172, byte(16 + (i >> 8)), byte(i), 0}), 24),
			Cost: 1,
		}}
		db.Install(lsa, time.Time{})
	}
	return db, id(0)
}

// MutatePrefix bumps router i's LSA with a changed stub prefix cost —
// a prefix-only change that must take the incremental SPF path.
func (db *LSDB) MutatePrefix(origin netip.Addr, cost uint16) bool {
	lsa, ok := db.Get(origin)
	if !ok || len(lsa.Prefixes) == 0 {
		return false
	}
	lsa = lsa.Clone()
	lsa.Seq++
	lsa.Prefixes[0].Cost = cost
	_, topo := db.Install(lsa, time.Time{})
	return !topo
}

// prefixTable folds every reachable router's stub prefixes over the
// current distances: lowest total cost wins, ties broken by lowest
// advertising router ID (db.Walk visits origins in sorted order).
func (s *SPF) prefixTable(db *LSDB) map[netip.Prefix]PrefixRoute {
	routes := make(map[netip.Prefix]PrefixRoute)
	db.Walk(func(lsa LSA) bool {
		d, reachable := s.dist[lsa.Origin]
		if !reachable {
			return true
		}
		for _, sp := range lsa.Prefixes {
			total := d + uint32(sp.Cost)
			net := sp.Net.Masked()
			if best, ok := routes[net]; ok && best.Cost <= total {
				continue
			}
			routes[net] = PrefixRoute{
				Net:      net,
				Cost:     total,
				FirstHop: s.firstHop[lsa.Origin],
				Origin:   lsa.Origin,
			}
		}
		return true
	})
	return routes
}
