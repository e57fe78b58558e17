// Package chaos runs survivability experiments against the router: a
// matrix of topologies × failures × protocols, each scenario measuring
// initial convergence, the data-plane outage the failure caused, and
// the time to reconverge after repair (paper §8.2–§8.3: the cost of a
// routing disturbance is blackholed traffic, not just protocol churn).
//
// RIP and OSPF scenarios run one full rtrmgr.Router per node — FEA,
// RIB, a supervised IGP process — on one simulated clock and datagram
// network, so hundreds of simulated seconds replay in milliseconds and
// every run is deterministic; a process kill goes through the
// supervisor and the RIB's stale retention, as in a deployed router.
// The BGP scenario (RunBGPKillRespawn) runs the same assembly in real
// time: kill the BGP process under load and check the graceful restart
// machinery end to end.
package chaos

import (
	"fmt"
	"net/netip"
)

// Topology is a set of point-to-point links between N routers. The
// simulated subnet is a full broadcast domain; a topology narrows it by
// dropping every datagram between unlinked pairs, so protocol
// adjacencies follow the link set exactly.
type Topology struct {
	Name string
	N    int

	// Origin originates the target prefix. Backup, when >= 0, also
	// originates it at a worse metric (a multi-homed destination).
	// Observer is the router whose forwarding path is judged.
	Origin, Backup, Observer int

	// FailLink is the link cut by the link-loss and link-flap
	// failures. Every built-in topology keeps an alternate path
	// around it, so reconvergence is always possible.
	FailLink [2]int

	// Halves is the partition split: the partition failure cuts every
	// link crossing between the two sets, isolating Observer from
	// Origin until the heal.
	Halves [2][]int

	// Broadcast marks a single shared LAN (every pair linked). The
	// RIP model implements split horizon relative to the broadcast
	// domain — learned routes advertise poisoned — so RIP only
	// propagates one hop and is only meaningful on such topologies.
	Broadcast bool

	links map[[2]int]bool
}

func linkKey(a, b int) [2]int {
	if a > b {
		a, b = b, a
	}
	return [2]int{a, b}
}

func (t *Topology) addLink(a, b int) {
	if t.links == nil {
		t.links = make(map[[2]int]bool)
	}
	t.links[linkKey(a, b)] = true
}

// Linked reports whether nodes a and b share a link.
func (t *Topology) Linked(a, b int) bool { return t.links[linkKey(a, b)] }

// Links returns the link set (for display and for the partition cut).
func (t *Topology) Links() [][2]int {
	out := make([][2]int, 0, len(t.links))
	for l := range t.links {
		out = append(out, l)
	}
	return out
}

// Addr returns node i's address on the simulated subnet. The flat
// 10.0.x.y encoding scales past a single /24: a k=8 fat-tree is 80
// routers, and the generator goes well beyond that.
func (t *Topology) Addr(i int) netip.Addr {
	if i < 0 || i >= 250*250 {
		panic(fmt.Sprintf("chaos: node index %d out of range", i))
	}
	return netip.AddrFrom4([4]byte{10, 0, byte(i / 250), byte(i%250 + 1)})
}

// crossesHalves reports whether link l connects the two partition
// halves.
func (t *Topology) crossesHalves(l [2]int) bool {
	side := make(map[int]int, t.N)
	for _, i := range t.Halves[0] {
		side[i] = 1
	}
	for _, i := range t.Halves[1] {
		side[i] = 2
	}
	return side[l[0]] != side[l[1]]
}

// Ring returns n routers in a cycle: every node has exactly two
// neighbours, so any single link cut leaves the long way round. The
// observer sits diametrically opposite the origin.
func Ring(n int) *Topology {
	if n < 3 {
		panic("chaos: ring needs at least 3 nodes")
	}
	t := &Topology{
		Name:     fmt.Sprintf("ring%d", n),
		N:        n,
		Origin:   0,
		Backup:   -1,
		Observer: n / 2,
		FailLink: [2]int{0, 1},
	}
	for i := 0; i < n; i++ {
		t.addLink(i, (i+1)%n)
	}
	for i := 0; i < n; i++ {
		if i < n/2 {
			t.Halves[0] = append(t.Halves[0], i)
		} else {
			t.Halves[1] = append(t.Halves[1], i)
		}
	}
	return t
}

// Grid returns a rows×cols lattice with the origin and observer at
// opposite corners; interior redundancy gives many alternate paths.
func Grid(rows, cols int) *Topology {
	if rows < 2 || cols < 2 {
		panic("chaos: grid needs at least 2x2")
	}
	t := &Topology{
		Name:     fmt.Sprintf("grid%dx%d", rows, cols),
		N:        rows * cols,
		Origin:   0,
		Backup:   -1,
		Observer: rows*cols - 1,
		FailLink: [2]int{0, 1},
	}
	idx := func(r, c int) int { return r*cols + c }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if c+1 < cols {
				t.addLink(idx(r, c), idx(r, c+1))
			}
			if r+1 < rows {
				t.addLink(idx(r, c), idx(r+1, c))
			}
		}
	}
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if r < (rows+1)/2 {
				t.Halves[0] = append(t.Halves[0], idx(r, c))
			} else {
				t.Halves[1] = append(t.Halves[1], idx(r, c))
			}
		}
	}
	return t
}

// ASHierarchy returns a small provider hierarchy: two interconnected
// core routers, two aggregation routers each homed to both cores, and
// four leaves each homed to both aggregation routers. Every non-core
// node is multi-homed, so any single link cut reconverges. The origin
// and observer are leaves on opposite sides.
func ASHierarchy() *Topology {
	t := &Topology{
		Name:     "as-hier",
		N:        8,
		Origin:   4,
		Backup:   -1,
		Observer: 7,
		FailLink: [2]int{2, 4},
		Halves:   [2][]int{{0, 2, 4, 5}, {1, 3, 6, 7}},
	}
	t.addLink(0, 1) // core <-> core
	for _, mid := range []int{2, 3} {
		t.addLink(mid, 0)
		t.addLink(mid, 1)
	}
	for _, leaf := range []int{4, 5, 6, 7} {
		t.addLink(leaf, 2)
		t.addLink(leaf, 3)
	}
	return t
}

// FatTree returns a k-ary fat-tree (k even): (k/2)² core routers and k
// pods of k/2 aggregation plus k/2 edge routers each. Every edge router
// is homed to all of its pod's aggregation layer and aggregation
// router j is homed to core group j, so any single uplink cut leaves
// k/2−1 equal-cost alternates — the redundancy the blackhole
// percentiles are designed to show (the p50 node reroutes via another
// uplink while the unlucky corner waits out the dead interval).
//
// The origin is the first edge router of pod 0, the observer the last
// edge router of the last pod. FailLink is the observer's preferred
// (index-0) uplink: only the observer routes over it, so the link-loss
// percentiles show the fabric's redundancy — p50 zero across the
// fabric, the observer alone riding out the dead interval. The
// partition keeps the core layer with the left half of the pods: the
// right half keeps intra-pod connectivity but loses the fabric until
// the heal.
func FatTree(k int) *Topology {
	if k < 2 || k%2 != 0 {
		panic("chaos: fat-tree arity must be even and >= 2")
	}
	half := k / 2
	cores := half * half
	podBase := func(p int) int { return cores + p*k }
	aggOf := func(p, j int) int { return podBase(p) + j }
	edgeOf := func(p, j int) int { return podBase(p) + half + j }
	t := &Topology{
		Name:     fmt.Sprintf("fat-tree%d", k),
		N:        cores + k*k,
		Origin:   edgeOf(0, 0),
		Backup:   -1,
		Observer: edgeOf(k-1, half-1),
		FailLink: [2]int{edgeOf(k-1, half-1), aggOf(k-1, 0)},
	}
	for p := 0; p < k; p++ {
		for j := 0; j < half; j++ {
			for e := 0; e < half; e++ {
				t.addLink(edgeOf(p, e), aggOf(p, j))
			}
			for c := 0; c < half; c++ {
				t.addLink(aggOf(p, j), j*half+c)
			}
		}
	}
	for c := 0; c < cores; c++ {
		t.Halves[0] = append(t.Halves[0], c)
	}
	for p := 0; p < k; p++ {
		for i := podBase(p); i < podBase(p)+k; i++ {
			if p < half {
				t.Halves[0] = append(t.Halves[0], i)
			} else {
				t.Halves[1] = append(t.Halves[1], i)
			}
		}
	}
	return t
}

// LAN3 is the convergence example's topology: three routers on one
// broadcast LAN, the origin and a worse-metric backup both announcing
// the target prefix. Cutting origin—observer forces the observer to
// fail over to the backup — RIP must wait out its route timeout while
// OSPF reroutes at the dead interval.
func LAN3() *Topology {
	t := &Topology{
		Name:      "lan3",
		N:         3,
		Origin:    0,
		Backup:    2,
		Observer:  1,
		FailLink:  [2]int{0, 1},
		Halves:    [2][]int{{0}, {1, 2}},
		Broadcast: true,
	}
	t.addLink(0, 1)
	t.addLink(0, 2)
	t.addLink(1, 2)
	return t
}
