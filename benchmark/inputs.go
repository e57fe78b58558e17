package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math/rand"
	"net/netip"

	"xorp/internal/bgp"
	"xorp/internal/route"
	"xorp/internal/xrl"
)

// The benchmark owns its inputs: every table, feed and address stream is
// generated here from the run's seed, and every BGP message is
// pre-encoded wire bytes that the workloads decode at run time. The
// generators started as copies of workload.GenerateTable,
// workload.RouteServerFeed and the zipf logic of fwd.NewStream; they live
// here so that a change to those packages cannot silently change what
// the benchmark measures.

const (
	feedNLRI    = 8   // NLRI per UPDATE of the full-table feed
	sliceRoutes = 256 // routes one bulk/forward txn withdraws and re-adds
	rsNLRI      = 64  // NLRI per UPDATE of a route-server client
	rsAttrSets  = 16  // distinct attribute sets per route-server client
	rsLocalAS   = 64999
	feedPeerAS  = 65001
	testPeerAS  = 65002
	localAS     = 65000
	missRatio   = 0.05 // share of forward lookups that match no route
	lookupBurst = 32768
	xrlPerTxn   = 1000
	xrlWindow   = 100
)

// bgpNexthops are the next hops the feeds announce; each resolves through
// the static route of the same index in routerConfig, so the forwarding
// entry the FEA must end up with carries gateways[i].
var (
	bgpNexthops = []netip.Addr{
		netip.MustParseAddr("172.16.0.1"),
		netip.MustParseAddr("172.17.0.1"),
		netip.MustParseAddr("172.18.0.1"),
	}
	gateways = []netip.Addr{
		netip.MustParseAddr("192.168.1.254"),
		netip.MustParseAddr("192.168.1.253"),
		netip.MustParseAddr("192.168.1.252"),
	}
)

// routerConfig is the rtrmgr configuration of the pipeline workloads.
const routerConfig = `
interfaces {
    eth0 { address 192.168.1.1/24; }
}
static {
    route 172.16.0.0/16 next-hop 192.168.1.254;
    route 172.17.0.0/16 next-hop 192.168.1.253;
    route 172.18.0.0/16 next-hop 192.168.1.252;
}
protocols {
    bgp {
        local-as 65000
        id 192.168.1.1
        peer feed { local-addr 192.168.1.1; peer-addr 192.168.1.2; as 65001; passive; }
        peer test { local-addr 192.168.1.1; peer-addr 192.168.1.3; as 65002; passive; }
    }
}
`

// baseRoutes is what routerConfig installs before any BGP route: one
// connected and three static routes.
const baseRoutes = 4

// prefixLenDist approximates the 2004/2005 BGP table's prefix-length mix.
var prefixLenDist = []struct {
	bits int
	frac float64
}{
	{8, 0.0002}, {9, 0.0002}, {10, 0.0005}, {11, 0.001}, {12, 0.002},
	{13, 0.004}, {14, 0.008}, {15, 0.010}, {16, 0.085}, {17, 0.025},
	{18, 0.040}, {19, 0.075}, {20, 0.070}, {21, 0.060}, {22, 0.085},
	{23, 0.085}, {24, 0.449},
}

// digest accumulates the hash of everything a generator hands to the
// program: identical seeds must give identical digests.
type digest struct{ h hash.Hash }

func newDigest() *digest { return &digest{h: sha256.New()} }

func (d *digest) bytes(b []byte) {
	var n [4]byte
	binary.BigEndian.PutUint32(n[:], uint32(len(b)))
	d.h.Write(n[:])
	d.h.Write(b)
}

func (d *digest) addr(a netip.Addr) { d.bytes(a.AsSlice()) }

func (d *digest) String() string { return hex.EncodeToString(d.h.Sum(nil)[:16]) }

func mustEncode(u *bgp.UpdateMsg) []byte {
	b, err := bgp.AppendUpdate(nil, u)
	if err != nil {
		panic(fmt.Sprintf("benchmark: encode generated UPDATE: %v", err))
	}
	return b
}

// feed is the full-table feed of peer "feed": unique prefixes in feed
// order, packed feedNLRI per UPDATE, each UPDATE drawing its attributes
// from a seeded pool of attribute sets.
type feed struct {
	prefixes []netip.Prefix
	nexthop  []uint8  // per prefix: index into bgpNexthops/gateways
	announce [][]byte // wire UPDATEs, feedNLRI prefixes each, feed order
	withdraw [][]byte // wire UPDATEs, one per full slice of sliceRoutes
}

// slices is the number of complete sliceRoutes-sized slices of the feed.
func (f *feed) slices() int { return len(f.withdraw) }

// entries returns the feed as RIB-level routes (the forward workload and
// the RIB/FEA layer drivers enter below BGP).
func (f *feed) entries() []route.Entry {
	es := make([]route.Entry, len(f.prefixes))
	for i, p := range f.prefixes {
		es[i] = route.Entry{Net: p, NextHop: bgpNexthops[f.nexthop[i]]}
	}
	return es
}

func randomPathAttrs(r *rand.Rand) (*bgp.PathAttrs, uint8) {
	seg := bgp.ASSegment{Type: bgp.SegSequence}
	for i, n := 0, 2+r.Intn(5); i < n; i++ {
		seg.ASes = append(seg.ASes, uint16(1+r.Intn(64000)))
	}
	nh := uint8(r.Intn(len(bgpNexthops)))
	a := &bgp.PathAttrs{
		Origin:  uint8(r.Intn(3)),
		ASPath:  bgp.ASPath{seg},
		NextHop: bgpNexthops[nh],
	}
	if r.Intn(3) == 0 {
		a.MED, a.HasMED = uint32(r.Intn(200)), true
	}
	return a, nh
}

func generateFeed(seed int64, routes, attrSets int, d *digest) *feed {
	r := rand.New(rand.NewSource(seed))
	cum := 0.0
	for _, b := range prefixLenDist {
		cum += b.frac
	}
	pickBits := func() int {
		x, acc := r.Float64()*cum, 0.0
		for _, b := range prefixLenDist {
			if acc += b.frac; x <= acc {
				return b.bits
			}
		}
		return 24
	}
	sets := make([]*bgp.PathAttrs, attrSets)
	setNH := make([]uint8, attrSets)
	for i := range sets {
		sets[i], setNH[i] = randomPathAttrs(r)
	}

	f := &feed{
		prefixes: make([]netip.Prefix, 0, routes),
		nexthop:  make([]uint8, 0, routes),
	}
	seen := make(map[netip.Prefix]bool, routes)
	for len(f.prefixes) < routes {
		bits := pickBits()
		// Public-looking space. 10/8 is the trickle workload's, 172/8 and
		// 192/8 hold the next hops and the interface, 240/8 is the miss pool.
		first := byte(1 + r.Intn(223))
		if first == 10 || first == 127 || first == 172 || first == 192 {
			continue
		}
		a := netip.AddrFrom4([4]byte{first, byte(r.Intn(256)), byte(r.Intn(256)), byte(r.Intn(256))})
		p, err := a.Prefix(bits)
		if err != nil || seen[p] {
			continue
		}
		seen[p] = true
		f.prefixes = append(f.prefixes, p)
	}
	for off := 0; off < routes; off += feedNLRI {
		end := min(off+feedNLRI, routes)
		s := r.Intn(attrSets)
		for i := off; i < end; i++ {
			f.nexthop = append(f.nexthop, setNH[s])
		}
		f.announce = append(f.announce, mustEncode(&bgp.UpdateMsg{Attrs: sets[s], NLRI: f.prefixes[off:end]}))
	}
	for off := 0; off+sliceRoutes <= routes; off += sliceRoutes {
		f.withdraw = append(f.withdraw, mustEncode(&bgp.UpdateMsg{Withdrawn: f.prefixes[off : off+sliceRoutes]}))
	}
	for _, b := range f.announce {
		d.bytes(b)
	}
	for _, b := range f.withdraw {
		d.bytes(b)
	}
	return f
}

// trickleInput is the pool of prefixes peer "test" cycles through: each
// is announced, re-announced with another next hop, then withdrawn, so a
// prefix is absent again by the time the pool wraps.
type trickleInput struct {
	prefixes []netip.Prefix
	first    []uint8 // next-hop index of the first announcement
	second   []uint8 // next-hop index of the replacement (never == first)
	announce [][]byte
	replace  [][]byte
	withdraw [][]byte
}

func generateTrickle(seed int64, pool int, d *digest) *trickleInput {
	r := rand.New(rand.NewSource(seed ^ 0x74726963))
	t := &trickleInput{}
	base := r.Intn(1 << 16)
	for i := 0; i < pool; i++ {
		idx := (base + i) & 0xffff
		p := netip.PrefixFrom(netip.AddrFrom4([4]byte{10, byte(idx >> 8), byte(idx), 0}), 24)
		a := uint8(r.Intn(len(bgpNexthops)))
		b := uint8((int(a) + 1 + r.Intn(len(bgpNexthops)-1)) % len(bgpNexthops))
		attrs := func(nh uint8) *bgp.PathAttrs {
			return &bgp.PathAttrs{
				Origin:  bgp.OriginIGP,
				ASPath:  bgp.ASPath{{Type: bgp.SegSequence, ASes: []uint16{testPeerAS, uint16(1 + r.Intn(64000))}}},
				NextHop: bgpNexthops[nh],
			}
		}
		nets := []netip.Prefix{p}
		t.prefixes = append(t.prefixes, p)
		t.first, t.second = append(t.first, a), append(t.second, b)
		t.announce = append(t.announce, mustEncode(&bgp.UpdateMsg{Attrs: attrs(a), NLRI: nets}))
		t.replace = append(t.replace, mustEncode(&bgp.UpdateMsg{Attrs: attrs(b), NLRI: nets}))
		t.withdraw = append(t.withdraw, mustEncode(&bgp.UpdateMsg{Withdrawn: nets}))
		d.bytes(t.announce[i])
		d.bytes(t.replace[i])
		d.bytes(t.withdraw[i])
	}
	return t
}

// rsPeer is one route-server client and its feed: slots UPDATEs of rsNLRI
// prefixes disjoint from every other client's, every fifth slot IPv6,
// cycling through rsAttrSets attribute sets.
type rsPeer struct {
	name     string
	as       uint16
	addr     netip.Addr
	announce [][]byte // per slot
	withdraw [][]byte // per slot
}

func generateRouteServer(seed int64, peers, slots int, d *digest) []rsPeer {
	r := rand.New(rand.NewSource(seed ^ 0x72730000))
	out := make([]rsPeer, peers)
	for p := range out {
		pr := &out[p]
		pr.name = fmt.Sprintf("rs%03d", p)
		pr.as = uint16(65000 + p)
		pr.addr = netip.AddrFrom4([4]byte{192, 0, 2, byte(10 + p)})
		first := byte(11 + p)
		if first >= 127 {
			first++
		}
		attrs := make([]*bgp.PathAttrs, rsAttrSets)
		for s := range attrs {
			a := &bgp.PathAttrs{
				Origin:  uint8(s % 3),
				ASPath:  bgp.ASPath{{Type: bgp.SegSequence, ASes: []uint16{pr.as, uint16(64000 + s), uint16(1 + r.Intn(63000))}}},
				NextHop: pr.addr,
			}
			if s%2 == 1 {
				a.MED, a.HasMED = uint32(s), true
			}
			attrs[s] = a
		}
		// An odd stride over a 24-bit index space visits every index once,
		// so the client's prefixes are unique whatever the seed.
		base, stride := r.Intn(1<<24), 2*r.Intn(1<<20)+1
		for slot := 0; slot < slots; slot++ {
			nets := make([]netip.Prefix, rsNLRI)
			for j := range nets {
				idx := (base + (slot*rsNLRI+j)*stride) & 0xffffff
				if slot%5 == 4 {
					var b [16]byte
					b[0], b[1], b[2], b[3] = 0x20, 0x01, 0x0d, 0xb8
					b[4] = byte(p)
					b[5], b[6], b[7] = byte(idx>>16), byte(idx>>8), byte(idx)
					nets[j] = netip.PrefixFrom(netip.AddrFrom16(b), 64)
				} else {
					nets[j] = netip.PrefixFrom(netip.AddrFrom4([4]byte{first, byte(idx >> 16), byte(idx >> 8), byte(idx)}), 32)
				}
			}
			pr.announce = append(pr.announce, mustEncode(&bgp.UpdateMsg{Attrs: attrs[slot%rsAttrSets], NLRI: nets}))
			pr.withdraw = append(pr.withdraw, mustEncode(&bgp.UpdateMsg{Withdrawn: nets}))
			d.bytes(pr.announce[slot])
			d.bytes(pr.withdraw[slot])
		}
	}
	return out
}

// xrlArgCounts is Figure 9's x-axis used as message size: a txn cycles
// through the three argument lists.
var xrlArgCounts = [3]int{0, 4, 16}

func generateXRLArgs(seed int64, d *digest) [3]xrl.Args {
	r := rand.New(rand.NewSource(seed ^ 0x78726c00))
	var out [3]xrl.Args
	for k, n := range xrlArgCounts {
		out[k] = make(xrl.Args, n)
		for i := range out[k] {
			v := r.Uint32()
			out[k][i] = xrl.U32(fmt.Sprintf("a%d", i), v)
			var b [4]byte
			binary.BigEndian.PutUint32(b[:], v)
			d.bytes(b[:])
		}
	}
	return out
}

// stream is a pre-generated ring of destination addresses: zipf (s=1.2)
// popularity over the table's prefixes with missRatio of the addresses
// drawn from 240.0.0.0/8, which no generated table covers.
type stream struct {
	addrs []netip.Addr
	miss  []bool
}

func generateStream(seed int64, prefixes []netip.Prefix, n int, d *digest) *stream {
	r := rand.New(rand.NewSource(seed ^ 0x7a697066))
	z := rand.NewZipf(r, 1.2, 1, uint64(len(prefixes)-1))
	missPool := netip.MustParsePrefix("240.0.0.0/8")
	s := &stream{addrs: make([]netip.Addr, n), miss: make([]bool, n)}
	for i := range s.addrs {
		p := missPool
		if r.Float64() < missRatio {
			s.miss[i] = true
		} else {
			p = prefixes[z.Uint64()]
		}
		base := p.Addr().As4()
		v := binary.BigEndian.Uint32(base[:])
		if host := 32 - p.Bits(); host > 0 {
			v |= uint32(r.Int63()) & (1<<host - 1)
		}
		var b [4]byte
		binary.BigEndian.PutUint32(b[:], v)
		s.addrs[i] = netip.AddrFrom4(b)
		d.addr(s.addrs[i])
	}
	return s
}
