package fwd

import (
	"fmt"
	"math/rand"
	"net/netip"
)

// StreamConfig describes a synthetic destination-address workload.
type StreamConfig struct {
	// Prefixes is the installed route set the hit traffic targets.
	Prefixes []netip.Prefix
	// Dist selects the popularity distribution over Prefixes: "zipf"
	// (s=1.2, heavily skewed, the realistic case) or "uniform".
	Dist string
	// MissRatio in [0,1] is the fraction of destinations drawn from
	// MissPrefix instead of Prefixes — packets with no covering route.
	MissRatio float64
	// MissPrefix is the pool miss traffic is drawn from. Defaults to
	// 240.0.0.0/8 (class E), which the synthetic route workloads never
	// generate, so misses are misses by construction.
	MissPrefix netip.Prefix
	// Seed makes the stream deterministic.
	Seed int64
}

// Stream is a pre-generated ring of destination addresses realizing a
// StreamConfig. Generation cost (rand, zipf, address assembly) is paid
// once at construction; the forwarding hot loop just walks the ring, so
// measured lookup throughput is lookup cost, not rand cost. The ring is
// immutable after construction and safely shared by all workers; each
// worker walks it through its own Cursor at a distinct start offset.
type Stream struct {
	addrs []netip.Addr
}

// streamRingSize is the ring length: large enough that the distribution
// is faithful and per-worker offsets decorrelate, small enough to stay
// cache-resident alongside the trie (64k addrs ≈ 1.5 MiB).
const streamRingSize = 1 << 16

// NewStream builds the destination ring for cfg.
func NewStream(cfg StreamConfig) (*Stream, error) {
	if len(cfg.Prefixes) == 0 {
		return nil, fmt.Errorf("fwd: stream needs at least one prefix")
	}
	if cfg.MissRatio < 0 || cfg.MissRatio > 1 {
		return nil, fmt.Errorf("fwd: miss ratio %v out of [0,1]", cfg.MissRatio)
	}
	miss := cfg.MissPrefix
	if !miss.IsValid() {
		miss = netip.MustParsePrefix("240.0.0.0/8")
	}
	rng := rand.New(rand.NewSource(cfg.Seed))

	var pick func() int
	switch cfg.Dist {
	case "", "zipf":
		// rand.Zipf yields values in [0, imax]; s=1.2 gives the usual
		// "few hot prefixes carry most traffic" shape.
		z := rand.NewZipf(rng, 1.2, 1, uint64(len(cfg.Prefixes)-1))
		pick = func() int { return int(z.Uint64()) }
	case "uniform":
		pick = func() int { return rng.Intn(len(cfg.Prefixes)) }
	default:
		return nil, fmt.Errorf("fwd: unknown distribution %q", cfg.Dist)
	}

	s := &Stream{addrs: make([]netip.Addr, streamRingSize)}
	for i := range s.addrs {
		if cfg.MissRatio > 0 && rng.Float64() < cfg.MissRatio {
			s.addrs[i] = randomAddrIn(rng, miss)
		} else {
			s.addrs[i] = randomAddrIn(rng, cfg.Prefixes[pick()])
		}
	}
	return s, nil
}

// Cursor returns a walk over the ring starting at a worker-specific
// offset, so workers issue decorrelated request sequences.
func (s *Stream) Cursor(worker int) *Cursor {
	off := 0
	if n := len(s.addrs); n > 0 {
		off = (worker * (n/8 + 1)) % n
	}
	return &Cursor{s: s, i: off}
}

// Cursor is one worker's position in the ring. Not safe for sharing.
type Cursor struct {
	s *Stream
	i int
}

// Next returns the next destination address.
func (c *Cursor) Next() netip.Addr {
	a := c.s.addrs[c.i]
	c.i++
	if c.i == len(c.s.addrs) {
		c.i = 0
	}
	return a
}

// randomAddrIn picks a uniform host address inside p (v4 or v6).
func randomAddrIn(rng *rand.Rand, p netip.Prefix) netip.Addr {
	if p.Addr().Is4() {
		base := p.Addr().As4()
		v := uint32(base[0])<<24 | uint32(base[1])<<16 | uint32(base[2])<<8 | uint32(base[3])
		host := 32 - p.Bits()
		if host > 0 {
			v |= uint32(rng.Int63()) & (1<<host - 1)
		}
		return netip.AddrFrom4([4]byte{byte(v >> 24), byte(v >> 16), byte(v >> 8), byte(v)})
	}
	b := p.Addr().As16()
	for bit := p.Bits(); bit < 128; bit++ {
		if rng.Intn(2) == 1 {
			b[bit/8] |= 1 << (7 - bit%8)
		}
	}
	return netip.AddrFrom16(b)
}
