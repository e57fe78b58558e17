package route

import (
	"encoding/binary"
	"math/rand"
	"net/netip"
	"strconv"
	"sync"
	"testing"
	"unique"
	"unsafe"
)

func TestAdminDistanceOrdering(t *testing.T) {
	// connected < static < ebgp < ospf < is-is < rip < ibgp < experimental.
	order := []Protocol{ProtoConnected, ProtoStatic, ProtoEBGP, ProtoOSPF,
		ProtoISIS, ProtoRIP, ProtoIBGP, ProtoExperimental}
	for i := 1; i < len(order); i++ {
		if AdminDistance(order[i-1]) >= AdminDistance(order[i]) {
			t.Fatalf("%v (%d) should beat %v (%d)", order[i-1],
				AdminDistance(order[i-1]), order[i], AdminDistance(order[i]))
		}
	}
	if AdminDistance(ProtoUnknown) != 255 {
		t.Fatal("unknown protocol should have max distance")
	}
}

func TestProtocolNamesRoundTrip(t *testing.T) {
	for _, p := range []Protocol{ProtoConnected, ProtoStatic, ProtoEBGP,
		ProtoOSPF, ProtoISIS, ProtoRIP, ProtoIBGP, ProtoExperimental} {
		got, err := ParseProtocol(p.String())
		if err != nil || got != p {
			t.Fatalf("round trip %v: got %v, %v", p, got, err)
		}
	}
	if _, err := ParseProtocol("bogus"); err == nil {
		t.Fatal("bogus protocol parsed")
	}
	if Protocol(99).String() == "" {
		t.Fatal("unknown protocol prints empty")
	}
}

func TestProtocolTable(t *testing.T) {
	// Table-driven round-trip of name and admin distance for every
	// Protocol constant (ProtoOSPF's entries are now live: the ospf
	// process feeds the RIB's ospf origin table).
	cases := []struct {
		p        Protocol
		name     string
		ad       uint8
		parseErr bool
	}{
		{ProtoUnknown, "protocol(0)", 255, true},
		{ProtoConnected, "connected", 0, false},
		{ProtoStatic, "static", 1, false},
		{ProtoEBGP, "ebgp", 20, false},
		{ProtoOSPF, "ospf", 110, false},
		{ProtoISIS, "is-is", 115, false},
		{ProtoRIP, "rip", 120, false},
		{ProtoIBGP, "ibgp", 200, false},
		{ProtoExperimental, "experimental", 230, false},
		{Protocol(99), "protocol(99)", 255, true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := c.p.String(); got != c.name {
				t.Errorf("String() = %q, want %q", got, c.name)
			}
			if got := AdminDistance(c.p); got != c.ad {
				t.Errorf("AdminDistance() = %d, want %d", got, c.ad)
			}
			got, err := ParseProtocol(c.p.String())
			if c.parseErr {
				if err == nil {
					t.Errorf("ParseProtocol(%q) accepted a non-name", c.p.String())
				}
				return
			}
			if err != nil || got != c.p {
				t.Errorf("ParseProtocol(String()) = %v, %v; want %v", got, err, c.p)
			}
		})
	}
}

func TestEntryEqual(t *testing.T) {
	base := Entry{
		Net:           netip.MustParsePrefix("10.0.0.0/8"),
		NextHop:       netip.MustParseAddr("192.168.1.1"),
		IfName:        "eth0",
		Metric:        5,
		Protocol:      ProtoRIP,
		AdminDistance: 120,
		PolicyTags:    []uint32{1, 2},
	}
	same := base
	same.PolicyTags = []uint32{1, 2}
	if !base.Equal(same) {
		t.Fatal("identical entries unequal")
	}
	for _, mut := range []func(*Entry){
		func(e *Entry) { e.Net = netip.MustParsePrefix("11.0.0.0/8") },
		func(e *Entry) { e.NextHop = netip.MustParseAddr("192.168.1.2") },
		func(e *Entry) { e.IfName = "eth1" },
		func(e *Entry) { e.Metric = 6 },
		func(e *Entry) { e.Protocol = ProtoStatic },
		func(e *Entry) { e.AdminDistance = 1 },
		func(e *Entry) { e.PolicyTags = []uint32{1} },
		func(e *Entry) { e.PolicyTags = []uint32{1, 3} },
	} {
		m := base
		m.PolicyTags = append([]uint32(nil), base.PolicyTags...)
		mut(&m)
		if base.Equal(m) {
			t.Fatalf("mutated entry compares equal: %v", m)
		}
	}
	if base.String() == "" {
		t.Fatal("empty String")
	}
}

// TestStoredRoundTrip: what a table keeps and the key it keeps it under
// give back the entry, over every shape a field takes. The tags ride in
// the interned pair: neither form of a tagged route allocates once its
// list is interned, and the stored list is no view of the caller's.
func TestStoredRoundTrip(t *testing.T) {
	if got := unsafe.Sizeof(Stored{}); got != 16 {
		t.Errorf("Stored is %d bytes, want 16", got)
	}
	rng := rand.New(rand.NewSource(26))
	nexthops := []netip.Addr{{}, netip.MustParseAddr("192.168.1.1"), netip.MustParseAddr("2001:db8::1"), netip.MustParseAddr("fe80::1%eth0")}
	names := []string{"", "", "eth0", "eth1", "a-rather-longer-interface-name"}
	for i := 0; i < 10000; i++ {
		var a [16]byte
		rng.Read(a[:])
		addr, bits := netip.AddrFrom16(a), rng.Intn(129)
		if i%2 == 0 {
			addr, bits = netip.AddrFrom4([4]byte(a[:4])), rng.Intn(33)
		}
		e := Entry{
			Net:           netip.PrefixFrom(addr, bits).Masked(),
			NextHop:       nexthops[rng.Intn(len(nexthops))],
			IfName:        names[rng.Intn(len(names))],
			Metric:        rng.Uint32(),
			Protocol:      Protocol(rng.Intn(int(ProtoExperimental) + 1)),
			AdminDistance: uint8(rng.Intn(256)),
		}
		switch rng.Intn(3) {
		case 1:
			e.PolicyTags = []uint32{}
		case 2:
			e.PolicyTags = []uint32{rng.Uint32(), rng.Uint32()}[:1+rng.Intn(2)]
		}
		checkStored(t, e)
	}
	// Equal pairs built apart: the handle compares contents, not backing arrays.
	a, b := Entry{IfName: "eth" + strconv.Itoa(7)}, Entry{IfName: "eth7", Metric: 1}
	if a.Stored().hop != b.Stored().hop {
		t.Fatal("two routes naming one interface hold different handles")
	}
	c, d := Entry{NextHop: netip.MustParseAddr("10.0.0.1")}, Entry{NextHop: netip.AddrFrom4([4]byte{10, 0, 0, 1}), IfName: "eth0"}
	if c.Stored().hop == d.Stored().hop {
		t.Fatal("a next hop with and without an interface name share a handle")
	}

	bgp := Entry{Net: netip.MustParsePrefix("20.0.0.0/16"), NextHop: nexthops[1]}
	e := Entry{Net: netip.MustParsePrefix("10.0.0.0/8"), NextHop: nexthops[1], IfName: "eth0", Metric: 5}
	s := e.Stored()
	var sinkS Stored
	var sinkE Entry
	if n := testing.AllocsPerRun(100, func() { sinkS = e.Stored() }); n != 0 {
		t.Errorf("Stored() of an untagged entry allocates %.1f/op", n)
	}
	if n := testing.AllocsPerRun(100, func() { sinkS = bgp.Stored() }); n != 0 {
		t.Errorf("Stored() of a next hop with no name allocates %.1f/op", n)
	}
	if n := testing.AllocsPerRun(100, func() { sinkE = s.Entry(e.Net) }); n != 0 {
		t.Errorf("Entry() allocates %.1f/op", n)
	}

	tagged := e
	tagged.PolicyTags = []uint32{7, 1 << 31, 9}
	ts := tagged.Stored()
	if n := testing.AllocsPerRun(100, func() { sinkS = tagged.Stored() }); n != 0 {
		t.Errorf("Stored() of an entry whose tag list is interned allocates %.1f/op", n)
	}
	if n := testing.AllocsPerRun(100, func() { sinkE = ts.Entry(e.Net) }); n != 0 {
		t.Errorf("Entry() of a tagged route allocates %.1f/op", n)
	}
	tagged.PolicyTags[0], tagged.PolicyTags[2] = 8, 10
	if got := ts.Entry(e.Net).PolicyTags; len(got) != 3 || got[0] != 7 || got[1] != 1<<31 || got[2] != 9 {
		t.Fatalf("the caller's list rewritten after Stored() reads back as %v, want [7 %d 9]", got, uint32(1<<31))
	}
	_, _ = sinkS, sinkE
}

// TestInternIsUniqueMake: the pair cache hands out exactly unique.Make's
// handle, for pairs that fill its slots and for more pairs than it has
// slots, from several goroutines at once, and a slot's pair answers only
// for itself. The test empties the cache when it is done.
func TestInternIsUniqueMake(t *testing.T) {
	var wg sync.WaitGroup
	for g := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range 4 * len(hops) {
				h := hop{nextHop: netip.AddrFrom4([4]byte{10, 0, byte(i >> 8), byte(i)}), ifName: []string{"", "eth0", "eth1"}[(i+g)%3]}
				if got, want := intern(h), unique.Make(h); got != want {
					t.Errorf("intern(%v) is not unique.Make's handle", h)
					return
				}
			}
		}()
	}
	wg.Wait()
	filled := 0
	for i := range hops {
		if c := hops[i].Load(); c != nil {
			filled++
			if c.handle != unique.Make(c.hop) {
				t.Fatalf("slot %d holds %v under a handle unique.Make does not give it", i, c.hop)
			}
		}
	}
	if filled == 0 {
		t.Fatal("no pair was cached")
	}

	// With every slot holding one pair, a pair that differs from it only in
	// its name or its address's zone is none of them.
	held := hop{nextHop: netip.MustParseAddr("fe80::1%eth0")}
	for i := range hops {
		hops[i].Store(&cachedHop{held, unique.Make(held)})
	}
	for _, h := range []hop{held, {nextHop: held.nextHop, ifName: "eth0"}, {nextHop: netip.MustParseAddr("fe80::1%eth1")}, {nextHop: netip.MustParseAddr("fe80::1")}} {
		if intern(h) != unique.Make(h) {
			t.Errorf("intern(%v) with every slot holding %v is not unique.Make's handle", h, held)
		}
	}
	for i := range hops {
		hops[i].Store(nil)
	}

	// A tagged pair never takes a slot, even with all of them free.
	for i := range 4 * len(hops) {
		e := Entry{NextHop: netip.AddrFrom4([4]byte{10, 1, byte(i >> 8), byte(i)}), IfName: "eth0", PolicyTags: []uint32{uint32(i)}}
		checkStored(t, e)
	}
	for i := range hops {
		if c := hops[i].Load(); c != nil {
			t.Fatalf("slot %d holds the tagged pair %v", i, c.hop)
		}
	}
}

// checkStored fails unless e survives Stored and Entry, its hop is the zero
// handle exactly when it has no next hop, no name and no tags and
// unique.Make's otherwise, and the tags it gives back are nil exactly when
// it carries none and have no capacity past their end.
func checkStored(t *testing.T, e Entry) {
	t.Helper()
	s := e.Stored()
	got := s.Entry(e.Net)
	if !got.Equal(e) {
		t.Fatalf("round trip of %v tags %v gave %v tags %v", e, e.PolicyTags, got, got.PolicyTags)
	}
	var tags []byte
	for _, tag := range e.PolicyTags {
		tags = binary.NativeEndian.AppendUint32(tags, tag)
	}
	want := hop{e.NextHop, e.IfName, string(tags)}
	if none := want == (hop{}); none != (s.hop == unique.Handle[hop]{}) {
		t.Fatalf("next hop %v name %q tags %v stored as handle %v: no next hop, no name and no tags, and only that, is the zero handle", e.NextHop, e.IfName, e.PolicyTags, s.hop)
	} else if !none && s.hop != unique.Make(want) {
		t.Fatalf("next hop %v name %q tags %v stored under a handle unique.Make does not give the pair", e.NextHop, e.IfName, e.PolicyTags)
	}
	if (len(e.PolicyTags) == 0) != (got.PolicyTags == nil) || cap(got.PolicyTags) != len(got.PolicyTags) {
		t.Fatalf("tags %v read back as %v with capacity %d: no tags and only that is nil, and a list has no room past its end", e.PolicyTags, got.PolicyTags, cap(got.PolicyTags))
	}
}

// FuzzStoredRoundTrip: any entry survives Entry → Stored → Entry, with the
// zero handle exactly when it has no next hop, no name and no tags. An
// unparsable prefix or next hop stands for the zero one; tags are the
// input's little-endian words. Besides the corpus, the seeds put lists of
// one, two and three tags on each kind of pair: none, a next hop, a name,
// and both.
func FuzzStoredRoundTrip(f *testing.F) {
	f.Add("10.0.0.0/8", "192.168.1.1", "eth0", uint32(5), uint8(ProtoStatic), uint8(1), []byte(nil))
	tags := []byte{1, 0, 0, 0, 0xff, 0xff, 0xff, 0xff, 0x78, 0x56, 0x34, 0x12}
	for _, pair := range [][2]string{{"", ""}, {"192.0.2.1", ""}, {"", "eth1"}, {"2001:db8::1", "eth0"}} {
		for n := 4; n <= len(tags); n += 4 {
			f.Add("10.1.0.0/16", pair[0], pair[1], uint32(1), uint8(ProtoRIP), uint8(120), tags[:n])
		}
	}
	f.Fuzz(func(t *testing.T, net, nextHop, ifName string, metric uint32, proto, ad uint8, tags []byte) {
		p, _ := netip.ParsePrefix(net)
		nh, _ := netip.ParseAddr(nextHop)
		e := Entry{Net: p, NextHop: nh, IfName: ifName, Metric: metric, Protocol: Protocol(proto), AdminDistance: ad}
		if tags != nil {
			e.PolicyTags = []uint32{}
		}
		for ; len(tags) >= 4; tags = tags[4:] {
			e.PolicyTags = append(e.PolicyTags, binary.LittleEndian.Uint32(tags))
		}
		checkStored(t, e)
	})
}
