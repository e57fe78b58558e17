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
// give back the entry, over every shape a field takes.
func TestStoredRoundTrip(t *testing.T) {
	if got := unsafe.Sizeof(Stored{}); got != 24 {
		t.Errorf("Stored is %d bytes, want 24", got)
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
				h := hop{netip.AddrFrom4([4]byte{10, 0, byte(i >> 8), byte(i)}), []string{"", "eth0", "eth1"}[(i+g)%3]}
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
	held := hop{netip.MustParseAddr("fe80::1%eth0"), ""}
	for i := range hops {
		hops[i].Store(&cachedHop{held, unique.Make(held)})
	}
	for _, h := range []hop{held, {held.nextHop, "eth0"}, {netip.MustParseAddr("fe80::1%eth1"), ""}, {netip.MustParseAddr("fe80::1"), ""}} {
		if intern(h) != unique.Make(h) {
			t.Errorf("intern(%v) with every slot holding %v is not unique.Make's handle", h, held)
		}
	}
	for i := range hops {
		hops[i].Store(nil)
	}
}

// checkStored fails unless e survives Stored and Entry, its hop is the zero
// handle exactly when it has no next hop and no name and unique.Make's
// otherwise, and its tags are nil exactly when it carries none.
func checkStored(t *testing.T, e Entry) {
	t.Helper()
	s := e.Stored()
	if got := s.Entry(e.Net); !got.Equal(e) {
		t.Fatalf("round trip of %v tags %v gave %v tags %v", e, e.PolicyTags, got, got.PolicyTags)
	}
	if none := !e.NextHop.IsValid() && e.IfName == ""; none != (s.hop == unique.Handle[hop]{}) {
		t.Fatalf("next hop %v name %q stored as handle %v: no next hop and no name, and only that, is the zero handle", e.NextHop, e.IfName, s.hop)
	} else if !none && s.hop != unique.Make(hop{e.NextHop, e.IfName}) {
		t.Fatalf("next hop %v name %q stored under a handle unique.Make does not give the pair", e.NextHop, e.IfName)
	}
	if (len(e.PolicyTags) == 0) != (s.tags == nil) {
		t.Fatalf("tags %v stored as %v: no tags and only that is nil", e.PolicyTags, s.tags)
	}
}

// FuzzStoredRoundTrip: any entry survives Entry → Stored → Entry, with the
// zero handle exactly when it has no next hop and no name. An unparsable
// prefix or next hop stands for the zero one; tags are the input's
// little-endian words.
func FuzzStoredRoundTrip(f *testing.F) {
	f.Add("10.0.0.0/8", "192.168.1.1", "eth0", uint32(5), uint8(ProtoStatic), uint8(1), []byte(nil))
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
