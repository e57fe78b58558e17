package route

import (
	"math/rand"
	"net/netip"
	"strconv"
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
	if got := unsafe.Sizeof(Stored{}); got != 48 {
		t.Errorf("Stored is %d bytes, want 48", got)
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
		s := e.Stored()
		if got := s.Entry(e.Net); !got.Equal(e) {
			t.Fatalf("round trip of %v tags %v gave %v tags %v", e, e.PolicyTags, got, got.PolicyTags)
		}
		if (e.IfName == "") != (s.ifName == unique.Handle[string]{}) {
			t.Fatalf("name %q stored as handle %v: the empty name and only it is the zero handle", e.IfName, s.ifName)
		}
		if (len(e.PolicyTags) == 0) != (s.tags == nil) {
			t.Fatalf("tags %v stored as %v: no tags and only that is nil", e.PolicyTags, s.tags)
		}
	}
	// Equal names built apart: the handle compares contents, not backing arrays.
	a, b := Entry{IfName: "eth" + strconv.Itoa(7)}, Entry{IfName: "eth7", Metric: 1}
	if a.Stored().ifName != b.Stored().ifName {
		t.Fatal("two routes naming one interface hold different handles")
	}

	e := Entry{Net: netip.MustParsePrefix("10.0.0.0/8"), NextHop: nexthops[1], IfName: "eth0", Metric: 5}
	s := e.Stored()
	var sinkS Stored
	var sinkE Entry
	if n := testing.AllocsPerRun(100, func() { sinkS = e.Stored() }); n != 0 {
		t.Errorf("Stored() of an untagged entry allocates %.1f/op", n)
	}
	if n := testing.AllocsPerRun(100, func() { sinkE = s.Entry(e.Net) }); n != 0 {
		t.Errorf("Entry() allocates %.1f/op", n)
	}
	_, _ = sinkS, sinkE
}
