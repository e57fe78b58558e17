package policy

import (
	"net/netip"
	"strings"
	"testing"
	"testing/quick"

	"xorp/internal/bgp"
	"xorp/internal/route"
)

func mustP(s string) netip.Prefix { return netip.MustParsePrefix(s) }
func mustA(s string) netip.Addr   { return netip.MustParseAddr(s) }

// mapRoute is a trivial Route for VM tests.
type mapRoute map[string]Value

func (m mapRoute) Get(attr string) (Value, bool) {
	v, ok := m[attr]
	return v, ok
}

func (m mapRoute) Set(attr string, v Value) error {
	m[attr] = v
	return nil
}

func TestCompileErrors(t *testing.T) {
	bad := []string{
		"term {",                         // missing close
		"}",                              // unmatched
		"from med == 5",                  // outside term
		"then accept",                    // outside term
		"term a {\nfrom med ~~ 5\n}",     // bad cmp
		"term a {\nfrom med\n}",          // too few fields
		"term a {\nthen explode\n}",      // bad action
		"term a {\nbogus statement x\n}", // unknown stmt
		"term a {\nterm b {\n}\n}",       // nested
	}
	for _, src := range bad {
		if _, err := Compile("t", src); err == nil {
			t.Errorf("Compile(%q) succeeded", src)
		}
	}
}

func TestMatchAndActions(t *testing.T) {
	p, err := Compile("demo", `
# reject long paths
term reject-long {
    from as-path-len > 5
    then reject
}
term tag-and-set {
    from net <= 10.0.0.0/8
    from med == 0
    then set med 100
    then set tag add 42
    then accept
}
`)
	if err != nil {
		t.Fatal(err)
	}

	r := mapRoute{"as-path-len": Num(9), "net": NetVal(mustP("10.1.0.0/16")), "med": Num(0)}
	act, err := p.Execute(r)
	if err != nil || act != ActionReject {
		t.Fatalf("long path: %v %v", act, err)
	}

	r = mapRoute{"as-path-len": Num(2), "net": NetVal(mustP("10.1.0.0/16")), "med": Num(0)}
	act, err = p.Execute(r)
	if err != nil || act != ActionAccept {
		t.Fatalf("tag term: %v %v", act, err)
	}
	if r["med"].Num != 100 {
		t.Fatalf("med not set: %+v", r["med"])
	}
	if r["tag"].Str != "42" {
		t.Fatalf("tag not added: %+v", r["tag"])
	}

	// Outside 10/8: no term matches -> pass.
	r = mapRoute{"as-path-len": Num(2), "net": NetVal(mustP("192.168.0.0/16")), "med": Num(0)}
	act, _ = p.Execute(r)
	if act != ActionPass {
		t.Fatalf("unmatched route: %v", act)
	}
}

func TestPrefixComparisons(t *testing.T) {
	cases := []struct {
		cmp  string
		a, b string
		want bool
	}{
		{"<=", "10.1.0.0/16", "10.0.0.0/8", true},   // inside
		{"<=", "10.0.0.0/8", "10.0.0.0/8", true},    // equal
		{"<", "10.0.0.0/8", "10.0.0.0/8", false},    // strict
		{"<", "10.1.0.0/16", "10.0.0.0/8", true},    //
		{"<=", "11.0.0.0/8", "10.0.0.0/8", false},   // disjoint
		{">=", "10.0.0.0/8", "10.1.0.0/16", true},   // covers
		{">", "10.0.0.0/8", "10.1.0.0/16", true},    //
		{">", "10.0.0.0/8", "10.0.0.0/8", false},    //
		{"==", "10.0.0.0/8", "10.0.0.0/8", true},    //
		{"!=", "10.0.0.0/8", "10.1.0.0/16", true},   //
		{"<=", "10.255.0.0/24", "10.0.0.0/8", true}, //
	}
	for _, c := range cases {
		got, err := compare(NetVal(mustP(c.a)), NetVal(mustP(c.b)), c.cmp)
		if err != nil || got != c.want {
			t.Errorf("%s %s %s = %v (%v), want %v", c.a, c.cmp, c.b, got, err, c.want)
		}
	}
	if _, err := compare(NetVal(mustP("10.0.0.0/8")), Num(5), "<="); err == nil {
		t.Error("prefix vs num accepted")
	}
	if _, err := compare(Str("x"), Str("y"), "<"); err == nil {
		t.Error("string ordering accepted")
	}
}

func TestQuickNumericComparisons(t *testing.T) {
	f := func(a, b uint32) bool {
		av, bv := Num(uint64(a)), Num(uint64(b))
		checks := []struct {
			cmp  string
			want bool
		}{
			{"==", a == b}, {"!=", a != b}, {"<", a < b},
			{"<=", a <= b}, {">", a > b}, {">=", a >= b},
		}
		for _, c := range checks {
			got, err := compare(av, bv, c.cmp)
			if err != nil || got != c.want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBGPFilterIntegration(t *testing.T) {
	p, err := Compile("bgp-import", `
term drop-martians {
    from net <= 192.168.0.0/16
    then reject
}
term prefer-short {
    from as-path-len <= 2
    then set localpref 200
}
`)
	if err != nil {
		t.Fatal(err)
	}
	f := BGPFilter(p)

	mk := func(net string, ases ...uint16) *bgp.Route {
		return &bgp.Route{
			Net: mustP(net),
			Attrs: &bgp.PathAttrs{
				Origin:  bgp.OriginIGP,
				ASPath:  bgp.ASPath{{Type: bgp.SegSequence, ASes: ases}},
				NextHop: mustA("10.0.0.1"),
			},
		}
	}
	if f.Apply(mk("192.168.5.0/24", 65001)) != nil {
		t.Fatal("martian not dropped")
	}
	out := f.Apply(mk("10.0.0.0/8", 65001, 65002))
	if out == nil || !out.HasLocalPref || out.LocalPref != 200 {
		t.Fatalf("short path not preferred: %+v", out)
	}
	// The original route must be untouched (immutability).
	orig := mk("10.0.0.0/8", 65001)
	f.Apply(orig)
	if orig.Attrs.HasLocalPref {
		t.Fatal("policy mutated the original route")
	}
	// Long path: no term decides; route passes unmodified.
	long := mk("10.0.0.0/8", 1, 2, 3, 4)
	if out := f.Apply(long); out != long.Attrs {
		t.Fatal("unmatched route was copied or dropped")
	}
}

func TestRIBRedistFilterIntegration(t *testing.T) {
	p, err := Compile("redist-static", `
term statics {
    from protocol == static
    then set tag add 7
    then accept
}
`)
	if err != nil {
		t.Fatal(err)
	}
	f := RIBRedistFilter(p)
	out := f(route.Entry{Net: mustP("10.0.0.0/8"), Protocol: route.ProtoStatic})
	if out == nil || len(out.PolicyTags) != 1 || out.PolicyTags[0] != 7 {
		t.Fatalf("static route: %+v", out)
	}
	if f(route.Entry{Net: mustP("10.0.0.0/8"), Protocol: route.ProtoRIP}) != nil {
		t.Fatal("rip route redistributed")
	}
}

func TestOSPFExportFilterIntegration(t *testing.T) {
	p, err := Compile("ospf-export", `
term block-private {
    from net <= 192.168.0.0/16
    then reject
}
term tag-rest {
    then set tag add 42
}
`)
	if err != nil {
		t.Fatal(err)
	}
	f := OSPFExportFilter(p)
	if f(route.Entry{Net: mustP("192.168.7.0/24"), Metric: 3}) != nil {
		t.Fatal("blocked prefix exported")
	}
	out := f(route.Entry{Net: mustP("172.16.0.0/16"), Metric: 3})
	if out == nil || len(out.PolicyTags) != 1 || out.PolicyTags[0] != 42 {
		t.Fatalf("export filter output %+v", out)
	}
	if out.Metric != 3 {
		t.Fatalf("metric mutated: %+v", out)
	}
}

func TestBGPAdapterAttributes(t *testing.T) {
	src := &bgp.PeerHandle{Name: "p", Addr: mustA("10.9.9.9"), AS: 65009, IBGP: true}
	r := &bgp.Route{
		Net: mustP("10.0.0.0/8"),
		Attrs: &bgp.PathAttrs{
			Origin:  bgp.OriginEGP,
			ASPath:  bgp.ASPath{{Type: bgp.SegSequence, ASes: []uint16{1, 2}}},
			NextHop: mustA("10.0.0.1"),
			MED:     5, HasMED: true,
		},
		Src: src,
	}
	ad := &bgpRoute{r: r, attrs: r.Attrs}
	checks := map[string]string{
		"as-path":  "1 2",
		"nexthop":  "10.0.0.1",
		"neighbor": "10.9.9.9",
		"protocol": "ibgp",
	}
	for attr, want := range checks {
		v, ok := ad.Get(attr)
		if !ok || v.Str != want {
			t.Errorf("Get(%s) = %+v, want %q", attr, v, want)
		}
	}
	if v, ok := ad.Get("med"); !ok || v.Num != 5 {
		t.Errorf("med = %+v", v)
	}
	if _, ok := ad.Get("unknown-attr"); ok {
		t.Error("unknown attribute resolved")
	}
	if err := ad.Set("nexthop", Str("10.2.2.2")); err != nil {
		t.Fatal(err)
	}
	if ad.attrs.NextHop != mustA("10.2.2.2") || r.Attrs.NextHop != mustA("10.0.0.1") {
		t.Fatal("nexthop not set")
	}
	if err := ad.Set("origin", Num(9)); err == nil {
		t.Error("origin 9 accepted")
	}
	if err := ad.Set("bogus", Num(1)); err == nil {
		t.Error("bogus attribute set")
	}
}

func TestPolicyErrorsSurface(t *testing.T) {
	p, err := Compile("bad-run", "term a {\nfrom net == 10.0.0.0/8\nthen set frozen 1\n}")
	if err != nil {
		t.Fatal(err)
	}
	r := mapRouteStrict{}
	r.vals = mapRoute{"net": NetVal(mustP("10.0.0.0/8"))}
	_, execErr := p.Execute(r)
	if execErr == nil {
		t.Fatal("Set error not surfaced")
	}
	if !strings.Contains(execErr.Error(), "frozen") {
		t.Fatalf("error lost its cause: %v", execErr)
	}
}

// mapRouteStrict rejects all Sets.
type mapRouteStrict struct{ vals mapRoute }

func (m mapRouteStrict) Get(attr string) (Value, bool) { return m.vals.Get(attr) }
func (m mapRouteStrict) Set(string, Value) error {
	return errFrozen
}

var errFrozen = errorString("frozen")

type errorString string

func (e errorString) Error() string { return string(e) }
