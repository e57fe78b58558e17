package policy

import (
	"fmt"
	"strings"
	"testing"

	"xorp/internal/bgp"
	"xorp/internal/route"
)

// fuzzRIBRoutes and fuzzBGPRoutes are what every fuzzed policy runs over:
// each attribute a policy can read, present and absent.
var fuzzRIBRoutes = []route.Entry{
	{Net: mustP("10.1.0.0/16"), NextHop: mustA("192.168.1.254"), IfName: "eth0", Metric: 1, Protocol: route.ProtoStatic},
	{Net: mustP("172.16.0.0/12"), Metric: 9, AdminDistance: 120, Protocol: route.ProtoRIP, PolicyTags: []uint32{42, 7}},
	{Net: mustP("0.0.0.0/0"), NextHop: mustA("10.0.0.1"), Protocol: route.ProtoEBGP},
}

func fuzzBGPRoutes() []bgp.Route {
	return []bgp.Route{
		{Net: mustP("10.0.0.0/8"), Attrs: &bgp.PathAttrs{Origin: bgp.OriginIGP, NextHop: mustA("10.0.0.1"),
			ASPath: bgp.ASPath{{Type: bgp.SegSequence, ASes: []uint16{65001, 65002}}}}},
		{Net: mustP("192.168.5.0/24"), Src: &bgp.PeerHandle{Addr: mustA("10.0.0.2"), IBGP: true},
			Attrs: &bgp.PathAttrs{Origin: bgp.OriginIncomplete, NextHop: mustA("10.0.0.2"), MED: 50, HasMED: true,
				LocalPref: 300, HasLocalPref: true, Communities: []uint32{1, 2}}},
	}
}

// verdicts renders what p's RIB redistribution and BGP filters make of the
// fixed routes.
func verdicts(p *Policy) string {
	var sb strings.Builder
	redist := RIBRedistFilter(p)
	for _, e := range fuzzRIBRoutes {
		if out := redist(e); out != nil {
			fmt.Fprintf(&sb, "redist %+v\n", *out)
		} else {
			sb.WriteString("redist drop\n")
		}
	}
	filter := BGPFilter(p)
	for _, r := range fuzzBGPRoutes() {
		if out := filter.Apply(&r); out != nil {
			fmt.Fprintf(&sb, "bgp %+v\n", *out)
		} else {
			sb.WriteString("bgp drop\n")
		}
	}
	return sb.String()
}

// FuzzPolicyText holds the policy compiler to arbitrary program text, as
// the RIB's config agent takes it off the config/0.1 wire: whatever
// compiles runs over fixed RIB and BGP routes through the redistribution
// and BGP filters without a panic, and the same text compiled again gives
// the same verdicts. Seeded by testdata/fuzz/FuzzPolicyText: the
// policies of the tests, the examples and the README, as the router
// manager renders them.
func FuzzPolicyText(f *testing.F) {
	f.Fuzz(func(t *testing.T, src string) {
		a, err := Compile("fuzz", src)
		if err != nil {
			return
		}
		b, err := Compile("fuzz", src)
		if err != nil {
			t.Fatalf("%q compiled, then failed to: %v", src, err)
		}
		if va, vb := verdicts(a), verdicts(b); va != vb {
			t.Fatalf("%q compiled twice gives\n%s\nand\n%s", src, va, vb)
		}
	})
}
