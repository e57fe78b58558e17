// Policy routing: the paper's §8.3 extensibility case study. A policy in
// the stack language filters and tags routes as they are redistributed
// from static routing into BGP, and a second policy filters BGP imports —
// all implemented as extra pipeline stages, with no changes to the
// pre-existing code.
//
//	go run ./examples/policy-routing
package main

import (
	"fmt"
	"log"
	"net/netip"
	"time"

	"xorp/internal/bgp"
	"xorp/internal/policy"
	"xorp/internal/route"
	"xorp/internal/rtrmgr"
)

const config = `
interfaces {
    eth0 { address 192.168.1.1/24; }
}
static {
    route 10.10.0.0/16 next-hop 192.168.1.254
    route 10.20.0.0/16 next-hop 192.168.1.254
    route 192.168.100.0/24 next-hop 192.168.1.254
}
protocols {
    bgp {
        local-as 65001
        id 192.168.1.1
        redistribute static export-statics
        peer downstream {
            local-addr 192.168.1.1
            peer-addr 192.168.1.2
            as 65002
            passive
        }
    }
}
# Redistribute only public statics, tagging them.
policy export-statics {
    term no-private {
        from net <= 192.168.0.0/16
        then reject
    }
    term statics {
        from protocol == static
        then set tag add 100
        then accept
    }
}
`

func main() {
	r, err := rtrmgr.NewRouter(config, rtrmgr.Options{})
	if err != nil {
		log.Fatal(err)
	}
	defer r.Stop()
	if err := r.Start(); err != nil {
		log.Fatal(err)
	}
	time.Sleep(300 * time.Millisecond) // let redistribution settle

	// What did BGP originate? Ask its decision stage via the local branch.
	fmt.Println("routes redistributed into BGP (10.10/16 and 10.20/16, not the 192.168 private):")
	count := 0
	r.BGP.Loop().DispatchAndWait(func() {
		for _, s := range []string{"10.10.0.0/16", "10.20.0.0/16", "192.168.100.0/24"} {
			net := netip.MustParsePrefix(s)
			// Peek via the fanout's upstream lookup (the decision).
			if r.BGP.Fanout().Lookup(net, new(bgp.Route)) {
				fmt.Printf("  %v (originated)\n", net)
				count++
			} else {
				fmt.Printf("  %v -- filtered by policy\n", net)
			}
		}
	})
	if count != 2 {
		log.Fatalf("expected 2 redistributed routes, got %d", count)
	}

	// Second act: an import policy as an extra filter-bank stage on a
	// running peering — "the code does not impact other stages".
	importPol, err := policy.Compile("import", `
term drop-long-paths {
    from as-path-len > 4
    then reject
}
term prefer-direct {
    from as-path-len <= 1
    then set localpref 200
    then accept
}
`)
	if err != nil {
		log.Fatal(err)
	}
	filter := policy.BGPFilter(importPol)
	_ = filter // installed per-peer at AddPeer time in a full deployment

	fmt.Println("\nimport policy compiled:", importPol.Name)
	demo := &bgp.Route{
		Net: netip.MustParsePrefix("20.0.0.0/8"),
		Attrs: &bgp.PathAttrs{
			Origin:  bgp.OriginIGP,
			ASPath:  bgp.ASPath{{Type: bgp.SegSequence, ASes: []uint16{65002, 1, 2, 3, 4}}},
			NextHop: netip.MustParseAddr("10.0.0.1"),
		},
	}
	if filter.Apply(demo) == nil {
		fmt.Println("  5-hop route: rejected by drop-long-paths")
	}
	demo.Attrs.ASPath = bgp.ASPath{{Type: bgp.SegSequence, ASes: []uint16{65002}}}
	if out := filter.Apply(demo); out != nil && out.LocalPref == 200 {
		fmt.Println("  1-hop route: accepted with LOCAL_PREF 200")
	}

	// The RIB's view, for completeness.
	fmt.Println("\nfinal RIB routes:")
	r.RIB.Loop().DispatchAndWait(func() {
		for _, s := range []string{"10.10.0.0/16", "192.168.100.0/24"} {
			addr := netip.MustParsePrefix(s).Addr().Next()
			if e, ok := r.RIB.LookupBest(addr); ok {
				fmt.Printf("  %v proto %v\n", e.Net, e.Protocol)
			}
		}
	})
	_ = route.ProtoStatic
}
