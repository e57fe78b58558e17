// Command xorp_ospf runs the OSPF process against a running FEA and RIB,
// built as the rtrmgr assembly builds it: its router ID, timers and
// export policy are the configuration's `protocols { ospf { ... } }`
// block, and each interface of its `interfaces` block is originated as a
// stub prefix. Its packets, AllSPFRouters membership included, are
// relayed through the FEA's fea_udp XRLs (paper §7), so without an FEA
// attached to a packet network it idles. It binds redist4/0.1, so a
// redist4/0.1 add_route4 makes OSPF originate the prefix at the metric as
// its cost.
//
// Usage:
//
//	xorp_ospf -finder 127.0.0.1:19999 -local 192.168.1.1 [-config router.conf]
package main

import (
	"flag"
	"fmt"
	"net/netip"
	"os"

	"xorp/internal/rtrmgr"
)

func main() {
	finderAddr := flag.String("finder", "127.0.0.1:19999", "Finder TCP address")
	config := flag.String("config", "", "router configuration file: its ospf block and interfaces")
	var opts rtrmgr.Options
	flag.Func("local", "local address", func(s string) (err error) {
		opts.LocalAddr, err = netip.ParseAddr(s)
		return err
	})
	flag.Parse()
	if err := rtrmgr.RunProcess("ospf", *finderAddr, *config, opts); err != nil {
		fmt.Fprintf(os.Stderr, "xorp_ospf: %v\n", err)
		os.Exit(1)
	}
}
