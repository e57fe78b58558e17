// Command xorp_rip runs the RIP process against a running FEA and RIB,
// built as the rtrmgr assembly builds it; its timers are the
// configuration's `protocols { rip { ... } }` block. Its packets are
// relayed through the FEA's fea_udp XRLs (paper §7), so without an FEA
// attached to a packet network it idles. It binds redist4/0.1, the
// interface a RIB redist stage feeds, so a redist4/0.1 add_route4 makes
// RIP originate a local route and teach it to the RIB.
//
// Usage:
//
//	xorp_rip -finder 127.0.0.1:19999 -local 192.168.1.1 [-config router.conf]
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
	config := flag.String("config", "", "router configuration file: its rip block")
	var opts rtrmgr.Options
	flag.Func("local", "local address", func(s string) (err error) {
		opts.LocalAddr, err = netip.ParseAddr(s)
		return err
	})
	flag.Parse()
	if err := rtrmgr.RunProcess("rip", *finderAddr, *config, opts); err != nil {
		fmt.Fprintf(os.Stderr, "xorp_rip: %v\n", err)
		os.Exit(1)
	}
}
