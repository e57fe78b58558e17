// Command xorp_fea runs the Forwarding Engine Abstraction process: it
// owns the (simulated) kernel FIB, installs the routes the RIB sends it,
// and relays routing protocol packets (paper §3, §7). Its interfaces are
// the configuration's `interfaces` block.
//
// Usage:
//
//	xorp_fea -finder 127.0.0.1:19999 [-config router.conf]
package main

import (
	"flag"
	"fmt"
	"os"

	"xorp/internal/rtrmgr"
)

func main() {
	finderAddr := flag.String("finder", "127.0.0.1:19999", "Finder TCP address")
	config := flag.String("config", "", "router configuration file: its interfaces block")
	flag.Parse()
	if err := rtrmgr.RunProcess("fea", *finderAddr, *config, rtrmgr.Options{}); err != nil {
		fmt.Fprintf(os.Stderr, "xorp_fea: %v\n", err)
		os.Exit(1)
	}
}
