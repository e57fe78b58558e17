// Command xorp_rib runs the Routing Information Base process: the staged
// plumbing between routing protocols (paper §5.2), forwarding its final
// routes to the FEA over fti XRLs. The configuration's interfaces become
// connected routes, its `static` block static routes, and each
// `redistribute` statement under `protocols` a redist stage feeding that
// process. It watches every process's Finder lifetime: a protocol's
// death marks its routes stale (graceful restart).
//
// Usage:
//
//	xorp_rib -finder 127.0.0.1:19999 [-config router.conf]
package main

import (
	"flag"
	"fmt"
	"os"

	"xorp/internal/rtrmgr"
)

func main() {
	finderAddr := flag.String("finder", "127.0.0.1:19999", "Finder TCP address")
	config := flag.String("config", "", "router configuration file: interfaces, static routes, redistribution")
	flag.Parse()
	if err := rtrmgr.RunProcess("rib", *finderAddr, *config, rtrmgr.Options{}); err != nil {
		fmt.Fprintf(os.Stderr, "xorp_rib: %v\n", err)
		os.Exit(1)
	}
}
