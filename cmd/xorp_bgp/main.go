// Command xorp_bgp runs the BGP process: the staged BGP pipeline of paper
// §5.1 behind real RFC 4271 sessions, sending its best routes to the RIB
// and resolving nexthops through it. Its AS, identifier, damping and
// peers are the configuration's `protocols { bgp { ... } }` block; peers
// may also be added at runtime with bgp/1.0 XRLs (see cmd/call_xrl):
//
//	call_xrl 'finder://bgp/bgp/1.0/add_peer?name:txt=p1&local_addr:ipv4=...&peer_addr:ipv4=...&as:u32=65002&dial:txt=host:port'
//	call_xrl 'finder://bgp/bgp/1.0/enable_peer?name:txt=p1'
//
// Usage:
//
//	xorp_bgp -finder 127.0.0.1:19999 -config router.conf [-listen 0.0.0.0:179]
package main

import (
	"flag"
	"fmt"
	"os"

	"xorp/internal/rtrmgr"
)

func main() {
	finderAddr := flag.String("finder", "127.0.0.1:19999", "Finder TCP address")
	config := flag.String("config", "", "router configuration file: its bgp block")
	listen := flag.String("listen", "", "address for incoming BGP sessions")
	flag.Parse()
	if err := rtrmgr.RunProcess("bgp", *finderAddr, *config, rtrmgr.Options{BGPListen: *listen}); err != nil {
		fmt.Fprintf(os.Stderr, "xorp_bgp: %v\n", err)
		os.Exit(1)
	}
}
