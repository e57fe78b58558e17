// Command xorp_rip runs the RIP process against a running FEA and RIB.
// RIP's network access is relayed through the FEA's fea_udp XRLs (paper
// §7: sandboxed processes never touch the network directly), so this
// binary is only useful alongside an FEA attached to a packet network; in
// the standalone multi-process deployment the FEA has no simulated fabric
// and RIP idles. It exists for completeness and for driving with rip/0.1
// XRLs; the rtrmgr assembly wires RIP with the same calls, and that is
// where the RIP system is exercised (the rtrmgr and chaos tests).
//
// Usage:
//
//	xorp_rip -finder 127.0.0.1:19999 -local 192.168.1.1
package main

import (
	"flag"
	"fmt"
	"net/netip"
	"os"
	"os/signal"
	"syscall"

	"xorp/internal/eventloop"
	"xorp/internal/finder"
	"xorp/internal/rip"
	"xorp/internal/route"
	"xorp/internal/rtrmgr"
	"xorp/internal/xif"
	"xorp/internal/xipc"
)

func main() {
	finderAddr := flag.String("finder", "127.0.0.1:19999", "Finder TCP address")
	local := flag.String("local", "", "local address")
	flag.Parse()
	if *local == "" {
		fatal(fmt.Errorf("-local is required"))
	}
	localAddr, err := netip.ParseAddr(*local)
	if err != nil {
		fatal(err)
	}

	loop := eventloop.New(nil)
	router := xipc.NewRouter("rip_process", loop)
	if err := router.ListenTCP("127.0.0.1:0"); err != nil {
		fatal(err)
	}
	router.SetFinderTCP(*finderAddr)

	target := xif.NewTarget("rip", "rip")
	proc := rip.NewProcess(loop, rip.Config{LocalAddr: localAddr, IfName: "eth0"},
		rtrmgr.NewXRLRIPTransport(router, target, "fea"),
		rtrmgr.NewXRLRouteClient(router, "rib", route.ProtoRIP))
	rtrmgr.BindRIP(target, proc)
	router.AddTarget(target)
	go loop.Run()
	if err := finder.RegisterTargetSync(router, target, true); err != nil {
		fatal(err)
	}
	loop.Dispatch(func() {
		if err := proc.Start(); err != nil {
			fmt.Fprintf(os.Stderr, "xorp_rip: start: %v\n", err)
		}
	})
	fmt.Printf("xorp_rip: registered with finder at %s\n", *finderAddr)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	loop.Stop()
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "xorp_rip: %v\n", err)
	os.Exit(1)
}
