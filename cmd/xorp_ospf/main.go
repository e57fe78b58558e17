// Command xorp_ospf runs the OSPF process against a running FEA and
// RIB. OSPF's network access is relayed through the FEA's fea_udp XRLs
// (paper §7: sandboxed processes never touch the network directly),
// including AllSPFRouters group membership via join_group, so this
// binary is only useful alongside an FEA attached to a packet network;
// in the standalone multi-process deployment the FEA has no simulated
// fabric and OSPF idles. It exists for completeness and for driving
// with ospf/0.1 XRLs; the rtrmgr assembly wires OSPF with the same calls,
// and that is where the OSPF system is exercised (examples/convergence,
// the rtrmgr and chaos tests).
//
// Usage:
//
//	xorp_ospf -finder 127.0.0.1:19999 -local 192.168.1.1
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
	"xorp/internal/ospf"
	"xorp/internal/route"
	"xorp/internal/rtrmgr"
	"xorp/internal/xif"
	"xorp/internal/xipc"
)

func main() {
	finderAddr := flag.String("finder", "127.0.0.1:19999", "Finder TCP address")
	local := flag.String("local", "", "local address")
	routerID := flag.String("router-id", "", "router ID (defaults to -local)")
	flag.Parse()
	if *local == "" {
		fatal(fmt.Errorf("-local is required"))
	}
	localAddr, err := netip.ParseAddr(*local)
	if err != nil {
		fatal(err)
	}
	cfg := ospf.Config{LocalAddr: localAddr, IfName: "eth0"}
	if *routerID != "" {
		if cfg.RouterID, err = netip.ParseAddr(*routerID); err != nil {
			fatal(err)
		}
	}

	loop := eventloop.New(nil)
	router := xipc.NewRouter("ospf_process", loop)
	if err := router.ListenTCP("127.0.0.1:0"); err != nil {
		fatal(err)
	}
	router.SetFinderTCP(*finderAddr)

	target := xif.NewTarget("ospf", "ospf")
	proc := ospf.NewProcess(loop, cfg, rtrmgr.NewXRLOSPFTransport(router, target, "fea"),
		rtrmgr.NewXRLRouteClient(router, "rib", route.ProtoOSPF))
	rtrmgr.BindOSPF(target, proc)
	router.AddTarget(target)
	go loop.Run()
	if err := finder.RegisterTargetSync(router, target, true); err != nil {
		fatal(err)
	}
	loop.Dispatch(func() {
		if err := proc.Start(); err != nil {
			fmt.Fprintf(os.Stderr, "xorp_ospf: start: %v\n", err)
		}
	})
	fmt.Printf("xorp_ospf: registered with finder at %s\n", *finderAddr)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	loop.Stop()
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "xorp_ospf: %v\n", err)
	os.Exit(1)
}
