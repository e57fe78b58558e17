// Multiprocess: the real thing — Finder, FEA, RIB and BGP as separate
// operating-system processes, exactly the paper's architecture, wired
// over TCP XRLs and driven externally the way call_xrl scripts would.
// This example builds the cmd/ binaries and writes one router config
// file that every process is started with: each configures itself from
// its own slice of it (the FEA its interfaces, the RIB the connected and
// static routes, BGP its AS and identifier), as the router manager would.
// It then adds a static route over an XRL, switches the FEA's §8.2
// route_enter_kernel profile point on, injects a route by originating it,
// and reads the FEA's forwarding table and that point's record back — all
// across process boundaries.
//
//	go run ./examples/multiprocess
package main

import (
	"fmt"
	"log"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"time"

	"xorp/internal/eventloop"
	"xorp/internal/xipc"
	"xorp/internal/xrl"
)

const finderAddr = "127.0.0.1:29999"

const config = `
interfaces { eth0 { address 192.168.1.1/24; } }
static { route 10.0.0.0/8 next-hop 192.168.1.254 interface eth0; }
protocols { bgp { local-as 65001; id 192.168.1.1; } }
`

func main() {
	bindir, err := os.MkdirTemp("", "xorp-bins-")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(bindir)

	fmt.Println("building process binaries...")
	build := exec.Command("go", "build", "-o", bindir,
		"./cmd/xorp_finder", "./cmd/xorp_fea", "./cmd/xorp_rib", "./cmd/xorp_bgp")
	build.Stdout, build.Stderr = os.Stdout, os.Stderr
	if err := build.Run(); err != nil {
		log.Fatal("go build: ", err)
	}

	cfgPath := filepath.Join(bindir, "router.conf")
	if err := os.WriteFile(cfgPath, []byte(config), 0o644); err != nil {
		log.Fatal(err)
	}
	spawn := func(name string, args ...string) *exec.Cmd {
		cmd := exec.Command(filepath.Join(bindir, name), args...)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Start(); err != nil {
			log.Fatalf("%s: %v", name, err)
		}
		return cmd
	}
	var procs []*exec.Cmd
	defer func() {
		for _, p := range procs {
			p.Process.Kill()
			p.Wait()
		}
	}()

	procs = append(procs, spawn("xorp_finder", "-listen", finderAddr))
	time.Sleep(300 * time.Millisecond)
	for _, name := range []string{"xorp_fea", "xorp_rib", "xorp_bgp"} {
		procs = append(procs, spawn(name, "-finder", finderAddr, "-config", cfgPath))
	}
	time.Sleep(500 * time.Millisecond)

	// A management client (what call_xrl is, as a library).
	loop := eventloop.New(nil)
	router := xipc.NewRouter("example_mgmt", loop)
	router.SetFinderTCP(finderAddr)
	go loop.Run()
	defer loop.Stop()

	call := func(s string) xrl.Args {
		x, err := xrl.Parse(s)
		if err != nil {
			log.Fatal(err)
		}
		args, xerr := router.Call(x)
		if xerr != nil {
			log.Fatalf("%s: %v", s, xerr)
		}
		return args
	}

	fmt.Println("\nconfiguring the running router over XRLs:")
	// The config's static 10.0.0.0/8 resolves BGP's nexthops; one more
	// static route travels as a textual XRL, a list of one
	// "net nexthop metric ifname".
	call("finder://rib/rib/1.0/add_routes4?protocol:txt=static&routes:list=10.9.0.0/16 192.168.1.253 0 eth0")
	fmt.Println("  rib: added static 10.9.0.0/16")
	// Profile the route's last hop in the FEA's own process (§8.2).
	call("finder://fea/profile/0.1/enable?pname:txt=route_enter_kernel")
	fmt.Println("  fea: profile point route_enter_kernel enabled")
	// Originate a BGP route (as route redistribution would).
	call("finder://bgp/bgp/1.0/originate_route4?nlri:ipv4net=20.5.0.0/16&next_hop:ipv4=10.0.0.1")
	fmt.Println("  bgp: originated 20.5.0.0/16 via 10.0.0.1")

	// The route crosses BGP -> RIB -> FEA over inter-process XRLs.
	deadline := time.Now().Add(5 * time.Second)
	var found bool
	for time.Now().Before(deadline) {
		args := call("finder://fea/fti/0.2/lookup_entry4?addr:ipv4=20.5.1.2")
		if must(args.BoolArg("found")) {
			net := must(args.NetArg("network"))
			fmt.Printf("\nFEA forwarding entry installed: %v (asked three processes away)\n", net)
			found = true
			break
		}
		time.Sleep(50 * time.Millisecond)
	}
	if !found {
		log.Fatal("route never reached the FEA")
	}
	args := call("finder://fea/profile/0.1/get_entries?pname:txt=route_enter_kernel")
	entries := must(args.ListArg("entries"))
	for _, e := range entries {
		if strings.HasSuffix(e.TextVal, " 20.5.0.0/16") {
			fmt.Printf("FEA profile record: %s\n", e.TextVal)
		}
	}

	// Show the Finder's view of the running system.
	args = call("finder://finder/finder/1.0/targets")
	targets := must(args.ListArg("targets"))
	fmt.Println("\nregistered components:")
	for _, t := range targets {
		fmt.Printf("  %s\n", t.TextVal)
	}
}

// must returns a reply atom read without error, and ends the example on a
// reply that lacks it or has it mistyped.
func must[T any](v T, err error) T {
	if err != nil {
		log.Fatalf("reply: %v", err)
	}
	return v
}
