package rtrmgr

import (
	"testing"
	"time"

	"xorp/internal/eventloop"
	"xorp/internal/finder"
	"xorp/internal/route"
	"xorp/internal/xipc"
	"xorp/internal/xrl"
)

// The multi-process deployment: a TCP Finder, and the FEA, the RIB and
// BGP each built by startProcess on its own loop and TCP XRL router from
// one config text, as the cmd/ mains run them. The config's connected and
// static routes reach the FEA through the RIB; a route BGP originates
// reaches it too; every target serves config/0.1; and when BGP leaves the
// Finder, the RIB (which watches lifetimes) marks its routes stale
// rather than stranding them.
func TestStandaloneProcesses(t *testing.T) {
	const cfg = `
interfaces { eth0 { address 192.168.1.1/24; } }
static { route 10.0.0.0/8 next-hop 192.168.1.254; }
protocols { bgp { local-as 65001; id 192.168.1.1; } }
`
	floop := eventloop.New(nil)
	f := finder.New(floop)
	if err := f.ListenTCP("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	go floop.Run()
	defer floop.Stop()

	start := func(class string) *process {
		t.Helper()
		p, err := startProcess(class, f.TCPAddr(), cfg, Options{})
		if err != nil {
			t.Fatalf("%s: %v", class, err)
		}
		return p
	}
	fea, rib := start("fea"), start("rib")
	defer fea.stop()
	defer rib.stop()
	bgp := start("bgp")
	bgpUp := true
	defer func() {
		if bgpUp {
			bgp.stop()
		}
	}()

	mloop := eventloop.New(nil)
	mgmt := xipc.NewRouter("test_mgmt", mloop)
	mgmt.SetFinderTCP(f.TCPAddr())
	go mloop.Run()
	defer mloop.Stop()
	call := func(s string) xrl.Args {
		t.Helper()
		x, err := xrl.Parse(s)
		if err != nil {
			t.Fatal(err)
		}
		args, xerr := mgmt.Call(x)
		if xerr != nil {
			t.Fatalf("%s: %v", s, xerr)
		}
		return args
	}
	fib := fea.inst.proc.(feaProc).FIB()
	waitFIB := func(addr, want string) {
		t.Helper()
		for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(10 * time.Millisecond) {
			if e, ok := fib.Lookup(mustA(addr)); ok && e.Net == mustP(want) {
				return
			}
		}
		t.Fatalf("%s never reached the FEA", want)
	}
	waitFIB("192.168.1.7", "192.168.1.0/24")
	waitFIB("10.1.2.3", "10.0.0.0/8")

	call("finder://bgp/bgp/1.0/originate_route4?nlri:ipv4net=20.5.0.0/16&next_hop:ipv4=10.0.0.1")
	waitFIB("20.5.1.2", "20.5.0.0/16")

	for _, class := range []string{"fea", "rib", "bgp"} {
		call("finder://" + class + "/config/0.1/abort_tx?tx_id:u32=7")
	}

	bgp.stop()
	bgpUp = false
	ribProc := rib.inst.proc.(ribProc)
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(10 * time.Millisecond) {
		var stale int
		rib.inst.loop.DispatchAndWait(func() { stale = ribProc.StaleCount(route.ProtoEBGP) })
		if stale > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("BGP left the Finder and the RIB holds none of its routes stale")
		}
	}
	if _, ok := fib.Lookup(mustA("20.5.1.2")); !ok {
		t.Fatal("the stale route left the FEA")
	}
}
