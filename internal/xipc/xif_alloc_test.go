package xipc_test

// Allocation parity for the typed stub layer: routing the hot batch path
// through xif.RIBClient must add zero allocations over hand-building the
// same XRL and calling Router.Send directly. (A separate file in package
// xipc_test because internal/xif imports xipc; the white-box tests in
// alloc_test.go stay in package xipc.)

import (
	"net/netip"
	"testing"

	"xorp/internal/eventloop"
	"xorp/internal/route"
	"xorp/internal/xif"
	"xorp/internal/xipc"
	"xorp/internal/xrl"
)

func TestRIBClientBatchAllocParity(t *testing.T) {
	loop := eventloop.New(nil)
	r := xipc.NewRouter("alloc_parity", loop)
	tgt := xipc.NewTarget("rib", "rib")
	tgt.Register("rib", "1.0", "add_routes4", func(args xrl.Args) (xrl.Args, error) {
		return nil, nil
	})
	r.AddTarget(tgt)
	defer r.Close()

	es := make([]route.Entry, 64)
	for i := range es {
		es[i] = route.Entry{
			Net:     netip.PrefixFrom(netip.AddrFrom4([4]byte{10, 0, byte(i), 0}), 24),
			NextHop: netip.MustParseAddr("192.168.1.254"),
			Metric:  uint32(i),
		}
	}
	// Both paths below encode the run and ship it, isolating the stub
	// overhead.
	stub := xif.NewRIBClient(r, "rib")

	rawSend := func() {
		r.Send(xrl.XRL{
			Protocol: xrl.ProtoFinder, Target: "rib",
			Interface: "rib", Version: "1.0", Method: "add_routes4",
			Args: xrl.Args{
				xrl.Text("protocol", "ebgp"),
				xrl.List("routes", xif.EncodeRouteAtoms(es)...),
			},
		}, nil)
		loop.RunPending()
	}
	stubSend := func() {
		stub.AddRoutes4("ebgp", es, nil)
		loop.RunPending()
	}

	// Warm both paths.
	rawSend()
	stubSend()

	rawAllocs := testing.AllocsPerRun(300, rawSend)
	stubAllocs := testing.AllocsPerRun(300, stubSend)
	if stubAllocs > rawAllocs {
		t.Fatalf("xif.RIBClient.AddRoutes4 allocates %.1f objects per call, raw Send %.1f: stub must add 0",
			stubAllocs, rawAllocs)
	}
}
