package xipc_test

// The typed stub layer's hot batch path, sent to a target of the same
// Router (a separate file in package xipc_test because internal/xif
// imports xipc; the white-box tests in alloc_test.go stay in package
// xipc). xif's TestListStubsAllocateNothing prices the same calls across
// a hub.

import (
	"net/netip"
	"testing"

	"xorp/internal/eventloop"
	"xorp/internal/route"
	"xorp/internal/xif"
	"xorp/internal/xipc"
	"xorp/internal/xrl"
)

// TestRIBClientBatchAllocParity: a 64-route add_routes4 from the typed
// stub to a local target allocates nothing. The stub builds the routes'
// atoms in the call record, which keeps the storage from call to call.
func TestRIBClientBatchAllocParity(t *testing.T) {
	loop := eventloop.New(nil)
	r := xipc.NewRouter("alloc_parity", loop)
	tgt := xipc.NewTarget("rib", "rib")
	handled := 0
	tgt.Register("rib", "1.0", "add_routes4", func(args xrl.Args) (xrl.Args, error) {
		handled++
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
	stub := xif.NewRIBClient(r, "rib")
	stubSend := func() {
		stub.AddRoutes4("ebgp", es, nil)
		loop.RunPending()
	}
	stubSend() // warm: the record and its item buffer
	if allocs := testing.AllocsPerRun(300, stubSend); allocs != 0 {
		t.Fatalf("xif.RIBClient.AddRoutes4 of %d routes allocates %.1f objects per call, want 0", len(es), allocs)
	}
	if handled != 302 {
		t.Fatalf("%d calls handled, want 302", handled)
	}
}
