package fea

import (
	"strings"
	"testing"

	"xorp/internal/eventloop"
	"xorp/internal/kernel"
	"xorp/internal/route"
	"xorp/internal/xipc"
	"xorp/internal/xrl"
)

// TestStatsXRL drives the stats/0.1 scrape path end to end: metrics
// registered at assembly come back through the XRL binding as rendered
// plaintext lines, and get resolves a single metric live.
func TestStatsXRL(t *testing.T) {
	loop := eventloop.New(nil)
	fib := kernel.NewFIB()
	router := xipc.NewRouter("fea_process", loop)
	p := New(loop, fib, nil, router)
	target := xipc.NewTarget("fea", "fea")
	p.RegisterXRLs(target)
	router.AddTarget(target)
	go loop.Run()
	defer loop.Stop()

	if err := (feaServer{p}).AddEntries4([]route.Entry{{Net: mustP("10.0.0.0/8"), IfName: "eth0"}}); err != nil {
		t.Fatal(err)
	}

	call := func(s string) (xrl.Args, *xrl.Error) {
		x, err := xrl.Parse(s)
		if err != nil {
			t.Fatal(err)
		}
		return router.Call(x)
	}

	args, err := call("finder://fea/stats/0.1/scrape")
	if err != nil {
		t.Fatalf("scrape: %v", err)
	}
	items, _ := args.ListArg("lines")
	var text strings.Builder
	for _, it := range items {
		text.WriteString(it.TextVal)
		text.WriteByte('\n')
	}
	for _, want := range []string{
		"# TYPE fea_fib_entries gauge",
		"fea_fib_entries 1",
		"fea_fib_writes_total 1",
		"# TYPE xrl_io_writes_total counter",
	} {
		if !strings.Contains(text.String(), want) {
			t.Errorf("scrape missing %q in:\n%s", want, text.String())
		}
	}

	args, err = call("finder://fea/stats/0.1/get?name:txt=fea_snapshot_gen")
	if err != nil {
		t.Fatalf("get: %v", err)
	}
	if found, _ := args.BoolArg("found"); !found {
		t.Fatal("fea_snapshot_gen not found")
	}
	if v, ok := args.Get("value"); !ok || v.Type != xrl.TypeFP64 || v.F64Val != 1 {
		t.Fatalf("fea_snapshot_gen = %v, want 1", v)
	}

	args, err = call("finder://fea/stats/0.1/get?name:txt=nope")
	if err != nil {
		t.Fatalf("get missing: %v", err)
	}
	if found, _ := args.BoolArg("found"); found {
		t.Fatal("bogus metric reported found")
	}
}
