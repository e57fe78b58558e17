package telemetry_test

import (
	"net/netip"
	"strings"
	"testing"

	"xorp/internal/eventloop"
	"xorp/internal/telemetry"
	"xorp/internal/xif"
	"xorp/internal/xipc"
	"xorp/internal/xrl"
)

// TestXRLControl drives a tracer's profile view through the profile/0.1
// binding: enable, get_entries, list, clear, disable, and the errors.
func TestXRLControl(t *testing.T) {
	loop := eventloop.New(nil)
	tr := telemetry.NewTracer()
	router := xipc.NewRouter("prof_process", loop)
	target := xipc.NewTarget("profiled", "profiled")
	xif.BindProfile(target, telemetry.ProfileView(func() *telemetry.Tracer { return tr }))
	router.AddTarget(target)
	go loop.Run()
	defer loop.Stop()

	call := func(method string, args ...xrl.Atom) (xrl.Args, *xrl.Error) {
		return router.Call(xrl.New("profiled", "profile", "0.1", method, args...))
	}
	pt := xrl.Text("pname", "route_arrive_rib")
	if _, err := call("enable", pt); err != nil {
		t.Fatalf("enable: %v", err)
	}
	if !tr.On(telemetry.StageRIBIn) || tr.On(telemetry.StagePeerIn) {
		t.Fatal("enable did not switch exactly its stage on")
	}
	tr.Stamp(telemetry.StageRIBIn, netip.MustParsePrefix("10.0.1.0/24"))
	args, err := call("get_entries", pt)
	if err != nil {
		t.Fatalf("get_entries: %v", err)
	}
	entries, _ := args.ListArg("entries")
	if len(entries) != 1 || !strings.HasPrefix(entries[0].TextVal, "route_arrive_rib ") ||
		!strings.HasSuffix(entries[0].TextVal, " add 10.0.1.0/24") {
		t.Fatalf("entries %v", entries)
	}
	args, err = call("list")
	if err != nil {
		t.Fatal(err)
	}
	if pts, _ := args.TextArg("points"); !strings.Contains(pts, "route_arrive_rib") {
		t.Fatalf("list %q", pts)
	}
	if _, err := call("clear", pt); err != nil {
		t.Fatal(err)
	}
	if _, err := call("disable", pt); err != nil || tr.Enabled() {
		t.Fatalf("disable: %v, enabled %v", err, tr.Enabled())
	}
	// Missing argument; unknown point.
	if _, err := call("enable"); err == nil {
		t.Fatal("enable without pname accepted")
	}
	if _, err := call("enable", xrl.Text("pname", "pt1")); err == nil {
		t.Fatal("unknown point accepted")
	}
}
