package finder

import (
	"strings"
	"testing"

	"xorp/internal/eventloop"
	"xorp/internal/xipc"
	"xorp/internal/xrl"
)

// The version-negotiation tests model a rolling upgrade: the receiver
// implements test/1.1 while callers still compose test/1.0 XRLs.

// newVersionedNode is newTestNode with the echo method registered under
// interface version 1.1 only.
func newVersionedNode(name string) *testNode {
	n := &testNode{loop: eventloop.New(nil)}
	n.router = xipc.NewRouter(name+"_process", n.loop)
	n.target = xipc.NewTarget(name, name)
	n.target.Register("test", "1.1", "echo", func(args xrl.Args) (xrl.Args, error) {
		n.mu.Lock()
		n.calls++
		n.mu.Unlock()
		return append(xrl.Args(nil), args...), nil // a handler's args are not its to return
	})
	n.router.AddTarget(n.target)
	go n.loop.Run()
	return n
}

func setupVersioned(t *testing.T) (caller, callee *testNode) {
	t.Helper()
	hub := xipc.NewHub()
	floop := eventloop.New(nil)
	f := New(floop)
	f.AttachHub(hub)
	go floop.Run()
	t.Cleanup(func() { floop.Stop() })

	caller = newTestNode("alpha")
	caller.router.AttachHub(hub)
	if err := RegisterTargetSync(caller.router, caller.target, true); err != nil {
		t.Fatalf("register alpha: %v", err)
	}
	t.Cleanup(caller.stop)

	callee = newVersionedNode("beta")
	callee.router.AttachHub(hub)
	if err := RegisterTargetSync(callee.router, callee.target, true); err != nil {
		t.Fatalf("register beta: %v", err)
	}
	t.Cleanup(callee.stop)
	return caller, callee
}

func TestResolvePicksHighestMutualVersion(t *testing.T) {
	caller, callee := setupVersioned(t)

	// The caller's stubs speak both 1.1 and 1.0 (preferred first); the
	// target only implements 1.1. A 1.0 call must be upgraded to 1.1 by
	// the Finder, not rejected.
	caller.router.AdvertiseVersions("test", "1.1", "1.0")
	args, err := caller.router.Call(xrl.New("beta", "test", "1.0", "echo",
		xrl.U32("i", 7)))
	if err != nil {
		t.Fatalf("negotiated call failed: %v", err)
	}
	if v := u32(args, "i"); v != 7 {
		t.Fatalf("echo reply = %v", args)
	}
	callee.mu.Lock()
	calls := callee.calls
	callee.mu.Unlock()
	if calls != 1 {
		t.Fatalf("handler ran %d times, want 1", calls)
	}

	// The negotiated resolution is cached like any other: a second call
	// must not renegotiate from scratch (and must still work).
	if _, err := caller.router.Call(xrl.New("beta", "test", "1.0", "echo")); err != nil {
		t.Fatalf("cached negotiated call failed: %v", err)
	}
}

func TestResolveVersionMismatchIsExplicit(t *testing.T) {
	caller, _ := setupVersioned(t)

	// No advertisement: the caller speaks only what it composed (1.0).
	// The target implements the interface and the method, but only under
	// 1.1 — this must be a clear BAD_VERSION naming both sides, not a
	// generic no-such-method.
	_, err := caller.router.Call(xrl.New("beta", "test", "1.0", "echo"))
	if err == nil || err.Code != xrl.CodeBadVersion {
		t.Fatalf("err = %v, want BAD_VERSION", err)
	}
	if !strings.Contains(err.Note, "test/1.1") || !strings.Contains(err.Note, "test/1.0") {
		t.Fatalf("mismatch note should name both versions: %q", err.Note)
	}

	// A genuinely unknown method stays RESOLVE_FAILED.
	_, err = caller.router.Call(xrl.New("beta", "test", "1.1", "no_such"))
	if err == nil || err.Code != xrl.CodeResolveFailed {
		t.Fatalf("unknown method: err = %v, want RESOLVE_FAILED", err)
	}
}

func TestACLGovernsNegotiatedCommand(t *testing.T) {
	hub := xipc.NewHub()
	floop := eventloop.New(nil)
	f := New(floop)
	f.AttachHub(hub)
	go floop.Run()
	t.Cleanup(func() { floop.Stop() })

	caller := newTestNode("alpha")
	caller.router.AttachHub(hub)
	if err := RegisterTargetSync(caller.router, caller.target, true); err != nil {
		t.Fatalf("register alpha: %v", err)
	}
	t.Cleanup(caller.stop)

	callee := newVersionedNode("beta")
	callee.router.AttachHub(hub)
	if err := RegisterTargetSync(callee.router, callee.target, true); err != nil {
		t.Fatalf("register beta: %v", err)
	}
	t.Cleanup(callee.stop)

	caller.router.AdvertiseVersions("test", "1.1", "1.0")
	f.SetStrict(true)
	// Finder bookkeeping traffic must stay permitted.
	f.AddPermission("*", "finder", "*")

	// A rule naming only the 1.0 command must NOT authorize the call the
	// negotiation rewrites to 1.1 — access control governs what executes.
	f.AddPermission("alpha_process", "beta", "test/1.0/echo")
	if _, err := caller.router.Call(xrl.New("beta", "test", "1.0", "echo")); err == nil ||
		err.Code != xrl.CodeResolveFailed {
		t.Fatalf("1.0-only rule authorized a negotiated 1.1 call: %v", err)
	}

	// A rule naming the executed (negotiated) command authorizes it.
	f.AddPermission("alpha_process", "beta", "test/1.1/echo")
	if _, err := caller.router.Call(xrl.New("beta", "test", "1.0", "echo")); err != nil {
		t.Fatalf("rule for negotiated command rejected: %v", err)
	}
}

func TestCommonIntrospection(t *testing.T) {
	// Every production target is created via xif.NewTarget and so
	// answers common/0.1; the Finder itself is one such target.
	hub := xipc.NewHub()
	floop := eventloop.New(nil)
	f := New(floop)
	f.AttachHub(hub)
	go floop.Run()
	t.Cleanup(func() { floop.Stop() })

	n := newTestNode("alpha")
	n.router.AttachHub(hub)
	t.Cleanup(n.stop)

	args, err := n.router.Call(xrl.New("finder", "common", "0.1", "get_interfaces"))
	if err != nil {
		t.Fatalf("get_interfaces: %v", err)
	}
	items, _ := args.ListArg("interfaces")
	var ifaces []string
	for _, it := range items {
		ifaces = append(ifaces, it.TextVal)
	}
	joined := strings.Join(ifaces, " ")
	if !strings.Contains(joined, "finder/1.0") || !strings.Contains(joined, "common/0.1") {
		t.Fatalf("finder target interfaces = %v", ifaces)
	}

	args, err = n.router.Call(xrl.New("finder", "common", "0.1", "get_target_name"))
	if err != nil {
		t.Fatalf("get_target_name: %v", err)
	}
	if name, _ := args.TextArg("name"); name != "finder" {
		t.Fatalf("target name = %q", name)
	}
}
