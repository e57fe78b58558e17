package xipc

import (
	"testing"
	"time"

	"xorp/internal/eventloop"
	"xorp/internal/xrl"
)

// sendIdempotent is an idempotent SendArgs of x with its own arguments.
func (r *Router) sendIdempotent(x xrl.XRL, cb Callback) { r.SendArgs(x, x.Args, cb, true) }

// A target that registers only after the first attempts fail: Send
// surfaces the resolve failure, an idempotent SendArgs rides it out. Uses
// a sim clock so the backoff timers are driven deterministically.
func TestIdempotentSendRetriesResolveFailure(t *testing.T) {
	clock := eventloop.NewSimClock(time.Unix(0, 0))
	loop := eventloop.New(clock)
	hub := NewHub()

	// Resolution fails while the target is absent, succeeds once present.
	present := false
	newStubFinder(loop, hub, func(string, string) (xrl.Args, error) {
		if !present {
			return nil, &xrl.Error{Code: xrl.CodeResolveFailed, Note: "no target"}
		}
		return resolution("peer", "", xrl.ProtoIntra+"|"+hub.id), nil
	})

	pr := NewRouter("peer_process", loop)
	pt := NewTarget("peer", "peer")
	pt.Register("test", "1.0", "echo", func(a xrl.Args) (xrl.Args, error) { return a, nil })
	pr.AttachHub(hub)

	cr := NewRouter("caller_process", loop)
	cr.AttachHub(hub)
	cr.retry = RetryPolicy{Attempts: 4, Base: 50 * time.Millisecond, Max: time.Second}

	// Plain Send fails immediately.
	var sendErr *xrl.Error
	sendDone := false
	cr.Send(xrl.New("peer", "test", "1.0", "echo"), func(_ xrl.Args, err *xrl.Error) {
		sendErr, sendDone = err, true
	})
	loop.RunPending()
	if !sendDone || sendErr == nil || sendErr.Code != xrl.CodeResolveFailed {
		t.Fatalf("Send: done=%v err=%v, want immediate RESOLVE_FAILED", sendDone, sendErr)
	}

	// The idempotent send keeps trying; the target appears during the backoff
	// window and the call lands.
	var idemErr *xrl.Error
	idemDone := false
	cr.sendIdempotent(xrl.New("peer", "test", "1.0", "echo"), func(_ xrl.Args, err *xrl.Error) {
		idemErr, idemDone = err, true
	})
	loop.RunPending()
	if idemDone {
		t.Fatalf("idempotent send reported %v before retries ran", idemErr)
	}
	present = true
	pr.AddTarget(pt)
	loop.RunFor(3 * time.Second) // covers every jittered backoff
	if !idemDone || idemErr != nil {
		t.Fatalf("idempotent send: done=%v err=%v, want success after retry", idemDone, idemErr)
	}

	// With the target gone for good, retries are bounded: the failure
	// surfaces after the policy's attempts, not never.
	present = false
	pr.RemoveTarget("peer")
	idemDone, idemErr = false, nil
	cr.sendIdempotent(xrl.New("peer", "test", "1.0", "missing"), func(_ xrl.Args, err *xrl.Error) {
		idemErr, idemDone = err, true
	})
	loop.RunFor(10 * time.Second)
	if !idemDone || idemErr == nil || idemErr.Code != xrl.CodeResolveFailed {
		t.Fatalf("bounded retry: done=%v err=%v, want RESOLVE_FAILED", idemDone, idemErr)
	}
}
