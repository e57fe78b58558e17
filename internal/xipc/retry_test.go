package xipc

import (
	"fmt"
	"math"
	"slices"
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

// TestRequeuedCallsKeepTheirOrder drives one target's order queue by
// hand, frozen behind a lookup in flight. Calls come back to it out of
// send order — re-routed after a stale resolution, or backing off — while
// others ship or leave and a backoff ends, and the queue stays in send
// order throughout. The stamps wrap around midway.
func TestRequeuedCallsKeepTheirOrder(t *testing.T) {
	r := NewRouter("caller", eventloop.New(nil))
	r.retry = RetryPolicy{Attempts: 4, Base: time.Hour, Max: time.Hour} // no backoff ends by itself
	r.stamps = math.MaxUint32 - 3
	names := []string{"a", "b", "c", "d", "e", "f", "p1", "p2"} // in send order
	calls := map[*call]string{}
	by := map[string]*call{}
	for _, name := range names {
		c := r.newCall(xrl.New("t", "test", "1.0", "m"), nil, true)
		r.stamp(c)
		calls[c], by[name] = name, c
	}
	q := &sendQueue{resolving: true, calls: []*call{by["p1"], by["p2"]}}
	r.pendingSends["t"] = q
	expect := func(step string, want ...string) {
		t.Helper()
		var got []string
		for _, c := range q.calls {
			got = append(got, calls[c])
		}
		if !slices.Equal(got, want) {
			t.Fatalf("after %s the queue is %v, want %v", step, got, want)
		}
	}
	lost := &xrl.Error{Code: xrl.CodeSendFailed, Note: "connection lost"}
	stale := func(name string) { r.finish(by[name], nil, lost) } // re-routed
	backOff := func(name string) {
		by[name].allowRetry = false // sent over a fresh resolution: it backs off
		r.finish(by[name], nil, lost)
	}
	stale("d")
	stale("b")
	expect("two re-routes", "b", "d", "p1", "p2")
	q.pop()
	stale("a")
	expect("a pop and a re-route", "a", "d", "p1", "p2")
	q.remove(by["d"])
	backOff("e")
	expect("a removal and a backoff", "a", "e", "p1", "p2")
	stale("c")
	expect("a re-route in front of a backoff", "a", "c", "e", "p1", "p2")
	r.unlink(by["e"])
	by["e"].expired()
	backOff("f")
	expect("an ended backoff and a backoff", "a", "c", "e", "f", "p1", "p2")
	if by["e"].backingOff || !by["f"].backingOff {
		t.Fatalf("e backing off %v, f %v; want false, true", by["e"].backingOff, by["f"].backingOff)
	}
}

// TestRetryKeepsItsPlace: an idempotent call backing off holds its
// target's order queue, so a later call to the same target cannot ship
// before it. The target is absent when set v=1 is sent, which fails to
// resolve and backs off; it registers, and set v=2 is sent. Without the
// hold v=2 resolves afresh and lands first, and the target applies
// [2 1].
func TestRetryKeepsItsPlace(t *testing.T) {
	clock := eventloop.NewSimClock(time.Unix(0, 0))
	loop := eventloop.New(clock)
	hub := NewHub()
	present := false
	newStubFinder(loop, hub, func(string, string) (xrl.Args, error) {
		if !present {
			return nil, &xrl.Error{Code: xrl.CodeResolveFailed, Note: "no target"}
		}
		return resolution("peer", "", xrl.ProtoIntra+"|"+hub.id), nil
	})

	var applied []uint32
	pr := NewRouter("peer_process", loop)
	pt := NewTarget("peer", "peer")
	pt.Register("test", "1.0", "set", func(a xrl.Args) (xrl.Args, error) {
		if v, ok := a.Get("v"); ok {
			applied = append(applied, uint32(v.IntVal))
		}
		return nil, nil
	})
	pr.AttachHub(hub)

	cr := NewRouter("caller_process", loop)
	cr.AttachHub(hub)
	cr.retry = RetryPolicy{Attempts: 4, Base: 50 * time.Millisecond, Max: time.Second}
	var done []*xrl.Error
	answer := func(_ xrl.Args, err *xrl.Error) { done = append(done, err) }
	set := func(v uint32) { cr.sendIdempotent(xrl.New("peer", "test", "1.0", "set", xrl.U32("v", v)), answer) }
	set(1)
	loop.RunPending()
	present = true
	pr.AddTarget(pt)
	set(2)
	loop.RunFor(3 * time.Second) // covers every jittered backoff
	if len(done) != 2 || done[0] != nil || done[1] != nil {
		t.Fatalf("calls answered %v, want two successes", done)
	}
	if len(applied) != 2 || applied[0] != 1 || applied[1] != 2 {
		t.Fatalf("target applied %v, want [1 2]: the retry was overtaken", applied)
	}

	// With the target gone for good, the retry runs out and fails to its
	// caller, and the call parked behind it ships after it, in order.
	present = false
	pr.RemoveTarget("peer")
	done, applied = nil, nil
	set(3)
	loop.RunPending()
	cr.Send(xrl.New("peer", "test", "1.0", "set", xrl.U32("v", 4)), answer)
	loop.RunPending()
	if len(done) != 0 {
		t.Fatalf("the call behind a backing-off one answered before it: %v", done)
	}
	loop.RunFor(3 * time.Second)
	if len(done) != 2 || done[0] == nil || done[1] == nil || len(applied) != 0 {
		t.Fatalf("calls answered %v and the target applied %v, want two failures, the retry's first, and nothing applied", done, applied)
	}

	// A router closed while a call backs off fails it when that backoff
	// ends, with no further attempt (its resolve cannot reach the Finder),
	// and then the call parked behind it: the first backoff is at most
	// 50 ms, the first two at least 75.
	done = nil
	set(5)
	loop.RunPending()
	cr.Send(xrl.New("peer", "test", "1.0", "set", xrl.U32("v", 6)), answer)
	loop.RunPending()
	cr.Close()
	loop.RunFor(60 * time.Millisecond)
	if len(done) != 2 || done[0] == nil || done[1] == nil {
		t.Fatalf("calls on a closed router answered %v, want two failures", done)
	}
}

// TestRetryKeepsItsPlaceAcrossALookup: a retry whose backoff ends while
// the Finder lookup for a later call (another method) is still out goes
// back in front of that call, and the lookup's answer ships both in
// order, each to its own method. The Finder runs on a loop of its own,
// so it answers only when that loop is run.
func TestRetryKeepsItsPlaceAcrossALookup(t *testing.T) {
	loop, finderLoop := simLoop(), simLoop()
	hub := NewHub()
	newStubFinder(finderLoop, hub, func(string, string) (xrl.Args, error) {
		return resolution("peer", "", xrl.ProtoIntra+"|"+hub.id), nil
	})
	answerFinder := func() { finderLoop.RunPending(); loop.RunPending() }

	var got []string
	failures := 2 // set's first delivery and its re-resolved one fail
	pr := NewRouter("peer_process", loop)
	pt := NewTarget("peer", "peer")
	for _, m := range []string{"set", "other"} {
		pt.Register("test", "1.0", m, func(a xrl.Args) (xrl.Args, error) {
			if m == "set" && failures > 0 {
				failures--
				return nil, &xrl.Error{Code: xrl.CodeSendFailed, Note: "transient"}
			}
			v, _ := a.Get("v")
			got = append(got, fmt.Sprintf("%s %d", m, v.IntVal))
			return nil, nil
		})
	}
	pr.AddTarget(pt)
	pr.AttachHub(hub)

	cr := NewRouter("caller_process", loop)
	cr.AttachHub(hub)
	cr.retry = RetryPolicy{Attempts: 4, Base: 50 * time.Millisecond, Max: time.Second}
	var done []*xrl.Error
	answer := func(_ xrl.Args, err *xrl.Error) { done = append(done, err) }

	// set v=1 is looked up and delivered; it fails, is looked up again
	// (a failed send blames the resolution), and the second lookup's
	// answer is on its way when other v=2 is sent, cold, so other's
	// lookup is out when set's second delivery fails and backs off.
	cr.sendIdempotent(xrl.New("peer", "test", "1.0", "set", xrl.U32("v", 1)), answer)
	loop.RunPending()
	answerFinder()
	finderLoop.RunPending()
	cr.Send(xrl.New("peer", "test", "1.0", "other", xrl.U32("v", 2)), answer)
	loop.RunPending()
	if len(done) != 0 || len(got) != 0 || failures != 0 {
		t.Fatalf("before the backoff: answered %v, applied %v, %d failures left; want nothing and 0", done, got, failures)
	}
	loop.RunFor(60 * time.Millisecond) // the first backoff is at most 50 ms
	answerFinder()                     // other's lookup comes back
	if len(done) != 2 || done[0] != nil || done[1] != nil {
		t.Fatalf("calls answered %v, want two successes", done)
	}
	if len(got) != 2 || got[0] != "set 1" || got[1] != "other 2" {
		t.Fatalf("target applied %q, want [set 1, other 2]", got)
	}
}

// TestConcurrentRetriesKeepTheirOrder: two idempotent calls back off at
// once, and both keep their places. set 0 warms the cache; then the
// target's connection tears twice, so that set 1 and set 2 each fail
// their delivery and their re-resolved delivery, and both back off; set 3
// is sent during the backoffs. When only the first call to back off kept
// its place, set 3 shipped behind set 1 and ahead of set 2: [0 1 3 2].
func TestConcurrentRetriesKeepTheirOrder(t *testing.T) {
	loop, hub := simLoop(), NewHub()
	newStubFinder(loop, hub, func(string, string) (xrl.Args, error) {
		return resolution("peer", "", xrl.ProtoIntra+"|"+hub.id), nil
	})
	var applied []uint32
	failures := 0
	pr := NewRouter("peer_process", loop)
	pt := NewTarget("peer", "peer")
	pt.Register("test", "1.0", "set", func(a xrl.Args) (xrl.Args, error) {
		if failures > 0 {
			failures--
			return nil, &xrl.Error{Code: xrl.CodeSendFailed, Note: "connection torn"}
		}
		v, _ := a.Get("v")
		applied = append(applied, uint32(v.IntVal))
		return nil, nil
	})
	pr.AddTarget(pt)
	pr.AttachHub(hub)

	cr := NewRouter("caller_process", loop)
	cr.AttachHub(hub)
	cr.retry = RetryPolicy{Attempts: 4, Base: 50 * time.Millisecond, Max: time.Second}
	var done []*xrl.Error
	answer := func(_ xrl.Args, err *xrl.Error) { done = append(done, err) }
	set := func(v uint32) { cr.sendIdempotent(xrl.New("peer", "test", "1.0", "set", xrl.U32("v", v)), answer) }
	set(0)
	loop.RunPending()
	failures = 4
	set(1)
	set(2)
	loop.RunPending()
	if failures != 0 || len(done) != 1 {
		t.Fatalf("%d failures left and %d calls answered, want 0 and 1: both retries back off", failures, len(done))
	}
	set(3)
	loop.RunFor(3 * time.Second) // covers every jittered backoff
	if len(done) != 4 || slices.ContainsFunc(done, func(e *xrl.Error) bool { return e != nil }) {
		t.Fatalf("calls answered %v, want four successes", done)
	}
	if !slices.Equal(applied, []uint32{0, 1, 2, 3}) {
		t.Fatalf("target applied %v, want [0 1 2 3]: a retry was overtaken", applied)
	}
}
